"""The parts of a benchmark run that go to a child process, so that their
memory does not count in the run's ``peak_rss_mb``.

    python3 perfbench/child.py setup WORKLOAD DIR SEED SCALE
    python3 perfbench/child.py hostile DIR SEED

``setup`` writes the workload's inputs into DIR and their manifest to
``DIR/manifest.json``, and prints ``{"seconds": ..., "slowdown": ...}``: the
time the set-up took and the machine's slowdown meanwhile, measured by a
``speed.SpeedSampler`` whose own time is left out of the seconds.
``hostile`` runs ``prep`` on the hostile shard in DIR and prints what
``workloads.run_hostile`` counted.  The JSON object is the last line of
standard output.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 5:
        name, d, seed, scale = argv[1], Path(argv[2]), int(argv[3]), float(argv[4])
        sampler = speed.SpeedSampler()
        start = time.perf_counter()
        with sampler:
            manifest = workloads.WORKLOADS[name].setup(d, seed, scale)
        seconds = time.perf_counter() - start - sampler.handler_s
        (d / "manifest.json").write_text(json.dumps(dataclasses.asdict(manifest)),
                                         encoding="utf-8")
        print(json.dumps({"seconds": seconds, "slowdown": sampler.slowdown}))
    elif argv[:1] == ["hostile"] and len(argv) == 3:
        print(json.dumps(workloads.run_hostile(Path(argv[1]), int(argv[2]))))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
