"""The benchmark's workloads: set-up, timed region and output checks.

Each workload drives the public CLI (``tcm_stance.cli.main``) in-process on
inputs that ``inputs`` writes from the seed.  One run is:

1. set-up, ``SETUPS`` times, each into a fresh directory by a child process
   (``child.py``), so that the generator's memory stays out of the run's
   ``peak_rss_mb``; the reported ``setup_s`` is the median of the set-up
   times at reference machine speed (``speed.py``), and the set-ups' files
   must be byte-identical;
2. for ``crawl-10x``, the hostile shard through ``prep`` on its own, untimed,
   also in a child process;
3. the timed region, repeated while another repetition is expected to end
   within the run's seconds (at least once), each repetition under a
   ``speed.SpeedSampler``; ``norm_wall_s`` is the median repetition time at
   the sampler's reference machine speed, which a slow stretch of the shared
   host does not move, and ``wall_s`` the fastest repetition as measured;
4. checks on the first repetition's outputs; later repetitions must produce
   byte-identical files.

With tracing on, every repetition runs under a ``tracing.Tracer`` and the
per-layer metrics come from the repetition with the median traced wall time.
The segmenter's lexicon probes are counted in one more, untimed, run of the
repetition's ``prep`` commands, so that the counting does not slow the
traced ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import speed
import tracing
from tcm_stance import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
FOLDS = 5  # the CLI's default k_folds

Argv = list  # command-line words, str or Path


@dataclass
class Outcome:
    """Result of checking one repetition's outputs."""

    attempted: int
    failed: int
    micro_f1: float = 0.0
    macro_f1: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int, float], inputs.Manifest]   # (dir, seed, scale) -> manifest
    steps: Callable[[Path, Path], list[Argv]]    # (set-up dir, output dir) -> CLI commands
    check: Callable[[Path, inputs.Manifest, list[int], float], Outcome]
    items: Callable[[inputs.Manifest], int]      # work units in one repetition


def _scaled(users: tuple[int, int], scale: float) -> tuple[int, int]:
    return (max(1, round(users[0] * scale)), max(1, round(users[1] * scale)))


def _cli(argv: Argv) -> int:
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# output readers and scoring (independent of the program's own evaluation)

def _jsonl_ids(path: Path, key: str) -> list[str]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)[key] for line in fh if line.strip()]


def _tsv_rows(path: Path) -> list[list[str]]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def f1_scores(pairs: list[tuple[str, str]]) -> tuple[float, float]:
    """(micro, macro) F1 over (gold, predicted) stance pairs."""
    per_class = []
    pooled = [0, 0, 0]
    for cls in (inputs.SUPPORT, inputs.OPPOSE):
        tp = sum(1 for g, p in pairs if g == cls and p == cls)
        fp = sum(1 for g, p in pairs if g != cls and p == cls)
        fn = sum(1 for g, p in pairs if g == cls and p != cls)
        per_class.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
        pooled = [pooled[0] + tp, pooled[1] + fp, pooled[2] + fn]
    tp, fp, fn = pooled
    micro = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return micro, sum(per_class) / len(per_class)


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.relative_to(path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# crawl-10x: classify a decorated crawl end to end

def _crawl_setup(d: Path, seed: int, scale: float) -> inputs.Manifest:
    return inputs.write_crawl(d, seed, users=_scaled(inputs.CRAWL_USERS, scale))


def _crawl_steps(s: Path, o: Path) -> list[Argv]:
    return [
        ["prep", "--tweets", s / "tweets.jsonl", "--out", o / "docs.jsonl"],
        ["label", "--docs", o / "docs.jsonl", "--users", s / "users.jsonl",
         "--out", o / "labeled.jsonl", "--remainder", o / "remainder.jsonl"],
        ["train", "--labeled", o / "labeled.jsonl",
         "--model-out", o / "model.txt", "--features-out", o / "features.tsv"],
        ["predict", "--docs", o / "remainder.jsonl", "--model", o / "model.txt",
         "--features", o / "features.tsv", "--out", o / "predictions.tsv"],
        ["adjust", "--predictions", o / "predictions.tsv", "--out", o / "adjusted.tsv"],
        ["report-timeseries", "--predictions", o / "adjusted.tsv",
         "--out", o / "timeseries.csv", "--svg", o / "timeseries.svg"],
        ["report-keywords", "--features", o / "features.tsv", "--out", o / "keywords.csv"],
    ]


def _crawl_check(o: Path, manifest: inputs.Manifest, codes: list[int], floor: float) -> Outcome:
    docs = _jsonl_ids(o / "docs.jsonl", "tweet_id")
    labeled = set(_jsonl_ids(o / "labeled.jsonl", "tweet_id"))
    predictions = _tsv_rows(o / "predictions.tsv")
    predicted = {row[0] for row in predictions}
    expected = {tid for ids in manifest.record_ids for tid in ids}
    ingested = sum(1 for tid in docs if "#" not in tid)

    # a record fails when any of its tweets is lost on the way to a label or
    # a prediction; a command that fails stops the pass, which loses the rest
    reached = labeled | predicted
    outcome = Outcome(attempted=manifest.lines, failed=sum(
        1 for ids in manifest.record_ids if not reached.issuperset(ids)))
    outcome.checks["skipped_equals_malformed"] = manifest.lines - ingested == manifest.malformed
    outcome.checks["flattened_equals_records_plus_positions"] = (
        len(docs) == manifest.flattened and set(docs) == expected
    )
    outcome.checks["prediction_ids_unique"] = len(predicted) == len(predictions)

    pairs = [(manifest.gold.get(row[0], ""), row[3]) for row in _tsv_rows(o / "adjusted.tsv")]
    if pairs:
        outcome.micro_f1, outcome.macro_f1 = f1_scores(pairs)
    outcome.checks["micro_f1_above_floor"] = outcome.micro_f1 >= floor
    return outcome


# ---------------------------------------------------------------------------
# sweeps: 5-fold CV rows over one parameter axis

@dataclass(frozen=True)
class Sweep:
    csv: str
    argv: tuple[str, ...]       # sweep flags after --labeled/--out
    values: tuple[float, ...]
    settings: int               # cross-validations the sweep runs


def _sweep_steps(sweeps: tuple[Sweep, ...]) -> Callable[[Path, Path], list[Argv]]:
    def steps(s: Path, o: Path) -> list[Argv]:
        return [["sweep", *sw.argv, "--labeled", s / "labeled.jsonl", "--out", o / sw.csv]
                for sw in sweeps]
    return steps


def _sweep_rows(path: Path) -> dict[float, dict[str, list[str]]]:
    rows: dict[float, dict[str, list[str]]] = {}
    if not path.exists():
        return rows
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        try:
            value = float(cells[0])
        except (ValueError, IndexError):
            continue
        rows.setdefault(value, {})[cells[1] if len(cells) > 1 else ""] = cells
    return rows


def _row_ok(classes: dict[str, list[str]] | None) -> bool:
    if not classes or set(classes) != {inputs.SUPPORT, inputs.OPPOSE}:
        return False
    try:
        cells = [float(c) for row in classes.values() for c in row[2:]]
    except ValueError:
        return False
    return all(len(row) == 7 for row in classes.values()) and all(0.0 <= c <= 1.0 for c in cells)


def _sweep_check(sweeps: tuple[Sweep, ...], default: tuple[str, float]):
    def check(o: Path, manifest: inputs.Manifest, codes: list[int], floor: float) -> Outcome:
        outcome = Outcome(attempted=sum(len(sw.values) for sw in sweeps), failed=0)
        for i, sw in enumerate(sweeps):
            rows = _sweep_rows(o / sw.csv)
            ran = i < len(codes) and codes[i] == 0
            for value in sw.values:
                match = next((rows[v] for v in rows if abs(v - value) < 1e-9), None)
                if not ran or not _row_ok(match):
                    outcome.failed += 1
                elif sw.csv == default[0] and abs(value - default[1]) < 1e-9:
                    cells = match[inputs.SUPPORT]
                    outcome.micro_f1, outcome.macro_f1 = float(cells[5]), float(cells[6])
        outcome.checks["micro_f1_above_floor"] = outcome.micro_f1 >= floor
        return outcome
    return check


def _labeled_setup(write: Callable[[Path, int, float], inputs.Manifest]):
    """Set-up for the sweeps: write the corpus, then prep and label it."""
    def setup(d: Path, seed: int, scale: float):
        manifest = write(d, seed, scale)
        for argv in (
            ["prep", "--tweets", d / "tweets.jsonl", "--out", d / "docs.jsonl",
             "--segmentation-lexicon", d / "lexicon.txt"],
            ["label", "--docs", d / "docs.jsonl", "--users", d / "users.jsonl",
             "--out", d / "labeled.jsonl"],
        ):
            if _cli(argv) != 0:
                raise RuntimeError(f"set-up command failed: {argv[0]}")
        return manifest
    return setup


# K=3000 is left out: on this corpus its fits run to max_epochs and would
# take over the pass from features and evaluation; the gamma rows share one
# CV at K=400
K_SWEEPS = (
    Sweep("k.csv", ("--axis", "k", "--values", "50,100,200,400"), (50, 100, 200, 400), 4),
    Sweep("gamma.csv", ("--axis", "gamma", "--values", "0.5..1.0:0.1", "--K", "400"),
          (0.5, 0.6, 0.7, 0.8, 0.9, 1.0), 1),
)

WORKLOADS = {
    "crawl-10x": Workload(_crawl_setup, _crawl_steps, _crawl_check, lambda m: m.flattened),
    "sweep-k-bigvocab": Workload(
        _labeled_setup(lambda d, seed, scale: inputs.write_bigvocab(
            d, seed, users=_scaled((2 * inputs.DEFAULT_USERS[0], 2 * inputs.DEFAULT_USERS[1]),
                                   scale))),
        _sweep_steps(K_SWEEPS),
        _sweep_check(K_SWEEPS, ("gamma.csv", 0.5)),
        lambda m: FOLDS * sum(sw.settings for sw in K_SWEEPS),
    ),
}


def read_floors(path: Path = ROOT / "BENCHMARK.json") -> dict[str, float]:
    """micro_f1 floor per workload, as written in its "why" in BENCHMARK.json."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    floors = {}
    for workload in spec["workloads"]:
        match = re.search(r"micro_f1 floor ([0-9.]+)", workload["why"])
        if match is None:
            raise ValueError(f"BENCHMARK.json: no micro_f1 floor for {workload['name']}")
        floors[workload["name"]] = float(match.group(1))
    return floors


# ---------------------------------------------------------------------------
# hostile shard

def run_hostile(d: Path, seed: int) -> dict:
    """prep on the hostile shard alone; counts the lines it mishandles."""
    manifest = inputs.write_hostile(d, seed)
    code = _cli(["prep", "--tweets", d / "tweets.jsonl", "--out", d / "docs.jsonl"])
    if code != 0:
        failed = manifest.lines
    else:
        out = Counter(_jsonl_ids(d / "docs.jsonl", "tweet_id"))
        failed = (sum(1 for tid in manifest.good_ids if not out[tid])
                  + sum(1 for tid in manifest.duplicate_ids if out[tid] > 1)
                  + (1 if any(out[tid] for tid in manifest.rejected_ids) else 0))
    return {"lines": manifest.lines, "failed": failed, "exit_code": code}


# ---------------------------------------------------------------------------
# one run

def in_child(*args: object) -> dict:
    """Run ``child.py`` with args and return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _timed_pass(steps: list[Argv], call: Callable[[Argv], int]) -> tuple[list[int], float]:
    """Run the commands in order, stopping at the first that fails; returns
    their exit codes and the seconds they took together."""
    codes = []
    start = time.perf_counter()
    for argv in steps:
        codes.append(call(argv))
        if codes[-1]:
            break
    return codes, time.perf_counter() - start


def _median_ratio(seconds: list[float], slowdowns: list[float]) -> float:
    return statistics.median(s / k for s, k in zip(seconds, slowdowns))


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    setup_s: list[float]         # seconds per set-up, as measured
    setup_slowdowns: list[float]  # machine slowdown per set-up
    passes: list[float]          # seconds per repetition, the sampler's own time left out
    slowdowns: list[float]       # machine slowdown per untraced repetition (speed.py)
    items: int
    peak_rss_mb: float
    rss_before_timed_mb: float   # peak before the timed region, for comparison
    outcome: Outcome
    hostile: dict | None
    tracer: tracing.Tracer | None = None   # the traced repetition with the median wall time

    @property
    def correct(self) -> bool:
        return all(self.outcome.checks.values())

    @property
    def wall_s(self) -> float:
        return min(self.passes)

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """name -> (value, unit, samples).

        ``setup_s`` and the ``norm_`` metrics are medians of times at the
        reference machine speed of ``speed.py``; ``setup_wall_s``, ``wall_s``
        and ``items_per_s`` are as measured, and ``slowdown`` is the median
        machine slowdown that separates them.  A traced run has no ``norm_``
        metrics: its repetitions run without the speed sampler.
        """
        n = len(self.passes)
        metrics = {
            "setup_s": (_median_ratio(self.setup_s, self.setup_slowdowns), "s",
                        len(self.setup_s)),
            "setup_wall_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
        }
        if self.slowdowns:
            norm = _median_ratio(self.passes, self.slowdowns)
            metrics["norm_wall_s"] = (norm, "s", n)
            metrics["norm_items_per_s"] = (self.items / norm, "1/s", n)
            metrics["slowdown"] = (statistics.median(self.slowdowns), "ratio", n)
        return metrics | {
            "wall_s": (self.wall_s, "s", n),
            "items_per_s": (self.items / self.wall_s, "1/s", n),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
            "micro_f1": (self.outcome.micro_f1, "ratio", 1),
            "macro_f1": (self.outcome.macro_f1, "ratio", 1),
        }

    def failed_frac(self) -> float:
        """Failed over attempted operations, the hostile shard's lines included."""
        attempted, failed = self.outcome.attempted, self.outcome.failed
        if self.hostile is not None:
            attempted += self.hostile["lines"]
            failed += self.hostile["failed"]
        return failed / attempted


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: float = 1.0) -> RunResult:
    workload = WORKLOADS[name]
    floor = read_floors()[name]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = [in_child("setup", name, workdir / f"setup{k}", seed, scale)
              for k in range(SETUPS)]
    setup_digests = [digest_dir(workdir / f"setup{k}") for k in range(SETUPS)]
    setup_dir = workdir / "setup0"
    hostile = in_child("hostile", workdir / "hostile", seed) if name == "crawl-10x" else None
    rss_before = _peak_rss_mb()

    passes: list[float] = []
    slowdowns: list[float] = []
    tracers: list[tracing.Tracer] = []
    outcome = None
    items = 0
    first_digest = None
    same_outputs = True
    loop_start = time.perf_counter()
    while True:
        out = workdir / f"run{len(passes)}"
        out.mkdir()
        steps = workload.steps(setup_dir, out)
        sampler = None if trace else speed.SpeedSampler()
        # the harness's own objects stay out of the program's garbage collections
        gc.collect()
        gc.freeze()
        if trace:
            tracer = tracing.Tracer()
            tracers.append(tracer)
            try:
                tracer.install()
                tracer.begin()
                codes, seconds_taken = _timed_pass(
                    steps, lambda argv: tracer.call(f"cli.{argv[0]}", _cli, argv))
                tracer.finish()
            finally:
                tracer.uninstall()
        else:
            with sampler:
                codes, seconds_taken = _timed_pass(steps, _cli)
            seconds_taken -= sampler.handler_s
            slowdowns.append(sampler.slowdown)
        gc.unfreeze()
        passes.append(seconds_taken)
        digest = digest_dir(out)
        if outcome is None:
            manifest = inputs.Manifest(
                **json.loads((setup_dir / "manifest.json").read_text(encoding="utf-8")))
            outcome = workload.check(out, manifest, codes, floor)
            outcome.checks["all_commands_succeeded"] = (
                len(codes) == len(steps) and not any(codes))
            items = workload.items(manifest)
            del manifest
            first_digest = digest
        else:
            same_outputs = same_outputs and digest == first_digest
            shutil.rmtree(out)
        if time.perf_counter() - loop_start + seconds_taken > seconds:
            break

    assert outcome is not None
    outcome.checks["inputs_identical_across_setups"] = all(
        d == setup_digests[0] for d in setup_digests)
    outcome.checks["outputs_identical_across_repetitions"] = same_outputs
    peak_rss = _peak_rss_mb()
    median_tracer = None
    if tracers:
        order = sorted(range(len(tracers)), key=lambda i: tracers[i].root.total)
        median_tracer = tracers[order[(len(order) - 1) // 2]]
        probe_dir = workdir / "probes"
        probe_dir.mkdir()
        prep = [argv for argv in workload.steps(setup_dir, probe_dir) if argv[0] == "prep"]
        median_tracer.counters["preprocess.segment.probes"] = tracing.count_probes(
            lambda: _timed_pass(prep, _cli))
    return RunResult(
        workload=name,
        seed=seed,
        trace=trace,
        setup_s=[s["seconds"] for s in setups],
        setup_slowdowns=[s["slowdown"] for s in setups],
        passes=passes,
        slowdowns=slowdowns,
        items=items,
        peak_rss_mb=peak_rss,
        rss_before_timed_mb=rss_before,
        outcome=outcome,
        hostile=hostile,
        tracer=median_tracer,
    )
