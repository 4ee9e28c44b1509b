"""Tests for the benchmark harness; run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tcm_stance import svm  # noqa: E402

SMALL = (20, 4)


def _files(d: Path) -> dict[str, bytes]:
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("write", [
    lambda d, seed: inputs.write_crawl(d, seed, users=SMALL),
    lambda d, seed: inputs.write_bigvocab(d, seed, users=SMALL),
    inputs.write_hostile,
], ids=["crawl", "bigvocab", "hostile"])
def test_generator_is_byte_deterministic_per_seed(tmp_path, write):
    first = write(tmp_path / "a", 7)
    again = write(tmp_path / "b", 7)
    other = write(tmp_path / "c", 8)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first == again
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert other != first


def test_crawl_manifest_counts_what_was_written(tmp_path):
    manifest = inputs.write_crawl(tmp_path, 5, users=(60, 10))
    lines = (tmp_path / "tweets.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == manifest.lines
    assert manifest.malformed > 0 and manifest.chain_positions > 0
    assert sum(map(len, manifest.record_ids)) == manifest.flattened == len(manifest.gold)


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    plain = workloads.run("crawl-10x", 3, 0, False, tmp_path / "plain", scale=0.1)
    traced = workloads.run("crawl-10x", 3, 0, True, tmp_path / "traced", scale=0.1)
    assert plain.correct and traced.correct

    tracer = traced.tracer
    layers = sum(span.self_time for span in tracer.spans()[1:])
    # the recorded overhead, with a floor of 1% of the wall time for timer noise
    overhead = max(abs(tracer.root.total - plain.wall_s), 0.01 * tracer.root.total)
    assert abs(layers - tracer.root.total) <= overhead

    metrics = tracer.layer_metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics) | {"trace.wall_s"}
    assert metrics["corpus.skipped"] > 0
    assert metrics["corpus.tweets_out"] > metrics["corpus.records"]


def test_tracer_refuses_a_missing_function(monkeypatch):
    monkeypatch.setitem(tracing.INSTRUMENTED, "svm.gone", (("svm", "gone"),))
    train = svm.train
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        try:
            tracer.install()
        finally:
            tracer.uninstall()
    assert svm.train is train


def test_run_refuses_a_directory_without_the_pipeline(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-10x", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_sampler_times_itself_apart_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    start = time.perf_counter()
    with sampler:
        while sampler.ticks < 5:
            sum(range(1000))
    elapsed = time.perf_counter() - start
    ticks = sampler.ticks
    sampler._tick(signal.SIGALRM, None)   # a signal handled after the sampler stopped
    assert sampler.ticks == ticks
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < sampler.handler_s < elapsed
    assert sampler.slowdown > 0
    with pytest.raises(ValueError):
        speed.SpeedSampler().slowdown
