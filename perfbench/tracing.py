"""Spans around the pipeline's public functions, recorded in memory.

``Tracer.install`` replaces each instrumented function, in every
``tcm_stance`` module that binds it, with a wrapper that records a span:
name, start, end and the span that was open when it was called.  Calls of
hot per-document functions (``HOT``) are folded into one aggregate span per
name and parent, which keeps the overhead per call to two clock reads and a
few attribute updates.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time its child spans cover;
the self times of all spans under the root add up to the root's duration.

Observers read counts from call results (records read, documents kept,
solver epochs, ...).  A function that no longer exists makes ``install``
raise, and an observer that cannot read a result raises inside the traced
command, which then fails: a refactor of the program stops the traced run
rather than letting its metrics read 0.

``count_probes`` counts the segmenter's lexicon membership tests.  It slows
every test, so it runs apart from the timed, traced repetitions.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

PACKAGE = "tcm_stance"
MODULES = ("cli", "config", "corpus", "evaluation", "features", "preprocess", "reports",
           "resources", "supervision", "svm")

# span name -> (module, function); several functions may share one name
INSTRUMENTED: dict[str, tuple[tuple[str, str], ...]] = {
    "corpus.load_tweets": (("corpus", "load_tweets"),),
    "corpus.split_retweets": (("corpus", "split_retweets"),),
    "preprocess.preprocess_tweet": (("preprocess", "preprocess_tweet"),),
    "preprocess.to_simplified": (("preprocess", "to_simplified"),),
    "preprocess.strip_entities": (("preprocess", "strip_entities"),),
    "preprocess.segment": (("preprocess", "segment"),),
    "preprocess.remove_stopwords": (("preprocess", "remove_stopwords"),),
    "preprocess.write_documents": (("preprocess", "write_documents"),),
    "preprocess.read_documents": (("preprocess", "read_documents"),),
    "supervision.filter_topic": (("supervision", "filter_topic"),),
    "supervision.label_corpus": (("supervision", "label_corpus"),),
    "features.collect_stats": (("features", "collect_stats"),),
    "features.select_features": (("features", "select_features"),),
    "features.vectorize": (("features", "vectorize"),),
    "svm.train": (("svm", "train"),),
    "svm.predict": (("svm", "predict"),),
    "evaluation.sweep": (("evaluation", "sweep"),),
    "evaluation.cross_validate": (("evaluation", "cross_validate"),),
    "evaluation.stratified_kfold": (("evaluation", "stratified_kfold"),),
    "evaluation.adjust": (("evaluation", "adjust"),),
    "evaluation.compute_metrics": (("evaluation", "compute_metrics"),),
    "reports.timeseries": (("reports", "timeseries"),),
    "reports.chart": (("reports", "timeseries_chart"), ("reports", "sweep_chart")),
    "cli.read_predictions_tsv": (("cli", "read_predictions_tsv"),),
    "cli.write_predictions_tsv": (("cli", "write_predictions_tsv"),),
    "resources.load_resources": (("resources", "load_resources"),),
}

HOT = frozenset({
    "preprocess.preprocess_tweet", "preprocess.to_simplified", "preprocess.strip_entities",
    "preprocess.segment", "preprocess.remove_stopwords", "features.vectorize", "svm.predict",
})

# the per-layer metrics the benchmark reports: span self times, call counts
# and counters filled by the observers below
SELF_TIME_METRICS = (
    "corpus.load_tweets", "corpus.split_retweets",
    "preprocess.preprocess_tweet", "preprocess.to_simplified", "preprocess.strip_entities",
    "preprocess.segment", "preprocess.remove_stopwords", "preprocess.write_documents",
    "preprocess.read_documents",
    "supervision.filter_topic", "supervision.label_corpus",
    "features.collect_stats", "features.select_features", "features.vectorize",
    "svm.train", "svm.predict",
    "evaluation.cross_validate", "evaluation.stratified_kfold", "evaluation.adjust",
    "evaluation.compute_metrics",
    "reports.timeseries", "reports.chart",
    "cli.read_predictions_tsv", "cli.write_predictions_tsv",
    "resources.load_resources",
)
CALL_METRICS = (
    "features.collect_stats", "features.select_features", "features.vectorize",
    "svm.train", "svm.predict", "evaluation.adjust", "resources.load_resources",
)
COUNTERS = (
    "corpus.records", "corpus.skipped", "corpus.tweets_out",
    "preprocess.segment.probes", "preprocess.docs_kept", "preprocess.docs_dropped",
    "supervision.labeled", "supervision.remainder",
    "features.vocab_terms",
    "svm.epochs", "svm.epochs_max", "svm.unconverged_fits",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "total", "calls", "child_time", "hot", "kids")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0   # first start and last end of the calls it holds
        self.total = 0.0
        self.calls = 0
        self.child_time = 0.0
        self.hot: dict[str, Span] = {}
        self.kids: list[Span] = []

    @property
    def self_time(self) -> float:
        return self.total - self.child_time

    def walk(self):
        yield self
        for kid in self.kids:
            yield from kid.walk()
        for kid in self.hot.values():
            yield from kid.walk()


class Tracer:
    def __init__(self) -> None:
        self.root = Span("run", None)
        self.current = self.root
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, hot: bool) -> Span:
        parent = self.current
        if hot:
            span = parent.hot.get(name)
            if span is None:
                span = parent.hot[name] = Span(name, parent)
        else:
            span = Span(name, parent)
            parent.kids.append(span)
        self.current = span
        return span

    def _close(self, span: Span, start: float, end: float) -> None:
        elapsed = end - start
        if not span.calls:
            span.start = start
        span.end = end
        span.total += elapsed
        span.calls += 1
        self.current = span.parent
        span.parent.child_time += elapsed

    def call(self, name: str, fn: Callable, *args):
        """Run fn inside a span called name."""
        span = self._open(name, False)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span, start, time.perf_counter())

    def begin(self) -> None:
        self.root.start = time.perf_counter()

    def finish(self) -> None:
        self.root.end = time.perf_counter()
        self.root.total = self.root.end - self.root.start
        self.root.calls = 1

    # -- instrumentation -------------------------------------------------

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        tracer = self
        hot = name in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = tracer._open(name, hot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, start, clock())
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ``INSTRUMENTED`` function; raises if one is missing."""
        observers = self._observers()
        for name, targets in INSTRUMENTED.items():
            for module_name, attr in targets:
                self._patched += _replace(module_name, attr,
                                          lambda fn: self._wrap(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- observers ---------------------------------------------------------

    def _observers(self) -> dict[str, Callable]:
        counters = self.counters

        def load_tweets(result, args, kwargs):
            records, skipped = result
            counters["corpus.records"] += len(records)
            counters["corpus.skipped"] += skipped

        def split_retweets(result, args, kwargs):
            counters["corpus.tweets_out"] += len(result)

        def preprocess_tweet(result, args, kwargs):
            counters["preprocess.docs_dropped" if result is None else "preprocess.docs_kept"] += 1

        def label_corpus(result, args, kwargs):
            dataset, remainder = result
            counters["supervision.labeled"] += len(dataset.documents)
            counters["supervision.remainder"] += len(remainder)

        def collect_stats(result, args, kwargs):
            counters["features.vocab_terms"] = max(counters["features.vocab_terms"], len(result))

        def train(result, args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            meta = result.train_meta
            counters["svm.epochs"] += meta.epochs
            counters["svm.epochs_max"] = max(counters["svm.epochs_max"], meta.epochs)
            if meta.epochs >= cfg.max_epochs and not meta.final_violation < cfg.tolerance:
                counters["svm.unconverged_fits"] += 1

        return {
            "corpus.load_tweets": load_tweets,
            "corpus.split_retweets": split_retweets,
            "preprocess.preprocess_tweet": preprocess_tweet,
            "supervision.label_corpus": label_corpus,
            "features.collect_stats": collect_stats,
            "svm.train": train,
        }

    # -- results -----------------------------------------------------------

    def spans(self) -> list[Span]:
        return list(self.root.walk())

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name, call counts and counters, keyed by metric name."""
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans()[1:]:
            self_time[span.name] = self_time.get(span.name, 0.0) + span.self_time
            calls[span.name] = calls.get(span.name, 0) + span.calls
        metrics: dict[str, float] = {}
        for name in SELF_TIME_METRICS:
            metrics[f"{name}.s"] = self_time.get(name, 0.0)
        for name in CALL_METRICS:
            metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics.update(self.counters)
        return metrics

    def layer_table(self) -> list[dict]:
        """One row per span name: total and self seconds, calls."""
        rows: dict[str, dict] = {}
        for span in self.spans():
            row = rows.setdefault(span.name, {"name": span.name, "total_s": 0.0, "self_s": 0.0,
                                              "calls": 0})
            row["total_s"] += span.total
            row["self_s"] += span.self_time
            row["calls"] += span.calls
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def write(self, path: Path) -> None:
        """All spans, parents by index, as JSON."""
        spans = self.spans()
        index = {id(span): i for i, span in enumerate(spans)}
        out = [
            {
                "name": s.name,
                "parent": None if s.parent is None else index[id(s.parent)],
                "start": s.start - self.root.start,
                "end": s.end - self.root.start,
                "total": s.total,
                "self": s.self_time,
                "calls": s.calls,
            }
            for s in spans
        ]
        path.write_text(json.dumps({"spans": out, "counters": self.counters}, indent=1))


def _replace(module_name: str, attr: str, make: Callable[[Callable], Callable]
             ) -> list[tuple[Any, str, Any]]:
    """Bind make(fn) in place of ``module_name.attr`` in every pipeline module
    that binds fn; returns (module, key, original) per replacement."""
    modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
    original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
    replacement = make(original)
    patched = []
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                patched.append((module, key, original))
                setattr(module, key, replacement)
    return patched


def count_probes(run: Callable[[], object]) -> int:
    """Membership tests on the segmentation lexicon while run() runs.

    Every lexicon that ``load_resources`` returns is swapped for a copy of a
    subclass whose ``__contains__`` counts.
    """
    probes = 0

    def counting_load(load: Callable) -> Callable:
        def load_resources(*args, **kwargs):
            resources = load(*args, **kwargs)
            lexicon = resources.segment_lexicon
            base = type(lexicon)

            class Counting(base):
                def __contains__(self, term):
                    nonlocal probes
                    probes += 1
                    return base.__contains__(self, term)

            counting = object.__new__(Counting)
            counting.__dict__.update(vars(lexicon))
            return dataclasses.replace(resources, segment_lexicon=counting)
        return load_resources

    patched = _replace("resources", "load_resources", counting_load)
    try:
        run()
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)
    return probes
