"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style available (explicit
2x2 contingency tables, brute-force grid enumeration with numpy, a dual
solver that visits every example in every epoch, the shrinking solver as
first written, a fresh cross-validation per setting, a segmenter that
probes every length, a lexicon merged one list at a time, entity patterns
run on every text, timestamps parsed to ``datetime`` values and formatted
back, documents written through the JSON encoder, time buckets keyed by
their labels, the predict and adjust commands as list pipelines over
per-row objects) so that a mistake in these oracles is unlikely to
correlate with a mistake in the optimized code under test.
"""

from __future__ import annotations

import math
import random
import re
import unicodedata
from datetime import date, datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from tcm_stance.corpus import TIMESTAMP_FORMAT, format_timestamp, write_jsonl
from tcm_stance.evaluation import CVResult, Prediction, compute_metrics, stratified_kfold
from tcm_stance.features import collect_stats, load_feature_set, select_features, vectorize
from tcm_stance.preprocess import (
    _ASCII_EMOTICON_RE,
    _BRACKET_RE,
    _MENTION_RE,
    _PLATFORM_MARKERS,
    _URL_RE,
    _WS_RE,
    MAX_MATCH,
    Document,
    read_documents,
)
from tcm_stance.resources import CharMap, TermList
from tcm_stance.stance import Stance
from tcm_stance.supervision import LabeledDataset
from tcm_stance.svm import (
    DualSolution,
    Example,
    TrainConfig,
    _check_labels,
    _upper_bound,
    load_model,
    predict,
    train,
)


def chi2_from_table(a: int, b: int, c: int, d: int) -> float:
    """Chi-square of the 2x2 contingency table [[a, b], [c, d]]."""
    n = a + b + c + d
    den = (a + b) * (c + d) * (a + c) * (b + d)
    if den == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / den


def chi2_from_counts(df_pos: int, df_neg: int, n_pos: int, n_neg: int) -> float:
    """Same statistic from per-class document frequencies of one term."""
    return chi2_from_table(df_pos, df_neg, n_pos - df_pos, n_neg - df_neg)


def dual_matrix(points, labels, fit_bias: bool = True) -> np.ndarray:
    """Q[i][j] = y_i y_j <x_i, x_j>, with a constant 1 feature when fit_bias."""
    xs = np.asarray(points, dtype=float)
    if fit_bias:
        xs = np.hstack([xs, np.ones((xs.shape[0], 1))])
    ys = np.asarray(labels, dtype=float)
    return (xs @ xs.T) * np.outer(ys, ys)


def dual_value(q: np.ndarray, alphas) -> float:
    a = np.asarray(alphas, dtype=float)
    return float(0.5 * a @ q @ a - a.sum())


def upper_bounds(labels, c: float, wi: float) -> np.ndarray:
    """Per-example alpha caps: C * wi for the +1 class, C for the -1 class."""
    return np.where(np.asarray(labels) > 0, c * wi, c)


def grid_min_dual(points, labels, c: float, wi: float, step: float,
                  fit_bias: bool = True) -> float:
    """Minimum dual value over the full alpha lattice with the given step.

    The lattice has U_i/step + 1 nodes per coordinate, so keep c/step small
    enough that (c/step + 1) ** len(points) stays a few million at most.
    """
    q = dual_matrix(points, labels, fit_bias=fit_bias)
    axes = [np.arange(0.0, u + step * 0.5, step) for u in upper_bounds(labels, c, wi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    a = np.stack([m.ravel() for m in mesh], axis=1)
    vals = 0.5 * np.einsum("ni,ij,nj->n", a, q, a) - a.sum(axis=1)
    return float(vals.min())


def reference_solve_dual(
    data: Sequence[Example],
    cfg: TrainConfig,
    n_features: int,
    *,
    fit_bias: bool = True,
) -> DualSolution:
    """Plain dual coordinate descent: every epoch visits every example in a
    seeded random order, until an epoch's largest projected-gradient
    violation is under the tolerance or max_epochs have run."""
    if not data:
        raise ValueError("empty training set")
    _check_labels(data)

    bias_index = n_features
    idx_rows: list[list[int]] = []
    val_rows: list[list[float] | None] = []  # None marks the all-ones fast path
    q_diag: list[float] = []
    for vec, _y in data:
        if vec.indices and (vec.indices[-1] >= n_features):
            raise ValueError("vector index out of range for n_features")
        idx = list(vec.indices)
        vals = list(vec.values)
        if fit_bias:
            idx.append(bias_index)
            vals.append(1.0)
        idx_rows.append(idx)
        if all(v == 1.0 for v in vals):
            val_rows.append(None)
            q_diag.append(float(len(idx)))
        else:
            val_rows.append(vals)
            q_diag.append(math.fsum(v * v for v in vals))

    ys = [float(y) for _, y in data]
    uppers = [_upper_bound(y, cfg) for _, y in data]
    alphas = [0.0] * len(data)
    w = [0.0] * (n_features + 1)

    rng = random.Random(cfg.seed)
    order = list(range(len(data)))
    epochs_run = 0
    violation = math.inf
    for _ in range(cfg.max_epochs):
        epochs_run += 1
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            idx = idx_rows[i]
            vals = val_rows[i]
            y = ys[i]
            if vals is None:
                s = 0.0
                for j in idx:
                    s += w[j]
            else:
                s = 0.0
                for j, v in zip(idx, vals):
                    s += w[j] * v
            g = y * s - 1.0
            if g != g:
                raise FloatingPointError("non-finite gradient during training")
            a = alphas[i]
            u = uppers[i]
            if a <= 0.0:
                pg = g if g < 0.0 else 0.0
            elif a >= u:
                pg = g if g > 0.0 else 0.0
            else:
                pg = g
            if pg != 0.0:
                apg = -pg if pg < 0.0 else pg
                if apg > max_violation:
                    max_violation = apg
                q = q_diag[i]
                if q > 0.0:
                    new_a = a - g / q
                else:
                    # zero-norm row: any alpha leaves w unchanged, jump to the
                    # bound the gradient points at so the violation clears
                    new_a = u if g < 0.0 else 0.0
                if new_a < 0.0:
                    new_a = 0.0
                elif new_a > u:
                    new_a = u
                if new_a != a:
                    delta = (new_a - a) * y
                    if vals is None:
                        for j in idx:
                            w[j] += delta
                    else:
                        for j, v in zip(idx, vals):
                            w[j] += delta * v
                    alphas[i] = new_a
        violation = max_violation
        if max_violation < cfg.tolerance:
            break

    if not all(map(math.isfinite, w)):
        raise FloatingPointError("training produced non-finite weights")
    return DualSolution(tuple(w), tuple(alphas), epochs_run, violation)


def _reference_max_violation(rows, alphas, w) -> float:
    """Largest |projected gradient| over every example, at the given w."""
    worst = 0.0
    margins: dict[int, float] = {}
    for row, a in zip(rows, alphas):
        idx, vals, y, u, _q = row
        s = margins.get(id(row))
        if s is None:
            s = 0.0
            if vals is None:
                for j in idx:
                    s += w[j]
            else:
                for j, v in zip(idx, vals):
                    s += w[j] * v
            margins[id(row)] = s
        g = y * s - 1.0
        # the projected gradient is 0 where g points out of the box
        if a <= 0.0:
            if g > 0.0:
                continue
        elif a >= u:
            if g < 0.0:
                continue
        if g < 0.0:
            g = -g
        if g > worst:
            worst = g
    return worst


def reference_shrinking_solve_dual(
    data: Sequence[Example],
    cfg: TrainConfig,
    n_features: int,
    *,
    fit_bias: bool = True,
) -> DualSolution:
    """The shrinking solver as first written: every row holds the bias slot
    as a column, each kept example is appended to a list on every visit,
    and the passes draw their orders with the library's shuffle.  An
    example at a bound shrinks when its gradient points out of the box past
    the threshold or, in a shrinking pass (finite threshold), is exactly 0.
    Its iterates, and so its whole DualSolution, are what ``solve_dual``
    must reproduce bit for bit."""
    if not data:
        raise ValueError("empty training set")
    _check_labels(data)

    bias_index = n_features
    # one (label, cap) pair of floats per class, shared by all of its rows
    label_cap = {y: (float(y), _upper_bound(y, cfg)) for y in (1, -1)}
    distinct: dict[tuple, tuple] = {}
    rows: list[tuple] = []
    for vec, y in data:
        key = (vec.indices, vec.values, y)
        row = distinct.get(key)
        if row is None:
            if vec.indices and (vec.indices[-1] >= n_features):
                raise ValueError("vector index out of range for n_features")
            idx = list(vec.indices)
            vals = list(vec.values)
            if fit_bias:
                idx.append(bias_index)
                vals.append(1.0)
            if all(v == 1.0 for v in vals):
                row = (idx, None, *label_cap[y], len(idx))
            else:
                row = (idx, vals, *label_cap[y], math.fsum(v * v for v in vals))
            distinct[key] = row
        rows.append(row)

    n = len(data)
    alphas = [0.0] * n
    w = [0.0] * (n_features + 1)

    rng = random.Random(cfg.seed)
    order = list(range(n))  # order[:active] is the active set
    active = n
    threshold = math.inf    # shrink past this out-of-box gradient
    budget = cfg.max_epochs * n
    visits = 0
    while True:
        if budget - visits - active < n:
            # no full pass would fit after a shrunk one: make this the full one
            active, threshold = n, math.inf
        full = active == n
        prefix = order[:active]
        rng.shuffle(prefix)
        kept: list[int] = []
        shrunk: list[int] = []
        keep = kept.append
        max_violation = 0.0
        for i in prefix:
            idx, vals, y, u, q = rows[i]
            if vals is None:
                s = 0.0
                for j in idx:
                    s += w[j]
            else:
                s = 0.0
                for j, v in zip(idx, vals):
                    s += w[j] * v
            g = y * s - 1.0
            if g != g:
                raise FloatingPointError("non-finite gradient during training")
            a = alphas[i]
            if a <= 0.0:
                if g > threshold or (g == 0.0 and threshold < math.inf):
                    shrunk.append(i)
                    continue
                pg = g if g < 0.0 else 0.0
            elif a >= u:
                if -g > threshold or (g == 0.0 and threshold < math.inf):
                    shrunk.append(i)
                    continue
                pg = g if g > 0.0 else 0.0
            else:
                pg = g
            keep(i)
            if pg != 0.0:
                apg = -pg if pg < 0.0 else pg
                if apg > max_violation:
                    max_violation = apg
                if q > 0.0:
                    new_a = a - g / q
                else:
                    # zero-norm row: any alpha leaves w unchanged, jump to the
                    # bound the gradient points at so the violation clears
                    new_a = u if g < 0.0 else 0.0
                if new_a < 0.0:
                    new_a = 0.0
                elif new_a > u:
                    new_a = u
                if new_a != a:
                    delta = (new_a - a) * y
                    if vals is None:
                        for j in idx:
                            w[j] += delta
                    else:
                        for j, v in zip(idx, vals):
                            w[j] += delta * v
                    alphas[i] = new_a
        visits += active
        order[:active] = kept + shrunk
        active, threshold = len(kept), max_violation
        if max_violation < cfg.tolerance and not full:
            active, threshold = n, math.inf  # confirm on every example
            continue
        at_cap = budget - visits < n
        if max_violation < cfg.tolerance or at_cap:
            violation = _reference_max_violation(rows, alphas, w)
            if violation < cfg.tolerance or at_cap:
                break

    if not all(map(math.isfinite, w)):
        raise FloatingPointError("training produced non-finite weights")
    return DualSolution(tuple(w), tuple(alphas), -(-visits // n), violation)


def reference_cross_validate(dataset: LabeledDataset, feature_count: int, cfg: TrainConfig,
                             k: int, seed: int, leaky_selection: bool = False) -> CVResult:
    """k-fold CV that rebuilds the splits and selects top-K features afresh
    on every training fold (or once on the whole dataset when leaky)."""
    docs = dataset.documents
    splits = stratified_kfold(dataset, k, seed)
    whole = select_features(collect_stats(dataset), feature_count) if leaky_selection else None
    predictions, pairs, golds, fits = [], [], {}, []
    for train_idx, test_idx in splits:
        train_docs = tuple(docs[i] for i in train_idx)
        fs = whole if leaky_selection else select_features(
            collect_stats(LabeledDataset(train_docs)), feature_count)
        data = [(vectorize(d, fs), 1 if d.label is Stance.SUPPORTING else -1)
                for d in train_docs]
        model = train(data, cfg, n_features=len(fs))
        fits.append(model.train_meta)
        for i in test_idx:
            stance, _margin = predict(model, vectorize(docs[i], fs))
            predictions.append(Prediction(docs[i].user_id, docs[i].tweet_id, stance))
            pairs.append((docs[i].label, stance))
            golds[docs[i].tweet_id] = docs[i].label
    return CVResult(compute_metrics(pairs), tuple(predictions), golds, tuple(fits))


def reference_segment(text: str, lexicon: TermList) -> list[str]:
    """Forward maximum matching that probes every length from the longest
    lexicon entry (capped at MAX_MATCH) down to 2 at every position."""
    tokens: list[str] = []
    i, n = 0, len(text)
    limit_cap = min(MAX_MATCH, max(map(len, lexicon), default=0))
    while i < n:
        match = None
        # length-1 lookups are skipped: a single-char lexicon hit and the
        # fallback emit the same token either way
        for length in range(min(limit_cap, n - i), 1, -1):
            cand = text[i:i + length]
            if cand in lexicon:
                match = cand
                break
        if match is None:
            match = text[i]
        tokens.append(match)
        i += len(match)
    return tokens


def reference_union(first: TermList, *others: Iterable[str]) -> TermList:
    """Append each list's new terms to ``first`` in turn, one TermList per
    list, as ``load_resources`` once merged the segmentation lexicon."""
    merged = first
    for other in others:
        terms = dict.fromkeys(merged.terms)
        for term in other:
            terms.setdefault(term, None)
        merged = TermList(tuple(terms))
    return merged


_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")


def reference_parse_timestamp(value: object) -> datetime:
    """TIMESTAMP_FORMAT read to a ``datetime``: the zero-padded ASCII form by
    ``fromisoformat``, anything else by ``strptime``."""
    if not isinstance(value, str):
        raise ValueError("created_at must be a string")
    if _CANONICAL_TIMESTAMP.fullmatch(value):
        return datetime.fromisoformat(value)
    return datetime.strptime(value, TIMESTAMP_FORMAT)


def reference_strip_entities(text: str) -> str:
    """Every entity pattern and marker removed from every text, in order."""
    text = _URL_RE.sub("", text)
    text = _MENTION_RE.sub("", text)
    text = _BRACKET_RE.sub("", text)
    text = _ASCII_EMOTICON_RE.sub("", text)
    for marker in _PLATFORM_MARKERS:
        text = text.replace(marker, "")
    return _WS_RE.sub(" ", text).strip()


def document_to_obj(doc: Document) -> dict:
    """A document as the JSON object of its line in a documents file."""
    obj: dict = {
        "tweet_id": doc.tweet_id,
        "user_id": doc.user_id,
        "created_at": doc.created_at,
        "tokens": list(doc.tokens),
    }
    if doc.label is not None:
        obj["label"] = doc.label.wire
    return obj


def reference_write_documents(path, docs: Iterable[Document]) -> None:
    """Each document's object through the package's compact JSONL writer."""
    write_jsonl(path, map(document_to_obj, docs))


def reference_to_simplified(text: str, char_map: CharMap) -> str:
    """Character-by-character map lookup."""
    return "".join(char_map.get(ch, ch) for ch in text)


def reference_is_noise_token(token: str) -> bool:
    # pure punctuation/symbols or pure whitespace (incl. control chars)
    return all(unicodedata.category(ch)[0] in "PSZC" for ch in token)


def reference_remove_stopwords(tokens: Iterable[str], stoplist: TermList) -> list[str]:
    """Stopword and noise test made afresh for every token."""
    return [t for t in tokens if t not in stoplist and not reference_is_noise_token(t)]


def _bucket_key(ts: datetime, granularity: str) -> str:
    # zero-padded like _iter_periods' keys, years below 1000 included
    if granularity == "month":
        return f"{ts.year:04d}-{ts.month:02d}"
    return ts.date().isoformat()


def _iter_periods(first: str, last: str, granularity: str) -> list[str]:
    """All period keys from first to last inclusive, gaps included."""
    if granularity == "month":
        start = datetime.strptime(first, "%Y-%m")
        end = datetime.strptime(last, "%Y-%m")
        months = []
        m = start.year * 12 + start.month - 1
        stop = end.year * 12 + end.month - 1
        while m <= stop:
            year, month = divmod(m, 12)
            months.append(f"{year:04d}-{month + 1:02d}")
            m += 1
        return months
    start_d = date.fromisoformat(first)
    end_d = date.fromisoformat(last)
    # steps only while short of the last day, which may be 9999-12-31
    days = [start_d.isoformat()]
    cur = start_d
    while cur < end_d:
        cur += timedelta(days=1)
        days.append(cur.isoformat())
    return days


def reference_timeseries(items: Iterable[tuple[datetime, Stance]],
                         granularity: str) -> list[tuple[str, int, int]]:
    """(period, support, oppose) per period: counted under string labels,
    which sort in time order, then every label walked by calendar."""
    counts: dict[str, list[int]] = {}
    for ts, stance in items:
        slot = 0 if stance is Stance.SUPPORTING else 1
        counts.setdefault(_bucket_key(ts, granularity), [0, 0])[slot] += 1
    if not counts:
        return []
    keys = sorted(counts)
    return [(period, *counts.get(period, [0, 0]))
            for period in _iter_periods(keys[0], keys[-1], granularity)]


# ---------------------------------------------------------------------------
# predictions TSV commands: every row read into a list, then processed

def reference_write_predictions(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tweet_id, user_id, created_at, stance, margin in rows:
            fh.write(f"{tweet_id}\t{user_id}\t{format_timestamp(created_at)}\t"
                     f"{stance.wire}\t{margin:.6f}\n")


def reference_read_predictions(path) -> list[tuple]:
    """Every row of a predictions TSV; errors name the file and line."""
    rows = []
    with open(path, encoding="utf-8-sig", newline="\n") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.removesuffix("\n").removesuffix("\r").split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields")
            try:
                rows.append((parts[0], parts[1], reference_parse_timestamp(parts[2]),
                             Stance.from_wire(parts[3]), float(parts[4])))
                if not math.isfinite(rows[-1][4]):
                    raise ValueError("margin must be a finite number")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def reference_predict(docs_path, model_path, features_path, out_path) -> None:
    """Read every document, then per document: check the digest, build the
    set of its feature columns, check the largest against the model, add
    w[j] * 1.0 per column to the bias, and keep a row; write the rows last."""
    model = load_model(model_path)
    features = load_feature_set(features_path)
    digest = features.digest()
    weights = model.weights
    rows = []
    for doc in read_documents(docs_path):
        if digest != model.feature_set_digest:
            raise ValueError("feature set digest mismatch between model and vectorizer")
        cols = sorted({features.index[t] for t in doc.tokens if t in features.index})
        if cols and cols[-1] >= len(weights) - 1:
            raise ValueError("vector index out of range for this model")
        margin = weights[-1]
        for j in cols:
            margin += weights[j] * 1.0
        stance = Stance.OPPOSING if margin < 0.0 else Stance.SUPPORTING
        rows.append((doc.tweet_id, doc.user_id, reference_parse_timestamp(doc.created_at),
                     stance, margin))
    reference_write_predictions(out_path, rows)


def reference_adjust(predictions_path, out_path, gamma_min: float) -> None:
    """Every row as a Prediction; a user with a strict majority whose share
    reaches gamma_min gets it on every row."""
    rows = reference_read_predictions(predictions_path)
    predictions = [Prediction(user_id, tweet_id, stance)
                   for tweet_id, user_id, _, stance, _ in rows]
    votes: dict[str, list[Stance]] = {}
    for p in predictions:
        votes.setdefault(p.user_id, []).append(p.stance)
    adjusted = []
    for p in predictions:
        n_support = votes[p.user_id].count(Stance.SUPPORTING)
        n_oppose = len(votes[p.user_id]) - n_support
        share = max(n_support, n_oppose) / len(votes[p.user_id])
        if n_support != n_oppose and share >= gamma_min:
            majority = Stance.SUPPORTING if n_support > n_oppose else Stance.OPPOSING
            p = Prediction(p.user_id, p.tweet_id, majority)
        adjusted.append(p)
    reference_write_predictions(out_path, [
        (tweet_id, user_id, created_at, p.stance, margin)
        for (tweet_id, user_id, created_at, _, margin), p in zip(rows, adjusted)])
