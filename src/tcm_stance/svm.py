"""Class-weighted linear SVM trained by dual coordinate descent.

The trainer solves the L1-loss (hinge) dual

    min_a  1/2 * sum_ij a_i a_j y_i y_j <x_i, x_j>  -  sum_i a_i
    s.t.   0 <= a_i <= C_i

one coordinate at a time.  The bias is folded into the weight vector by
augmenting every example with a constant feature of value 1, which removes
the usual sum(a_i y_i) = 0 equality constraint and leaves pure box
constraints.  Supporting (majority class, y = +1) examples get cost
C_i = C * wi with wi in (0, 1]; opposing examples keep C_i = C.  Lowering wi
makes majority-side mistakes cheaper, pushing the decision boundary so that
more points are called opposing.

Each coordinate step moves a_i to the box-clipped minimizer along its axis:
with G = y_i <w, x_i> - 1 and Q_ii = <x_i, x_i>, the new value is
clip(a_i - G / Q_ii, 0, C_i), and w is updated incrementally.

Passes shrink the problem (Hsieh et al., ICML 2008, Alg. 3; LIBLINEAR).
Each pass visits the active examples in the order that
random.Random(seed).shuffle would draw; ``shuffle`` computes that
permutation here, so the order does not depend on CPython's shuffle
implementation.  An example leaves the active set when it sits at a bound
(a_i = 0 or a_i = C_i) and its gradient points out of the box by more than
the largest violation of the previous pass.  When a pass over the active
set comes in under the tolerance, the next pass runs over every example,
with no shrinking; training stops only when such a full pass comes in under
the tolerance and the largest |projected gradient| over every example,
recomputed from the final w, is under it too.  max_epochs caps the work at
max_epochs * n coordinate visits, and the last pass before the cap always
runs over every example.  The reported epochs are visits / n rounded up,
and the reported violation is always the recomputed one, so it is under the
tolerance exactly when the fit converged.

A visit is kept cheap without changing any iterate.  The bias weight lives
in a local float, written back to its slot before each final check, and a
row holds its columns without the bias slot.  A presence row's margin is
then the bias alone (no column), w[j] plus the bias (one column), or the
columns added left to right plus the bias: the same float additions in the
same order as adding the bias slot as a last column, minus a leading
``0.0 +``.  That term changes nothing, because no weight is ever -0.0: each
starts at +0.0, and a sum is -0.0 only when both terms are.  Rows with
values add the bias the same way (``b * 1.0`` is ``b``); with fit_bias off
every row is one with values and no bias, presence rows included
(``w[j] * 1.0`` is ``w[j]``).  Updates write the same deltas to the same
slots.  A visit whose gradient is 0 stops after one comparison, and a pass
records only the examples it shrinks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path
from typing import Any, Iterable, Sequence

from .corpus import check_id
from .features import SparseVector
from .resources import located
from .stance import Stance

_MODEL_HEADER = "stance-svm v2"
# header key -> parser of its value, in file order; a digest follows the
# documents id rule, or is empty when the model is tied to no feature file
_MODEL_VALUES = {"K": int, "C": float, "wi": float, "seed": int,
                 "digest": lambda text: text and check_id("digest", text),
                 "epochs": int, "violation": float}


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    wi: float = 0.9
    tolerance: float = 1e-4
    max_epochs: int = 1000
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError("C must be positive")
        if not 0 < self.wi <= 1:
            raise ValueError("wi must be in (0, 1]")
        if not self.C * self.wi > 0:
            raise ValueError("C * wi underflows to 0")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")


@dataclass(frozen=True)
class TrainMeta:
    C: float
    wi: float
    seed: int
    epochs: int
    final_violation: float


@dataclass(frozen=True, eq=False)
class Model:
    """Trained weights; the last slot is the bias. Immutable and shareable."""

    weights: tuple[float, ...]
    feature_set_digest: str
    train_meta: TrainMeta

    @property
    def n_features(self) -> int:
        return len(self.weights) - 1


def _upper_bound(y: int, cfg: TrainConfig) -> float:
    return cfg.C * cfg.wi if y > 0 else cfg.C


Example = tuple[SparseVector, int]


def _check_labels(data: Sequence[Example]) -> None:
    labels = {y for _, y in data}
    if not labels <= {1, -1}:
        raise ValueError("labels must be +1 or -1")
    if labels != {1, -1}:
        raise ValueError("training data must contain both classes")


@dataclass(frozen=True)
class DualSolution:
    """Raw solver state: weights (bias slot last), alphas, convergence info."""

    weights: tuple[float, ...]
    alphas: tuple[float, ...]
    epochs: int
    final_violation: float


# One training example as the solver holds it, read-only and shared by equal
# examples: (kind, columns, values, label, alpha cap, Q_ii).  The kind says
# how its margin is added, always left to right and with the bias last:
#   0  the bias alone (columns and values unused)
#   1  one presence column, held as the int itself, then the bias
#   2  several presence columns, then the bias
#   3  columns with values, then the bias
#   4  columns with values and no bias (fit_bias off)
_Row = tuple[int, int | tuple[int, ...], tuple[float, ...] | None, float, float, float]


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place into the permutation ``rng.shuffle(x)`` would give,
    leaving rng in the same state.

    It is the same Fisher-Yates pass, drawing j uniform on [0, i] for i from
    len(x) - 1 down to 1, by the same rejection rule: draw
    getrandbits((i + 1).bit_length()) until the draw is at most i.  The pass
    runs in bands of equal bit length, so each draw is one bound-method call
    instead of two Python-level calls per element.
    """
    getrandbits = rng.getrandbits
    hi = len(x) - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        lo = (1 << (k - 1)) - 1  # the smallest i with (i + 1).bit_length() == k
        for i in range(hi, lo - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        hi = lo - 1


def _margin(row: _Row, w: list[float], b: float) -> float:
    """<w, x> of a row, bias b included, added as the pass adds it."""
    kind, cols, vals = row[:3]
    if kind == 0:
        return b
    if kind == 1:
        return w[cols] + b
    s = 0.0
    if kind == 2:
        for j in cols:
            s += w[j]
        return s + b
    for j, v in zip(cols, vals):
        s += w[j] * v
    return s + b if kind == 3 else s


def _max_violation(rows: list[_Row], alphas: list[float], w: list[float]) -> float:
    """Largest |projected gradient| over every example, at the given w (bias
    slot last).  A shared row's margin is computed once, added left to right
    as the pass adds it (``sum`` of floats is compensated from Python 3.12
    on)."""
    b = w[-1]
    worst = 0.0
    margins: dict[int, float] = {}
    for row, a in zip(rows, alphas):
        s = margins.get(id(row))
        if s is None:
            s = margins[id(row)] = _margin(row, w, b)
        y, u = row[3], row[4]
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


def solve_dual(
    data: Sequence[Example],
    cfg: TrainConfig,
    n_features: int,
    *,
    fit_bias: bool = True,
) -> DualSolution:
    """Run dual coordinate descent on (vector, label) pairs.

    Equal (indices, values, label) examples share one read-only solver row;
    each keeps its own alpha, so sharing changes no iterate.  The index range
    is checked once per distinct row.

    With fit_bias off the bias slot is kept but stays 0.0, which is what the
    closed-form small cases used in tests assume.
    """
    if not data:
        raise ValueError("empty training set")
    _check_labels(data)

    # one (label, cap) pair of floats per class, shared by all of its rows
    label_cap = {y: (float(y), _upper_bound(y, cfg)) for y in (1, -1)}
    distinct: dict[tuple, _Row] = {}
    rows: list[_Row] = []
    for vec, y in data:
        key = (vec.indices, vec.values, y)
        row = distinct.get(key)
        if row is None:
            if vec.indices and (vec.indices[-1] >= n_features):
                raise ValueError("vector index out of range for n_features")
            cols, vals = vec.indices, vec.values
            if not fit_bias:
                row = (4, cols, vals, *label_cap[y], math.fsum(v * v for v in vals))
            elif vals.count(1.0) == len(vals):
                kind = min(len(cols), 2)
                row = (kind, cols[0] if kind == 1 else cols, None, *label_cap[y], len(cols) + 1)
            else:
                row = (3, cols, vals, *label_cap[y], math.fsum([1.0, *(v * v for v in vals)]))
            distinct[key] = row
        rows.append(row)

    n = len(data)
    alphas = [0.0] * n
    w = [0.0] * (n_features + 1)
    b = 0.0  # the bias weight, written back to w[n_features] for each check

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
        shuffle(rng, prefix)
        shrunk: list[int] = []
        shrink = shrunk.append
        max_violation = 0.0
        for i in prefix:
            kind, cols, vals, y, u, q = rows[i]
            if kind == 0:
                s = b
            elif kind == 1:
                s = w[cols] + b
            elif kind == 2:
                s = 0.0
                for j in cols:
                    s += w[j]
                s += b
            else:
                s = 0.0
                for j, v in zip(cols, vals):
                    s += w[j] * v
                if kind == 3:
                    s += b
            # g = y * s - 1.0 is exactly 0.0 when s == y (y is +-1.0): such
            # a visit moves nothing, so it is skipped before g is computed;
            # a NaN margin is unequal to y and reaches the check below
            if s == y:
                continue
            g = y * s - 1.0
            if g != g:
                raise FloatingPointError("non-finite gradient during training")
            # pg, the |projected gradient|, is 0 where g points out of the
            # box: such a visit moves nothing, and it shrinks when g points
            # out by more than the threshold
            a = alphas[i]
            if a <= 0.0:
                if g > 0.0:
                    if g > threshold:
                        shrink(i)
                    continue
                pg = -g
            elif a >= u:
                if g < 0.0:
                    if -g > threshold:
                        shrink(i)
                    continue
                pg = g
            else:
                pg = g if g > 0.0 else -g
            if pg > max_violation:
                max_violation = pg
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
                if kind == 0:
                    b += delta
                elif kind == 1:
                    w[cols] += delta
                    b += delta
                elif kind == 2:
                    for j in cols:
                        w[j] += delta
                    b += delta
                else:
                    for j, v in zip(cols, vals):
                        w[j] += delta * v
                    if kind == 3:
                        b += delta
                alphas[i] = new_a
        visits += active
        # the kept examples in pass order, then the shrunk ones
        if shrunk:
            order[:active] = [*filterfalse(set(shrunk).__contains__, prefix), *shrunk]
        else:
            order[:active] = prefix
        active, threshold = active - len(shrunk), max_violation
        if max_violation < cfg.tolerance and not full:
            active, threshold = n, math.inf  # confirm on every example
            continue
        at_cap = budget - visits < n
        if max_violation < cfg.tolerance or at_cap:
            w[n_features] = b
            violation = _max_violation(rows, alphas, w)
            if violation < cfg.tolerance or at_cap:
                break

    if not all(map(math.isfinite, w)):
        raise FloatingPointError("training produced non-finite weights")
    return DualSolution(tuple(w), tuple(alphas), -(-visits // n), violation)


def train(
    data: Sequence[Example],
    cfg: TrainConfig,
    n_features: int,
    *,
    feature_set_digest: str = "",
) -> Model:
    """Fit a model on (vector, label) pairs of dimension ``n_features``."""
    sol = solve_dual(data, cfg, n_features)
    meta = TrainMeta(cfg.C, cfg.wi, cfg.seed, sol.epochs, sol.final_violation)
    return Model(sol.weights, feature_set_digest, meta)


def check_columns(model: Model, digest: str | None, n_columns: int) -> None:
    """Refuse vectors built from another feature set than the model's (when
    a digest is given) or with a column at or past its n_features; n_columns
    is one more than the largest column."""
    if digest is not None and digest != model.feature_set_digest:
        raise ValueError("feature set digest mismatch between model and vectorizer")
    if n_columns > model.n_features:
        raise ValueError("vector index out of range for this model")


def score(
    weights: Sequence[float], indices: Iterable[int], values: Iterable[float] | None = None
) -> tuple[Stance, float]:
    """Stance and margin of a vector: the bias plus w[j] * v per entry, added
    in index order; a margin of exactly 0 goes to supporting.  Without
    values the vector is a presence vector, whose w[j] * 1.0 is w[j].  The
    indices are not checked (``check_columns``)."""
    margin = weights[-1]
    if values is None:
        for j in indices:
            margin += weights[j]
    else:
        for j, v in zip(indices, values):
            margin += weights[j] * v
    return (Stance.OPPOSING if margin < 0.0 else Stance.SUPPORTING), margin


def predict(
    model: Model,
    x: SparseVector,
    *,
    expected_digest: str | None = None,
) -> tuple[Stance, float]:
    """Margin-sign classification of one checked vector (``score``)."""
    check_columns(model, expected_digest, x.indices[-1] + 1 if x.indices else 0)
    return score(model.weights, x.indices, x.values)


def dual_objective(
    data: Sequence[Example],
    alphas: Sequence[float],
    cfg: TrainConfig,
    *,
    fit_bias: bool = True,
) -> float:
    """Standard dual value 1/2 ||w(a)||^2 - sum(a); alphas must sit in the box."""
    if len(alphas) != len(data):
        raise ValueError("one alpha per example required")
    _check_labels(data)
    for a, (_x, y) in zip(alphas, data):
        if a < 0.0 or a > _upper_bound(y, cfg):
            raise ValueError("alpha outside the feasible box")
    acc: dict[int, float] = {}
    bias_key = -1  # cannot collide with real feature indices
    for (vec, y), a in zip(data, alphas):
        coef = a * y
        if coef == 0.0:
            continue
        for j, v in zip(vec.indices, vec.values):
            acc[j] = acc.get(j, 0.0) + coef * v
        if fit_bias:
            acc[bias_key] = acc.get(bias_key, 0.0) + coef
    sq = math.fsum(v * v for v in acc.values())
    return 0.5 * sq - math.fsum(alphas)


# ---------------------------------------------------------------------------
# model file: header, K/C/wi/seed/digest/epochs/violation lines, then K+1 weights

def save_model(path: str | Path, model: Model) -> None:
    meta = model.train_meta
    lines = [
        _MODEL_HEADER,
        f"K {model.n_features}",
        f"C {meta.C:.17g}",
        f"wi {meta.wi:.17g}",
        f"seed {meta.seed}",
        f"digest {model.feature_set_digest}",
        f"epochs {meta.epochs}",
        f"violation {meta.final_violation:.17g}",
    ]
    lines.extend(f"{w:.17g}" for w in model.weights)
    Path(path).write_text("".join(l + "\n" for l in lines), encoding="utf-8", newline="\n")


def _header_value(line: str, key: str) -> str:
    prefix = key + " "
    if not line.startswith(prefix):
        raise ValueError(f"expected '{key} ...' line, got {line!r}")
    return line[len(prefix):]


def load_model(path: str | Path) -> Model:
    """Read a model file that save_model wrote.  Every error names the file,
    and the line unless the file is empty."""
    with located(path) as lines:
        rows = iter(lines)
        header = next(rows, "")
        if header != _MODEL_HEADER:
            raise ValueError(f"not a model file (bad header {header!r})")
        head: dict[str, Any] = {}
        for key, line in zip(_MODEL_VALUES, rows):
            value = head[key] = _MODEL_VALUES[key](_header_value(line, key))
            if key in ("K", "epochs", "violation") and not value >= 0:  # nan too
                raise ValueError(f"{key} must be >= 0")
            if key == "wi":  # C and wi are held to TrainConfig's own checks
                TrainConfig(head["C"], value)
        weights: list[float] = []
        for line in rows:  # none left when a key line is missing
            if len(weights) > head["K"]:
                raise ValueError(f"expected {head['K'] + 1} weights, found more")
            weight = float(line)
            if not math.isfinite(weight):
                raise ValueError(f"non-finite weight {line!r}")
            weights.append(weight)
        if not weights:
            raise ValueError("model file truncated")
        if len(weights) != head["K"] + 1:
            raise ValueError(f"expected {head['K'] + 1} weights, found {len(weights)}")
    meta = TrainMeta(head["C"], head["wi"], head["seed"], head["epochs"], head["violation"])
    return Model(tuple(weights), head["digest"], meta)
