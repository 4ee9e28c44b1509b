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
random.Random(seed).shuffle would draw; ``_shuffle`` computes that
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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .features import SparseVector
from .resources import read_lines
from .stance import Stance

_MODEL_HEADER = "stance-svm v2"
# header line -> the "key value" lines that follow it, in file order
_MODEL_KEYS = {
    "stance-svm v1": ("K", "C", "wi", "seed", "digest"),
    _MODEL_HEADER: ("K", "C", "wi", "seed", "digest", "epochs", "violation"),
}


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

    @property
    def bias(self) -> float:
        return self.weights[-1]


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


# one training example as the solver holds it, read-only and shared by equal
# examples: indices (bias slot included), values (None marks the all-ones
# fast path), label, alpha cap and Q_ii
_Row = tuple[list[int], list[float] | None, float, float, float]


def _shuffle(rng: random.Random, x: list) -> None:
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


def _max_violation(rows: list[_Row], alphas: list[float], w: list[float]) -> float:
    """Largest |projected gradient| over every example, at the given w.
    A shared row's margin is computed once."""
    worst = 0.0
    margins: dict[int, float] = {}
    for row, a in zip(rows, alphas):
        idx, vals, y, u, _q = row
        s = margins.get(id(row))
        if s is None:
            if vals is None:
                s = sum(w[j] for j in idx)
            else:
                s = sum(w[j] * v for j, v in zip(idx, vals))
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

    bias_index = n_features
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
        _shuffle(rng, prefix)
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
                if g > threshold:
                    shrunk.append(i)
                    continue
                pg = g if g < 0.0 else 0.0
            elif a >= u:
                if -g > threshold:
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
    fit_bias: bool = True,
) -> Model:
    """Fit a model on (vector, label) pairs of dimension ``n_features``."""
    sol = solve_dual(data, cfg, n_features, fit_bias=fit_bias)
    meta = TrainMeta(cfg.C, cfg.wi, cfg.seed, sol.epochs, sol.final_violation)
    return Model(sol.weights, feature_set_digest, meta)


def predict(
    model: Model,
    x: SparseVector,
    *,
    expected_digest: str | None = None,
) -> tuple[Stance, float]:
    """Margin-sign classification; a margin of exactly 0 goes to supporting."""
    if expected_digest is not None and expected_digest != model.feature_set_digest:
        raise ValueError("feature set digest mismatch between model and vectorizer")
    w = model.weights
    if x.indices and x.indices[-1] >= len(w) - 1:
        raise ValueError("vector index out of range for this model")
    margin = w[-1]
    for j, v in zip(x.indices, x.values):
        margin += w[j] * v
    stance = Stance.OPPOSING if margin < 0.0 else Stance.SUPPORTING
    return stance, margin


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
        raise ValueError(f"model file: expected '{key} ...' line, got {line!r}")
    return line[len(prefix):]


def load_model(path: str | Path) -> Model:
    """Read a saved model, v2 or v1.  A v1 file stores no convergence record,
    so its model reports 0 epochs and a nan violation."""
    lines = [line for _, line in read_lines(path)]
    if not lines or lines[0] not in _MODEL_KEYS:
        raise ValueError(f"not a model file (bad header {lines[0] if lines else ''!r})")
    keys = _MODEL_KEYS[lines[0]]
    if len(lines) < len(keys) + 2:
        raise ValueError("model file truncated")
    head = {key: _header_value(line, key) for key, line in zip(keys, lines[1:])}
    k = int(head["K"])
    weight_lines = lines[len(keys) + 1:]
    if len(weight_lines) != k + 1:
        raise ValueError(f"model file: expected {k + 1} weights, found {len(weight_lines)}")
    weights = tuple(float(l) for l in weight_lines)
    if not all(map(math.isfinite, weights)):
        raise ValueError("model file contains non-finite weights")
    meta = TrainMeta(float(head["C"]), float(head["wi"]), int(head["seed"]),
                     int(head.get("epochs", 0)), float(head.get("violation", "nan")))
    return Model(weights, head["digest"], meta)
