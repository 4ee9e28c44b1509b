"""Linear SVM solver: closed-form cases, grid-search oracle, model files."""

from __future__ import annotations

import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tcm_stance import svm
from tcm_stance.features import SparseVector
from tcm_stance.stance import Stance
from tcm_stance.svm import (
    Model,
    TrainConfig,
    TrainMeta,
    dual_objective,
    load_model,
    predict,
    save_model,
    solve_dual,
    train,
)

UNWEIGHTED = TrainConfig(C=1.0, wi=1.0, seed=1)


def vec(*pairs) -> SparseVector:
    idx = tuple(i for i, _ in pairs)
    vals = tuple(float(v) for _, v in pairs)
    return SparseVector(idx, vals)


def two_points(scale: float = 1.0):
    return [
        (vec((0, scale)), 1),
        (vec((0, -scale)), -1),
    ]


def test_symmetric_pair_learns_unit_weight():
    sol = solve_dual(two_points(), UNWEIGHTED, 1, fit_bias=False)
    assert sol.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.weights[1] == 0.0
    assert sol.epochs <= 3
    assert sol.final_violation < UNWEIGHTED.tolerance
    assert sum(sol.alphas) == pytest.approx(1.0, abs=1e-9)


def test_scaling_the_points_rescales_the_weight():
    sol = solve_dual(two_points(2.0), UNWEIGHTED, 1, fit_bias=False)
    assert sol.weights[0] == pytest.approx(0.5, abs=1e-9)
    model = Model(sol.weights, "", TrainMeta(1.0, 1.0, 1, sol.epochs, sol.final_violation))
    assert predict(model, vec((0, 2.0)))[1] == pytest.approx(1.0, abs=1e-9)
    assert predict(model, vec((0, -2.0)))[1] == pytest.approx(-1.0, abs=1e-9)


def test_symmetric_pair_dual_value():
    sol = solve_dual(two_points(), UNWEIGHTED, 1, fit_bias=False)
    value = dual_objective(two_points(), sol.alphas, UNWEIGHTED, fit_bias=False)
    assert value == pytest.approx(-0.5, abs=1e-9)


def test_bias_fits_shifted_problem():
    cfg = TrainConfig(C=10.0, wi=1.0, seed=3)
    data = [(vec((0, 2.0)), 1), (vec((0, 4.0)), -1)]
    sol = solve_dual(data, cfg, 1)
    w, b = sol.weights
    # separating hyperplane with margins: w*2 + b = 1 and w*4 + b = -1
    assert w == pytest.approx(-1.0, abs=1e-3)
    assert b == pytest.approx(3.0, abs=1e-3)


def test_margin_zero_predicts_supporting():
    model = Model((0.0, 0.0), "", TrainMeta(1.0, 1.0, 1, 0, 0.0))
    stance, margin = predict(model, vec((0, 1.0)))
    assert margin == 0.0
    assert stance is Stance.SUPPORTING


def test_empty_vector_scores_the_bias():
    model = Model((2.0, -0.75), "", TrainMeta(1.0, 1.0, 1, 0, 0.0))
    stance, margin = predict(model, SparseVector(()))
    assert margin == -0.75
    assert stance is Stance.OPPOSING


def test_class_weight_caps_majority_pull():
    # same point, contradictory labels: the class with the bigger cap wins
    data = [(vec((0, 1.0)), 1), (vec((0, 1.0)), -1)]
    weighted = solve_dual(data, TrainConfig(C=1.0, wi=0.1, seed=2), 1, fit_bias=False)
    assert weighted.weights[0] == pytest.approx(-0.9, abs=1e-6)
    even = solve_dual(data, TrainConfig(C=1.0, wi=1.0, seed=2), 1, fit_bias=False)
    assert even.weights[0] == pytest.approx(0.0, abs=1e-6)


def test_alphas_respect_the_weighted_box():
    rng = random.Random(5)
    data = [
        (vec((0, rng.uniform(-1, 1)), (1, rng.uniform(-1, 1))), 1 if i % 3 else -1)
        for i in range(12)
    ]
    cfg = TrainConfig(C=0.7, wi=0.4, seed=6)
    sol = solve_dual(data, cfg, 2)
    for a, (_x, y) in zip(sol.alphas, data):
        cap = cfg.C * cfg.wi if y > 0 else cfg.C
        assert 0.0 <= a <= cap


def projected_gradients(sol, data, cfg):
    """|projected gradient| of every example, recomputed from the solution."""
    w = sol.weights
    out = []
    for a, (x, y) in zip(sol.alphas, data):
        margin = w[-1] + sum(w[j] * v for j, v in zip(x.indices, x.values))
        g = y * margin - 1.0
        cap = cfg.C * cfg.wi if y > 0 else cfg.C
        if a <= 0.0:
            pg = min(g, 0.0)
        elif a >= cap:
            pg = max(g, 0.0)
        else:
            pg = g
        out.append(abs(pg))
    return out


def test_converged_solution_satisfies_optimality_conditions():
    rng = random.Random(9)
    data = []
    for i in range(16):
        y = 1 if i % 2 else -1
        data.append((vec((0, rng.uniform(-2, 2)), (1, rng.uniform(-2, 2))), y))
    cfg = TrainConfig(C=0.5, wi=0.8, tolerance=1e-7, max_epochs=5000, seed=11)
    sol = solve_dual(data, cfg, 2)
    assert max(projected_gradients(sol, data, cfg)) < 1e-6


def sparse_vectors(n_features: int, general: bool):
    """Vectors over n_features columns with presence or general values."""
    value = (st.integers(-4, 4).filter(bool).map(lambda k: k / 2) if general
             else st.just(1.0))
    return st.dictionaries(st.integers(0, n_features - 1), value, max_size=n_features).map(
        lambda d: SparseVector(tuple(sorted(d)), tuple(d[j] for j in sorted(d))))


@st.composite
def dual_problems(draw):
    """Small problems with duplicated rows, one vector under both labels,
    zero vectors, presence or general values, and any wi in (0, 1]."""
    n_features = draw(st.integers(1, 3))
    pool = draw(st.lists(sparse_vectors(n_features, draw(st.booleans())), min_size=1,
                         max_size=4))
    data = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1, -1])),
                         min_size=2, max_size=10))
    if len({y for _, y in data}) == 1:
        data.append((data[0][0], -data[0][1]))
    # below 1e-300, C * wi can underflow to 0, which TrainConfig rejects
    wi = draw(st.floats(0.0, 1.0, exclude_min=True).filter(lambda wi: wi > 1e-300))
    cfg = TrainConfig(C=draw(st.sampled_from([0.1, 1.0, 4.0])), wi=wi, tolerance=1e-8,
                      max_epochs=100000, seed=draw(st.integers(0, 9)))
    return data, n_features, cfg, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(dual_problems())
@example(([(vec(), 1), (vec((0, -1.5)), 1), (vec((0, -1.5)), -1), (vec(), -1)], 1,
          TrainConfig(C=1.0, wi=0.3, tolerance=1e-8, max_epochs=100000), False))
@example(([(vec((0, 1), (1, 1)), 1)] * 3 + [(vec((0, 1)), -1), (vec(), 1)], 2,
          TrainConfig(C=4.0, wi=1.0, tolerance=1e-8, max_epochs=100000), True))
def test_shrinking_solver_matches_the_plain_loop(problem):
    data, n_features, cfg, fit_bias = problem
    sol = solve_dual(data, cfg, n_features, fit_bias=fit_bias)
    ref = oracles.reference_solve_dual(data, cfg, n_features, fit_bias=fit_bias)
    assert sol.final_violation < cfg.tolerance
    assert dual_objective(data, sol.alphas, cfg, fit_bias=fit_bias) == pytest.approx(
        dual_objective(data, ref.alphas, cfg, fit_bias=fit_bias), abs=1e-6)
    assert max(projected_gradients(sol, data, cfg)) < 1e-6


def shrinking_problem():
    """Two noisy blobs: most points end at alpha = 0, some at the cap."""
    rng = random.Random(31)
    data = []
    for i in range(120):
        y = 1 if i % 3 else -1
        data.append((vec((0, y + rng.gauss(0, 0.8)), (1, rng.gauss(0, 1))), y))
    return data


def test_passes_shrink_and_the_last_one_visits_every_example(monkeypatch):
    lengths = []
    shuffle = svm.shuffle

    def recording_shuffle(rng, x):
        lengths.append(len(x))
        shuffle(rng, x)

    monkeypatch.setattr(svm, "shuffle", recording_shuffle)
    data = shrinking_problem()
    for max_epochs in (1000, 4):
        lengths.clear()
        solve_dual(data, TrainConfig(max_epochs=max_epochs, tolerance=1e-9), 2)
        assert min(lengths) < len(data)
        assert lengths[0] == lengths[-1] == len(data)
        assert sum(lengths) <= max_epochs * len(data)


# 0-3, then 2^k - 1, 2^k and 2^k + 1 up to 4097: every bit-length band edge
SHUFFLE_LENGTHS = sorted({0, 1, 2, 3} | {2 ** k + d for k in range(1, 13) for d in (-1, 0, 1)})


@settings(max_examples=40, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70))
def test_shuffle_draws_the_library_permutation_and_generator_state(seed):
    for n in SHUFFLE_LENGTHS:
        ours, library = random.Random(seed), random.Random(seed)
        x, y = list(range(n)), list(range(n))
        for _ in range(2):
            svm.shuffle(ours, x)
            library.shuffle(y)
            assert x == y, n
        assert ours.getstate() == library.getstate(), n


def solve_with_library_shuffle(data, cfg, n_features, *, fit_bias=True):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svm, "shuffle", lambda rng, x: rng.shuffle(x))
        return solve_dual(data, cfg, n_features, fit_bias=fit_bias)


@pytest.mark.parametrize("max_epochs", [1, 4, 1000])
@pytest.mark.parametrize("wi", [0.5, 1.0])
def test_solver_is_bit_identical_with_the_library_shuffle(wi, max_epochs):
    data = shrinking_problem()
    cfg = TrainConfig(C=1.0, wi=wi, tolerance=1e-6, max_epochs=max_epochs, seed=4)
    assert solve_dual(data, cfg, 2) == solve_with_library_shuffle(data, cfg, 2)


@settings(max_examples=100, deadline=None)
@given(dual_problems(), st.one_of(st.none(), st.integers(1, 6)))
def test_solver_is_bit_identical_with_the_library_shuffle_on_any_problem(problem, max_epochs):
    data, n_features, cfg, fit_bias = problem
    if max_epochs is not None:
        cfg = replace(cfg, max_epochs=max_epochs)
    assert (solve_dual(data, cfg, n_features, fit_bias=fit_bias)
            == solve_with_library_shuffle(data, cfg, n_features, fit_bias=fit_bias))


class IdentityTuple(tuple):
    """A tuple equal only to itself, so the solver cannot share its row."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other


@st.composite
def repetitive_problems(draw):
    """Few distinct (vector, label) pairs, each repeated many times; the
    empty vector is always in the pool, so some rows carry the bias alone."""
    n_features = draw(st.integers(1, 4))
    pool = [SparseVector(())] + draw(st.lists(sparse_vectors(n_features, draw(st.booleans())),
                                              max_size=3))
    data = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1, -1])),
                         min_size=10, max_size=40))
    if len({y for _, y in data}) == 1:
        data.append((data[0][0], -data[0][1]))
    cfg = TrainConfig(C=draw(st.sampled_from([0.1, 1.0, 4.0])),
                      wi=draw(st.sampled_from([0.2, 0.9, 1.0])),
                      max_epochs=draw(st.sampled_from([1, 3, 1000])), seed=draw(st.integers(0, 9)))
    return data, n_features, cfg, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(repetitive_problems())
def test_row_sharing_is_invisible_to_the_solver(problem):
    data, n_features, cfg, fit_bias = problem
    fresh = [(SparseVector(tuple(list(x.indices)), tuple(list(x.values))), y) for x, y in data]
    unshared = [(SparseVector(IdentityTuple(x.indices), x.values), y) for x, y in data]
    assert len(set(data)) < len(data)
    sol = solve_dual(data, cfg, n_features, fit_bias=fit_bias)
    assert sol == solve_dual(fresh, cfg, n_features, fit_bias=fit_bias)
    assert sol == solve_dual(unshared, cfg, n_features, fit_bias=fit_bias)


@settings(max_examples=50, deadline=None)
@given(repetitive_problems(), st.data())
def test_an_out_of_range_index_in_a_repeated_vector_is_still_rejected(problem, data_st):
    data, n_features, cfg, fit_bias = problem
    bad = SparseVector((n_features,))
    positions = data_st.draw(st.lists(st.integers(0, len(data)), min_size=1, max_size=4))
    for pos in sorted(positions, reverse=True):
        data.insert(pos, (bad, data_st.draw(st.sampled_from([1, -1]))))
    with pytest.raises(ValueError, match="out of range"):
        solve_dual(data, cfg, n_features, fit_bias=fit_bias)


@pytest.mark.parametrize("fit_bias", [True, False])
def test_a_non_finite_margin_stops_training(fit_bias):
    """Whichever example comes first, its margin is 0.0 * inf, a NaN, which
    the solver refuses rather than skipping as a zero-gradient visit."""
    data = [(SparseVector((0,), (math.inf,)), 1), (SparseVector((0,), (math.inf,)), -1)]
    with pytest.raises(FloatingPointError, match="non-finite gradient during training"):
        solve_dual(data, UNWEIGHTED, 1, fit_bias=fit_bias)


@settings(max_examples=150, deadline=None)
@given(st.one_of(dual_problems(), repetitive_problems()),
       st.one_of(st.none(), st.integers(1, 6)))
def test_solver_is_bit_identical_to_the_reference_shrinking_loop(problem, max_epochs):
    data, n_features, cfg, fit_bias = problem
    if max_epochs is not None:
        cfg = replace(cfg, max_epochs=max_epochs)
    assert (solve_dual(data, cfg, n_features, fit_bias=fit_bias)
            == oracles.reference_shrinking_solve_dual(data, cfg, n_features, fit_bias=fit_bias))


def short_presence_rows():
    """Presence rows shaped like the bigvocab folds: most carry 0, 1 or 2
    columns, some 3, and every width appears under both labels."""
    rng = random.Random(11)
    data = []
    for width in [0] * 45 + [1] * 36 + [2] * 15 + [3] * 4:
        cols = tuple(sorted(rng.sample(range(8), width)))
        data += [(SparseVector(cols), 1)] * rng.randint(1, 3) + [(SparseVector(cols), -1)]
    rng.shuffle(data)
    return data


@pytest.mark.parametrize("fit_bias", [True, False])
@pytest.mark.parametrize("max_epochs", [1, 3, 1000])
def test_solver_is_bit_identical_to_the_reference_on_short_presence_rows(max_epochs, fit_bias):
    data = short_presence_rows()
    cfg = TrainConfig(C=1.0, wi=0.5, max_epochs=max_epochs, seed=2)
    sol = solve_dual(data, cfg, 8, fit_bias=fit_bias)
    assert sol == oracles.reference_shrinking_solve_dual(data, cfg, 8, fit_bias=fit_bias)
    assert sol.epochs <= max_epochs


def test_final_violation_adds_a_margin_as_the_pass_does():
    # left to right, 1e16 + 1.0 rounds back to 1e16, so the margin is 0.0;
    # sum() from Python 3.12 on compensates and would make it 1.0
    w = [1e16, 1.0, -1e16]
    assert w[0] + w[1] + w[2] == 0.0
    row = (2, [0, 1], None, 1.0, 1.0, 3)  # presence columns 0 and 1, then the bias
    assert svm._max_violation([row], [0.0], w) == 1.0   # |y * 0.0 - 1.0|


@pytest.mark.parametrize("max_epochs", [4, 1000])
def test_final_violation_is_measured_on_every_example(max_epochs):
    data = shrinking_problem()
    cfg = TrainConfig(C=1.0, wi=0.5, tolerance=1e-6, max_epochs=max_epochs, seed=4)
    sol = solve_dual(data, cfg, 2)
    assert (sol.final_violation < cfg.tolerance) == (max_epochs == 1000)
    assert sol.final_violation == pytest.approx(max(projected_gradients(sol, data, cfg)),
                                                rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(dual_problems(), st.integers(1, 6))
def test_epochs_never_exceed_max_epochs(problem, max_epochs):
    data, n_features, cfg, fit_bias = problem
    capped = replace(cfg, max_epochs=max_epochs)
    sol = solve_dual(data, capped, n_features, fit_bias=fit_bias)
    assert 1 <= sol.epochs <= max_epochs
    assert sol.final_violation == pytest.approx(max(projected_gradients(sol, data, capped)),
                                                rel=1e-9, abs=1e-12)


def random_instance(rng, span=2.0):
    points = [[rng.uniform(-span, span), rng.uniform(-span, span)] for _ in range(4)]
    labels = [1, 1, -1, -1]
    data = [
        (vec((0, px), (1, py)), y)
        for (px, py), y in zip(points, labels)
    ]
    return points, labels, data


def test_solver_reaches_grid_search_optimum():
    cfg = TrainConfig(C=0.03, wi=1.0, tolerance=1e-8, max_epochs=20000, seed=0)
    for trial in range(5):
        rng = random.Random(100 + trial)
        points, labels, data = random_instance(rng)
        sol = solve_dual(data, cfg, 2)
        trained = dual_objective(data, sol.alphas, cfg)
        grid = oracles.grid_min_dual(points, labels, cfg.C, cfg.wi, step=1e-3)
        assert trained <= grid + 1e-9
        assert trained >= grid - 1e-3


def test_trained_solution_beats_random_feasible_points():
    cfg = TrainConfig(C=0.5, wi=0.7, tolerance=1e-8, max_epochs=20000, seed=0)
    rng = random.Random(77)
    points, labels, data = random_instance(rng)
    sol = solve_dual(data, cfg, 2)
    trained = dual_objective(data, sol.alphas, cfg)
    caps = [cfg.C * cfg.wi if y > 0 else cfg.C for _, y in data]
    for _ in range(200):
        draw = [rng.uniform(0.0, cap) for cap in caps]
        assert dual_objective(data, draw, cfg) >= trained - 1e-9


def test_dual_objective_matches_oracle_on_random_alphas():
    rng = random.Random(13)
    points, labels, data = random_instance(rng)
    q = oracles.dual_matrix(points, labels)
    caps = oracles.upper_bounds(labels, 1.0, 0.9)
    cfg = TrainConfig(C=1.0, wi=0.9, seed=1)
    for _ in range(50):
        draw = [rng.uniform(0.0, float(c)) for c in caps]
        assert dual_objective(data, draw, cfg) == pytest.approx(
            oracles.dual_value(q, draw), abs=1e-9
        )


def test_dual_objective_rejects_out_of_box_alphas():
    data = two_points()
    with pytest.raises(ValueError):
        dual_objective(data, [2.0, 0.0], UNWEIGHTED, fit_bias=False)
    with pytest.raises(ValueError):
        dual_objective(data, [0.5], UNWEIGHTED, fit_bias=False)


def test_training_is_deterministic():
    rng = random.Random(21)
    data = [
        (vec((0, rng.uniform(-1, 1)), (1, rng.uniform(-1, 1))), 1 if i < 10 else -1)
        for i in range(20)
    ]
    cfg = TrainConfig(C=1.0, wi=0.9, seed=42)
    first = train(data, cfg, 2)
    second = train(data, cfg, 2)
    assert first.weights == second.weights
    assert first.train_meta == second.train_meta


def test_duplicating_a_separable_set_keeps_the_signs():
    data = [
        (vec((0, 1.0), (1, 0.5)), 1),
        (vec((0, 0.8)), 1),
        (vec((0, 1.2), (1, -0.1)), 1),
        (vec((0, -1.0), (1, -0.5)), -1),
        (vec((0, -0.8)), -1),
        (vec((0, -1.2), (1, 0.1)), -1),
    ]
    cfg = TrainConfig(C=1.0, wi=0.9, seed=8)
    base = train(data, cfg, 2)
    doubled = train(data + data, cfg, 2)
    for x, y in data:
        assert math.copysign(1, predict(base, x)[1]) == y
        assert math.copysign(1, predict(doubled, x)[1]) == y


def test_train_input_validation():
    with pytest.raises(ValueError):
        train([], UNWEIGHTED, 1)
    with pytest.raises(ValueError):
        train([(vec((0, 1.0)), 1)], UNWEIGHTED, 1)
    with pytest.raises(ValueError):
        train(two_points() + [(vec((0, 1.0)), 2)], UNWEIGHTED, 1)
    with pytest.raises(ValueError):
        train([(vec((5, 1.0)), 1), (vec((0, -1.0)), -1)], UNWEIGHTED, 2)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(C=0.0)
    with pytest.raises(ValueError):
        TrainConfig(wi=0.0)
    with pytest.raises(ValueError):
        TrainConfig(wi=1.5)
    with pytest.raises(ValueError, match="underflows"):
        TrainConfig(C=0.1, wi=5e-324)
    with pytest.raises(ValueError):
        TrainConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)


def test_model_file_round_trip(tmp_path):
    data = two_points()
    model = train(data, TrainConfig(C=0.25, wi=0.6, seed=9), 1,
                  feature_set_digest="d" * 64)
    path = tmp_path / "model.txt"
    save_model(path, model)
    assert path.read_text(encoding="utf-8").startswith("stance-svm v2\n")
    loaded = load_model(path)
    assert loaded.weights == model.weights
    assert loaded.feature_set_digest == model.feature_set_digest
    assert loaded.train_meta == model.train_meta
    assert loaded.train_meta.C == 0.25
    assert loaded.train_meta.wi == 0.6
    assert loaded.train_meta.seed == 9
    assert loaded.train_meta.epochs >= 1
    assert loaded.train_meta.final_violation < 1e-4
    x = vec((0, 0.3))
    assert predict(loaded, x) == predict(model, x)


def test_model_file_keeps_an_infinite_violation(tmp_path):
    model = Model((0.5, -0.25), "abc", TrainMeta(1.0, 0.9, 3, 1000, math.inf))
    path = tmp_path / "model.txt"
    save_model(path, model)
    assert "violation inf\n" in path.read_text(encoding="utf-8")
    assert load_model(path).train_meta == model.train_meta


def test_model_file_rejects_corruption(tmp_path):
    model = train(two_points(), UNWEIGHTED, 1)
    path = tmp_path / "model.txt"
    save_model(path, model)
    text = path.read_text(encoding="utf-8")

    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("stance-svm v2", "who knows"), encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_model(bad)

    bad.write_text("".join(text.splitlines(keepends=True)[:-1]), encoding="utf-8")
    with pytest.raises(ValueError, match="weights"):
        load_model(bad)

    bad.write_text("stance-svm v2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="truncated"):
        load_model(bad)


@pytest.mark.parametrize("edit, where, message", [
    (lambda lines: ["stance-svm v9"] + lines[1:], ":1", "not a model file (bad header 'stance-svm v9')"),
    (lambda lines: ["stance-svm v1"] + lines[1:], ":1", "not a model file (bad header 'stance-svm v1')"),
    (lambda lines: [], "", "not a model file (bad header '')"),
    (lambda lines: lines[:3], ":3", "model file truncated"),
    (lambda lines: lines[:2] + ["C=1"] + lines[3:], ":3", "expected 'C ...' line, got 'C=1'"),
    (lambda lines: lines[:1] + ["K two"] + lines[2:], ":2",
     "invalid literal for int() with base 10: 'two'"),
    (lambda lines: lines[:-1], ":9", "expected 2 weights, found 1"),
    (lambda lines: lines + ["0.5"], ":11", "expected 2 weights, found more"),
    (lambda lines: lines[:1] + ["K -1"] + lines[2:8], ":2", "K must be >= 0"),
    (lambda lines: lines[:1] + ["K -5"] + lines[2:9], ":2", "K must be >= 0"),
    (lambda lines: lines[:2] + ["C -1"] + lines[3:], ":4", "C must be positive"),
    (lambda lines: lines[:2] + ["C nan"] + lines[3:], ":4", "C must be positive"),
    (lambda lines: lines[:3] + ["wi 7"] + lines[4:], ":4", "wi must be in (0, 1]"),
    (lambda lines: lines[:3] + ["wi inf"] + lines[4:], ":4", "wi must be in (0, 1]"),
    (lambda lines: lines[:2] + ["C 1e-300", "wi 1e-300"] + lines[4:], ":4",
     "C * wi underflows to 0"),
    (lambda lines: lines[:6] + ["epochs -3"] + lines[7:], ":7", "epochs must be >= 0"),
    (lambda lines: lines[:7] + ["violation -inf"] + lines[8:], ":8", "violation must be >= 0"),
    (lambda lines: lines[:7] + ["violation nan"] + lines[8:], ":8", "violation must be >= 0"),
    (lambda lines: lines[:5] + ["digest"] + lines[6:], ":6",
     "expected 'digest ...' line, got 'digest'"),
    (lambda lines: lines[:5] + ["digest d\te"] + lines[6:], ":6",
     "digest contains a tab, a line break or a lone surrogate"),
    (lambda lines: lines[:8] + ["x"] + lines[9:], ":9", "could not convert string to float: 'x'"),
    (lambda lines: lines[:-1] + ["nan"], ":10", "non-finite weight 'nan'"),
], ids=["header", "v1-header", "empty", "truncated", "key", "value", "count", "surplus",
        "negative-K", "negative-K-one-weight", "negative-C", "nan-C", "wi-above-1", "infinite-wi",
        "C-wi-underflow", "negative-epochs", "negative-violation", "nan-violation",
        "bare-digest", "unsafe-digest", "weight", "non-finite"])
def test_model_file_errors_name_the_file_and_line(tmp_path, edit, where, message):
    path = tmp_path / "model.txt"
    save_model(path, train(two_points(), UNWEIGHTED, 1))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}{where}: {message}") + "$"):
        load_model(path)


def test_predict_guards_against_mismatches():
    model = train(two_points(), UNWEIGHTED, 1, feature_set_digest="abc")
    with pytest.raises(ValueError, match="digest"):
        predict(model, vec((0, 1.0)), expected_digest="xyz")
    with pytest.raises(ValueError, match="range"):
        predict(model, vec((4, 1.0)))
    assert predict(model, vec((0, 1.0)), expected_digest="abc")[0] is Stance.SUPPORTING
