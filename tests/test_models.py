"""Tests for the model zoo and the local SGD trainer."""

import math

import numpy as np
import pytest
from helpers import fd_check

from fedsample.errors import NumericError
from fedsample.models import (
    LocalTrainReport,
    ModelSpec,
    evaluate,
    init_params,
    local_train,
    loss_and_grad,
)
from fedsample.seeding import derive_rng

LOGISTIC = ModelSpec("logistic", input_dim=6, n_classes=4)
MLP = ModelSpec("mlp1", input_dim=5, n_classes=3, hidden_dim=7)
QUAD = ModelSpec("quadratic-diagnostic", input_dim=10)


def random_batch(spec: ModelSpec, n: int, seed: int):
    rng = derive_rng(seed, "batch")
    x = rng.standard_normal((n, spec.input_dim))
    y = rng.integers(0, max(spec.n_classes, 2), size=n)
    return x, y


# ------------------------------------------------------------- loss_and_grad

def test_mlp_param_count():
    spec = ModelSpec("mlp1", input_dim=20, n_classes=10, hidden_dim=32)
    assert spec.param_count == 20 * 32 + 32 + 32 * 10 + 10
    assert init_params(spec, seed=0).size == spec.param_count


def test_zero_params_logistic_loss_is_log_classes():
    params = np.zeros(LOGISTIC.param_count)
    loss, _ = loss_and_grad(LOGISTIC, params, random_batch(LOGISTIC, 8, seed=0))
    assert loss == pytest.approx(math.log(4), rel=1e-12)


def test_quadratic_grad_is_params():
    params = init_params(QUAD, seed=3)
    loss, grad = loss_and_grad(QUAD, params, random_batch(QUAD, 4, seed=0))
    assert np.array_equal(grad, params)
    assert loss == pytest.approx(0.5 * float(params @ params))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
def test_gradients_match_finite_differences(spec):
    for seed in range(10):
        params = init_params(spec, seed=seed)
        batch = random_batch(spec, 8, seed=seed)
        assert fd_check(spec, params, batch) <= 1e-6


def test_loss_and_grad_rejects_bad_inputs():
    params = init_params(LOGISTIC, seed=0)
    x, y = random_batch(LOGISTIC, 8, seed=0)
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, (x[:, :3], y))
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, (x[:0], y[:0]))
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, (x, np.full(8, 99)))
    bad = np.full(params.size, np.nan)
    with pytest.raises(NumericError):
        loss_and_grad(LOGISTIC, bad, (x, y))


# ------------------------------------------------------------------ evaluate

def test_evaluate_perfectly_separated_data():
    # One-hot features with an identity-ish weight matrix classify exactly.
    spec = ModelSpec("logistic", input_dim=3, n_classes=3)
    w = np.zeros((3, 3))
    np.fill_diagonal(w, 10.0)
    params = np.concatenate([w.ravel(), np.zeros(3)])
    x = np.eye(3)
    y = np.arange(3)
    acc, loss = evaluate(spec, params, x, y)
    assert acc == 1.0
    assert loss < 0.01


def test_evaluate_quadratic_has_nan_accuracy():
    params = init_params(QUAD, seed=1)
    acc, loss = evaluate(QUAD, params, *random_batch(QUAD, 5, seed=2))
    assert math.isnan(acc)
    assert loss == pytest.approx(0.5 * float(params @ params))


# --------------------------------------------------------------- local_train

def test_zero_eta_keeps_params():
    data = random_batch(LOGISTIC, 12, seed=5)
    start = init_params(LOGISTIC, seed=5)
    rep = local_train(LOGISTIC, start, data, epochs=2, batch_size=4, eta=0.0, seed=9)
    assert np.array_equal(rep.params_after, start)
    assert rep.update_norm == 0.0
    assert rep.steps_taken == 2 * 3


def test_zero_epochs_is_noop():
    data = random_batch(LOGISTIC, 12, seed=5)
    start = init_params(LOGISTIC, seed=5)
    rep = local_train(LOGISTIC, start, data, epochs=0, batch_size=4, eta=0.5, seed=9)
    assert np.array_equal(rep.params_after, start)
    assert rep.steps_taken == 0


def test_quadratic_full_batch_step_is_exact_contraction():
    # theta - 0.5*theta is exact in binary floating point.
    data = random_batch(QUAD, 6, seed=1)
    start = init_params(QUAD, seed=1)
    rep = local_train(QUAD, start, data, epochs=1, batch_size=6, eta=0.5, seed=0)
    assert np.array_equal(rep.params_after, 0.5 * start)
    assert rep.steps_taken == 1


def test_quadratic_loss_strictly_decreases():
    data = random_batch(QUAD, 6, seed=1)
    start = init_params(QUAD, seed=2)
    rep = local_train(
        QUAD, start, data, epochs=3, batch_size=2, eta=0.3, seed=0, track="all"
    )
    losses = 0.5 * (rep.path**2).sum(axis=1)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_partial_final_batch_counts_one_step():
    data = random_batch(LOGISTIC, 10, seed=3)
    start = init_params(LOGISTIC, seed=3)
    rep = local_train(LOGISTIC, start, data, epochs=1, batch_size=4, eta=0.1, seed=7)
    # 10 samples in batches of 4: sizes 4, 4, 2
    assert rep.steps_taken == 3
    assert rep.n_samples == 10


def test_update_norm_matches_recomputation():
    data = random_batch(MLP, 9, seed=4)
    start = init_params(MLP, seed=4)
    rep = local_train(MLP, start, data, epochs=2, batch_size=3, eta=0.2, seed=11)
    assert rep.update_norm == float(np.linalg.norm(rep.params_after - start))
    assert rep.update_norm > 0.0


def test_training_is_bitwise_deterministic():
    data = random_batch(MLP, 9, seed=4)
    start = init_params(MLP, seed=4)
    a = local_train(MLP, start, data, epochs=2, batch_size=3, eta=0.2, seed=11, track="all")
    b = local_train(MLP, start, data, epochs=2, batch_size=3, eta=0.2, seed=11, track="all")
    assert np.array_equal(a.params_after, b.params_after)
    assert a.update_norm == b.update_norm
    assert np.array_equal(a.path, b.path)
    c = local_train(MLP, start, data, epochs=2, batch_size=3, eta=0.2, seed=12)
    assert not np.array_equal(a.params_after, c.params_after)


def test_trajectory_shape_and_endpoints():
    data = random_batch(LOGISTIC, 10, seed=3)
    start = init_params(LOGISTIC, seed=3)
    rep = local_train(LOGISTIC, start, data, epochs=2, batch_size=4, eta=0.1, seed=7, track="all")
    assert np.array_equal(rep.tracked, np.arange(start.size))
    assert rep.path.shape == (rep.steps_taken + 1, start.size)
    assert np.array_equal(rep.path[0], start)
    assert np.array_equal(rep.path[-1], rep.params_after)


def test_tracking_subsample_is_sorted_unique_and_stable():
    data = random_batch(MLP, 9, seed=4)
    start = init_params(MLP, seed=4)
    a = local_train(MLP, start, data, epochs=1, batch_size=3, eta=0.1, seed=5, track=6)
    b = local_train(MLP, start, data, epochs=1, batch_size=3, eta=0.1, seed=5, track=6)
    idx = a.tracked
    assert idx.size == 6
    assert np.array_equal(idx, np.unique(idx))
    assert np.array_equal(idx, b.tracked)
    # Tracked slices agree with a full recording of the same run.
    full = local_train(MLP, start, data, epochs=1, batch_size=3, eta=0.1, seed=5, track="all")
    assert np.array_equal(a.path, full.path[:, idx])


def test_local_train_rejects_bad_arguments():
    data = random_batch(LOGISTIC, 10, seed=3)
    start = init_params(LOGISTIC, seed=3)
    with pytest.raises(ValueError):
        local_train(LOGISTIC, start, (data[0][:0], data[1][:0]), 1, 4, 0.1, seed=0)
    with pytest.raises(ValueError):
        local_train(LOGISTIC, start, data, epochs=-1, batch_size=4, eta=0.1, seed=0)
    with pytest.raises(ValueError):
        local_train(LOGISTIC, start, data, epochs=1, batch_size=0, eta=0.1, seed=0)
    with pytest.raises(ValueError):
        local_train(LOGISTIC, start, data, epochs=1, batch_size=4, eta=-0.1, seed=0)
    with pytest.raises(ValueError):
        local_train(LOGISTIC, start, data, epochs=1, batch_size=4, eta=0.1, seed=0, track=0)


def test_divergence_raises_numeric_error():
    data = random_batch(QUAD, 4, seed=0)
    start = init_params(QUAD, seed=0)
    with pytest.raises(NumericError):
        local_train(QUAD, start, data, epochs=400, batch_size=4, eta=1e12, seed=0)


# ---------------------------------------------------------------- init & spec

def test_init_is_deterministic_and_bounded():
    spec = ModelSpec("mlp1", input_dim=16, n_classes=5, hidden_dim=8)
    a = init_params(spec, seed=21)
    b = init_params(spec, seed=21)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_params(spec, seed=22))
    views = spec.layer_views(a)
    assert all(np.shares_memory(v, a) for v in views.values())
    assert np.abs(views["W1"]).max() <= 1.0 / math.sqrt(16)
    assert np.abs(views["W2"]).max() <= 1.0 / math.sqrt(8)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("perceptron", input_dim=4, n_classes=2)
    with pytest.raises(ValueError):
        ModelSpec("logistic", input_dim=4, n_classes=1)
    with pytest.raises(ValueError):
        ModelSpec("mlp1", input_dim=4, n_classes=3, hidden_dim=0)
    with pytest.raises(ValueError):
        LOGISTIC.layer_views(np.zeros(5))
    with pytest.raises(ValueError):
        LOGISTIC.layer_views(np.zeros((1, LOGISTIC.param_count)))
