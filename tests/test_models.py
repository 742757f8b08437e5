"""Tests for the model zoo and the local SGD trainer."""

import math

import numpy as np
import pytest
from helpers import fd_check

from fedsample import models
from fedsample.errors import NumericError
from fedsample.models import (
    LocalTrainReport,
    ModelSpec,
    evaluate,
    init_params,
    local_train,
    loss_and_grad,
    train_clients,
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


def reference_loss_and_grad(spec: ModelSpec, params: np.ndarray, batch):
    """One (n, dim) batch at a time, written with 2-D arrays only: the
    formulas the stacked kernel must reproduce bit for bit."""
    x, y = batch
    if spec.kind == "quadratic-diagnostic":
        return 0.5 * float(params @ params), params.copy()
    v = spec.layer_views(params)
    n = x.shape[0]

    def softmax(logits):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def ce_loss(probs):
        return float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())

    if spec.kind == "logistic":
        d = softmax(x @ v["W"] + v["b"])
        loss = ce_loss(d)
        d[np.arange(n), y] -= 1.0
        d /= n
        return loss, np.concatenate([(x.T @ d).ravel(), d.sum(axis=0)])
    h = np.tanh(x @ v["W1"] + v["b1"])
    d2 = softmax(h @ v["W2"] + v["b2"])
    loss = ce_loss(d2)
    d2[np.arange(n), y] -= 1.0
    d2 /= n
    dh = (d2 @ v["W2"].T) * (1.0 - h * h)
    return loss, np.concatenate(
        [(x.T @ dh).ravel(), dh.sum(axis=0), (h.T @ d2).ravel(), d2.sum(axis=0)]
    )


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
@pytest.mark.parametrize("g", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_stacked_rows_equal_single_calls_bitwise(spec, g, n):
    # Holds only because numpy's stacked matmul runs one gemm per slice and
    # every other step is elementwise or reduces within one row.
    params = np.stack([init_params(spec, seed=s) for s in range(g)])
    batches = [random_batch(spec, n, seed=10 + s) for s in range(g)]
    x = np.stack([b[0] for b in batches])
    y = np.stack([b[1] for b in batches])
    losses, grads = loss_and_grad(spec, params, (x, y))
    assert losses.shape == (g,) and grads.shape == (g, spec.param_count)
    for row in range(g):
        loss, grad = loss_and_grad(spec, params[row], batches[row])
        ref_loss, ref_grad = reference_loss_and_grad(spec, params[row], batches[row])
        assert isinstance(loss, float)
        assert np.float64(losses[row]).tobytes() == np.float64(loss).tobytes() \
            == np.float64(ref_loss).tobytes()
        assert grads[row].tobytes() == grad.tobytes() == ref_grad.tobytes()


def test_stacked_loss_and_grad_rejects_mismatched_stacks():
    params = np.stack([init_params(LOGISTIC, seed=s) for s in range(3)])
    x, y = random_batch(LOGISTIC, 4, seed=0)
    xs, ys = np.stack([x] * 3), np.stack([y] * 3)
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, (x, y))             # one batch for a stack
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, (xs[:2], ys[:2]))   # too few batches
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, (xs, ys[:, :3]))    # labels per row
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params[0], (xs, ys))        # a stack for one vector
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params[None], (xs[None], ys[None]))
    params[1, 0] = np.inf
    with pytest.raises(NumericError):
        loss_and_grad(LOGISTIC, params, (xs, ys))


def stacked_call(spec: ModelSpec, g: int | None, n: int, seed: int):
    """Parameters and a batch for one call: a plain vector with g None, else
    a stack of g."""
    rows = 1 if g is None else g
    params = np.stack([init_params(spec, seed=seed + s) for s in range(rows)])
    batches = [random_batch(spec, n, seed=seed + 50 + s) for s in range(rows)]
    x, y = np.stack([b[0] for b in batches]), np.stack([b[1] for b in batches])
    return (params[0], (x[0], y[0])) if g is None else (params, (x, y))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
def test_scratch_gives_the_fresh_result_bitwise(spec):
    # One scratch serves a chunk's calls: a full and a short final batch, a
    # stack that shrinks from G to G-3 and a lone vector, all in the buffers
    # the first, widest call sized; then a wider call that outgrows them.
    scratch = {}
    calls = [(7, 4), (7, 3), (4, 4), (4, 1), (None, 4), (None, 1), (7, 4)]
    first = None
    for i, (g, n) in enumerate(calls + [(9, 5), (7, 4)]):
        params, batch = stacked_call(spec, g, n, seed=i)
        loss, grad = loss_and_grad(spec, params, batch, scratch)
        ref_loss, ref_grad = loss_and_grad(spec, params, batch)
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()
        assert not np.shares_memory(grad, ref_grad)
        if i < len(calls):
            # Every call returns the same gradient buffer, which the next
            # call given the scratch overwrites.
            first = grad if first is None else first
            assert np.shares_memory(grad, first)
    assert not np.shares_memory(grad, first)  # regrown for the wider call


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=lambda s: s.kind)
@pytest.mark.parametrize("g", [None, 3], ids=["vector", "stack"])
def test_inputs_are_never_written(spec, g):
    params, (x, y) = stacked_call(spec, g, 6, seed=3)
    # Features as a strided view of a wider array, so no copy is made.
    wide = np.repeat(x, 2, axis=-1)
    x = wide[..., ::2]
    assert not x.flags.c_contiguous and np.shares_memory(x, wide)
    before = [a.tobytes() for a in (params, wide, y)]
    loss_and_grad(spec, params, (x, y))
    loss_and_grad(spec, params, (x, y), {})
    for row in range(1 if g is None else g):
        p, xr, yr = (params, x, y) if g is None else (params[row], x[row], y[row])
        evaluate(spec, p, xr, yr)
    assert [a.tobytes() for a in (params, wide, y)] == before


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


def reference_local_train(spec, start, data, epochs, batch_size, eta, seed):
    """One client's SGD loop, one step at a time on one vector: the final
    parameters and the path of every coordinate."""
    x, y = data
    theta = start.copy()
    path = [theta.copy()]
    for epoch in range(epochs):
        order = derive_rng(seed, "shuffle", epoch).permutation(y.size)
        for lo in range(0, y.size, batch_size):
            sel = order[lo : lo + batch_size]
            _, grad = reference_loss_and_grad(spec, theta, (x[sel], y[sel]))
            theta -= eta * grad
            path.append(theta.copy())
    return theta, np.array(path)


def count_gradient_calls(monkeypatch) -> list:
    """Count the trainer's calls of the module-global loss_and_grad."""
    calls = []

    def counted(*args):
        calls.append(1)
        return loss_and_grad(*args)

    monkeypatch.setattr(models, "loss_and_grad", counted)
    return calls


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
@pytest.mark.parametrize("sizes", [(9, 9, 9), (9, 4, 9, 7, 4, 1)], ids=["equal", "unequal"])
@pytest.mark.parametrize("track", [None, "all", 3], ids=["none", "all", "int"])
@pytest.mark.parametrize("width, gather", [(None, None), (2, None), (None, 1)],
                         ids=["one-stack", "chunks-of-2", "one-batch-blocks"])
def test_train_clients_equals_one_client_at_a_time(monkeypatch, spec, sizes, track, width,
                                                   gather):
    # Batches of 4: 9 samples end in a short batch of 1, 7 in one of 3.
    if width is not None:
        monkeypatch.setattr(models, "_LOCKSTEP_ELEMENTS", width * spec.param_count)
    if gather is not None:  # gather each client's rows one batch at a time
        monkeypatch.setattr(models, "_GATHER_ELEMENTS", gather)
    start = init_params(spec, seed=1)
    clients = [random_batch(spec, n, seed=20 + i) for i, n in enumerate(sizes)]
    seeds = [100 + i for i in range(len(sizes))]
    calls = count_gradient_calls(monkeypatch)
    reports = train_clients(spec, start, clients, seeds, 2, 4, 0.3, track)
    # One gradient call per lockstep step of each chunk of equal-size clients.
    chunks = {n: math.ceil(sizes.count(n) / (width or len(sizes))) for n in sizes}
    assert len(calls) == sum(k * 2 * math.ceil(n / 4) for n, k in chunks.items())
    monkeypatch.undo()
    for data, seed, rep in zip(clients, seeds, reports):
        one = local_train(spec, start, data, 2, 4, 0.3, seed, track)
        theta, path = reference_local_train(spec, start, data, 2, 4, 0.3, seed)
        assert rep.params_after.tobytes() == one.params_after.tobytes() == theta.tobytes()
        assert rep.update_norm == one.update_norm == float(np.linalg.norm(theta - start))
        assert rep.steps_taken == one.steps_taken == len(path) - 1
        assert rep.n_samples == one.n_samples == data[1].size
        if track is None:
            assert rep.tracked is None and rep.path is None and one.path is None
        else:
            assert np.array_equal(rep.tracked, one.tracked)
            assert rep.path.tobytes() == one.path.tobytes() == path[:, rep.tracked].tobytes()
    if track == 3:
        # Every client draws its coordinates from its own seed.
        assert len({rep.tracked.tobytes() for rep in reports}) > 1


@pytest.mark.parametrize("epochs, message, track", [
    pytest.param(epochs, message, track,
                 id=f"{epochs}-{message}" + ("" if track is None else f"-track={track}"))
    for epochs, message in [
        (2, "^non-finite parameters$"),                       # fails mid-run
        (1, "^parameters diverged during local training$"),   # at its last step
    ]
    for track in (None, "all", 3)
])
def test_train_clients_isolates_a_diverging_client(epochs, message, track):
    # Client 1's huge features overflow its first update; the other clients
    # of its group train on as if alone. Mid-run, a tracked group drops the
    # failed row from its paths and tracked indices too.
    start = init_params(LOGISTIC, seed=2)
    clients = [random_batch(LOGISTIC, 6, seed=40 + i) for i in range(4)]
    clients[1] = (clients[1][0] * 1e300, clients[1][1])
    seeds = [7, 8, 9, 10]
    reports = train_clients(LOGISTIC, start, clients, seeds, epochs, 6, 1e10, track)
    assert isinstance(reports[1], NumericError)
    assert str(reports[1]) == message.strip("^$")
    with pytest.raises(NumericError, match=message):
        local_train(LOGISTIC, start, clients[1], epochs, 6, 1e10, seeds[1], track)
    for i in (0, 2, 3):
        one = local_train(LOGISTIC, start, clients[i], epochs, 6, 1e10, seeds[i], track)
        assert reports[i].params_after.tobytes() == one.params_after.tobytes()
        assert reports[i].update_norm == one.update_norm
        if track is None:
            assert reports[i].path is None
        else:
            assert reports[i].tracked.tobytes() == one.tracked.tobytes()
            assert reports[i].path.tobytes() == one.path.tobytes()


@pytest.mark.parametrize("scales, calls", [
    # Client 0 leaves the group after one step; client 1, then alone, fails
    # at its third step's own gradient call.
    ((1e300, 1e200), 3),
    # A client that trains on keeps the group stepping to the end.
    ((1e300, 1.0, 1e200), 9),
])
def test_train_clients_makes_one_gradient_call_per_step(monkeypatch, scales, calls):
    start = init_params(LOGISTIC, seed=2)
    x, y = random_batch(LOGISTIC, 6, seed=41)
    clients = [(x * scale, y) for scale in scales]
    counted = count_gradient_calls(monkeypatch)
    reports = train_clients(LOGISTIC, start, clients, [8] * len(scales), 3, 2, 1e10)
    assert len(counted) == calls
    monkeypatch.undo()
    for data, rep in zip(clients, reports):
        try:
            one = local_train(LOGISTIC, start, data, 3, 2, 1e10, 8)
        except NumericError as exc:
            assert isinstance(rep, NumericError) and str(rep) == str(exc)
        else:
            assert rep.params_after.tobytes() == one.params_after.tobytes()
    assert [type(rep) for rep in reports].count(NumericError) == 2


def record_param_shapes(monkeypatch) -> list:
    """The parameter shape of each of the trainer's calls of the
    module-global loss_and_grad."""
    shapes = []

    def recorded(spec, params, batch, scratch=None):
        shapes.append(params.shape)
        return loss_and_grad(spec, params, batch, scratch)

    monkeypatch.setattr(models, "loss_and_grad", recorded)
    return shapes


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
@pytest.mark.parametrize("track", [None, "all"], ids=["none", "all"])
def test_lone_clients_step_a_vector_and_groups_a_stack(monkeypatch, spec, track):
    # Sizes 9, 5 and 9 in batches of 4, 2 epochs: the pair steps 6 times as a
    # (2, P) stack, the lone client 4 times as a (P,) vector.
    shapes = record_param_shapes(monkeypatch)
    start = init_params(spec, seed=1)
    p = spec.param_count
    clients = [random_batch(spec, n, seed=60 + i) for i, n in enumerate((9, 5, 9))]
    train_clients(spec, start, clients, [1, 2, 3], 2, 4, 0.1, track)
    assert shapes == [(2, p)] * 6 + [(p,)] * 4
    # Chunks of one client each: every call is the one-vector call.
    shapes.clear()
    monkeypatch.setattr(models, "_LOCKSTEP_ELEMENTS", p)
    train_clients(spec, start, clients, [1, 2, 3], 2, 4, 0.1, track)
    assert shapes == [(p,)] * 16


def test_a_group_left_with_one_row_steps_as_a_stack(monkeypatch):
    # Client 0 leaves the pair after its first step; client 1 steps on as a
    # one-row stack.
    shapes = record_param_shapes(monkeypatch)
    start = init_params(LOGISTIC, seed=2)
    x, y = random_batch(LOGISTIC, 6, seed=41)
    reports = train_clients(LOGISTIC, start, [(x * 1e300, y), (x, y)], [8, 8], 3, 2, 1e10)
    assert isinstance(reports[0], NumericError) and not isinstance(reports[1], NumericError)
    assert shapes == [(2, LOGISTIC.param_count)] + [(1, LOGISTIC.param_count)] * 8


@pytest.mark.parametrize("track", [None, "all"], ids=["none", "all"])
def test_train_clients_whole_group_diverges(track):
    # Every row of a group leaves it at the same step, as each would alone.
    start = init_params(QUAD, seed=4)
    clients = [random_batch(QUAD, 5, seed=50 + i) for i in range(3)]
    reports = train_clients(QUAD, start, clients, [1, 2, 3], 400, 2, 1e100, track)
    for data, seed, rep in zip(clients, [1, 2, 3], reports):
        with pytest.raises(NumericError) as alone:
            local_train(QUAD, start, data, 400, 2, 1e100, seed, track)
        assert isinstance(rep, NumericError) and str(rep) == str(alone.value)


def test_train_clients_rejects_bad_arguments():
    data = random_batch(LOGISTIC, 10, seed=3)
    start = init_params(LOGISTIC, seed=3)
    with pytest.raises(ValueError, match="one seed per client"):
        train_clients(LOGISTIC, start, [data, data], [0], 1, 4, 0.1)
    with pytest.raises(ValueError):
        train_clients(LOGISTIC, start, [data, (data[0][:, :2], data[1])], [0, 1], 1, 4, 0.1)
    assert train_clients(LOGISTIC, start, [], [], 1, 4, 0.1) == []


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
