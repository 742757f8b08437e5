"""Tests for the model zoo and the local SGD trainer."""

import math

import numpy as np
import pytest
from helpers import fd_check

from fedsample import models, ou
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
    # narrower stack of G-3 and a lone vector, all in the buffers
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


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
def test_scratch_reuses_parameter_views_bitwise(spec):
    # The scratch keeps the layer views of the last parameter array it saw.
    # Each call must read the array it is given as it is now.
    scratch = {}

    def check(params, batch):
        loss, grad = loss_and_grad(spec, params, batch, scratch)
        ref_loss, ref_grad = loss_and_grad(spec, params, batch, {})
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()

    params, batch = stacked_call(spec, 4, 5, seed=1)
    check(params, batch)
    assert scratch["params"][0] is params
    params *= 0.5  # the same array, mutated in place
    check(params, batch)
    check(params[::-1].copy(), batch)  # a different array of the same shape
    lone, lone_batch = stacked_call(spec, None, 5, seed=2)
    check(lone, lone_batch)  # a lone vector after a stack
    check(params, batch)
    one = params[:1].copy()
    check(one, (batch[0][:1], batch[1][:1]))
    one.shape = (spec.param_count,)  # the same array as a lone vector
    check(one, (batch[0][0], batch[1][0]))
    flat = scratch["flat"]
    wide, wide_batch = stacked_call(spec, 9, 7, seed=3)
    check(wide, wide_batch)  # a wider batch replaces the buffer
    assert scratch["flat"] is not flat and scratch["params"][0] is wide
    check(params, batch)


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax with each row's max reduced along the last axis."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


@pytest.mark.parametrize("n_classes", [2, 10, 62])
@pytest.mark.parametrize("shape", [(7, 10), (10,), (1000,)], ids=["stack", "batch", "test-set"])
def test_softmax_row_max_bitwise(shape, n_classes):
    rng = derive_rng(n_classes, "logits")
    logits = rng.standard_normal(shape + (n_classes,)) * 30.0
    rows = logits.reshape(-1, n_classes)
    ties, zeros, specials, _ = np.array_split(rng.permutation(rows.shape[0]), 4)
    # Two distinct columns of each row.
    first = rng.integers(0, n_classes, size=rows.shape[0])
    second = (first + rng.integers(1, n_classes, size=rows.shape[0])) % n_classes
    # Ties: the row's max twice.
    rows[ties, first[ties]] = rows[ties, second[ties]] = np.abs(rows[ties]).max(axis=1)
    # Mixed +-0.0 maxima in rows of otherwise negative entries.
    rows[zeros] = -np.abs(rows[zeros]) - 1.0
    rows[zeros, first[zeros]], rows[zeros, second[zeros]] = 0.0, -0.0
    # Two of +inf, -inf and NaN in each row, in every pairing.
    specials_values = np.array([np.nan, np.inf, -np.inf])
    k = np.arange(specials.size)
    rows[specials, first[specials]] = specials_values[k % 3]
    rows[specials, second[specials]] = specials_values[(k + 1 + k // 3) % 3]
    with np.errstate(invalid="ignore"):
        expected = reference_softmax(logits)
        got = models._softmax(logits.copy())
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
@pytest.mark.parametrize("track", [None, "all", 3, 10**6], ids=["none", "all", "int", "int-all"])
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


@pytest.mark.parametrize("track", ["all", "auto", 3], ids=["all", "auto", "int"])
def test_unseeded_track_specs_share_one_read_only_id_array(track):
    x, y = random_batch(MLP, 6, seed=2)
    start = init_params(MLP, seed=2)
    reports = train_clients(MLP, start, [(x, y)] * 3, [4, 5, 6], 1, 3, 0.1, track)
    ids = [rep.tracked for rep in reports]
    if track == 3:
        # A seeded subsample draws one array per client.
        assert len({id(a) for a in ids}) == 3
        for rep, seed in zip(reports, [4, 5, 6]):
            one = local_train(MLP, start, (x, y), 1, 3, 0.1, seed, track)
            assert rep.tracked.tobytes() == one.tracked.tobytes()
    else:
        assert all(a is ids[0] for a in ids) and not ids[0].flags.writeable
        assert ids[0].dtype == np.int64 and np.array_equal(ids[0], np.arange(start.size))


def test_diagnostic_clients_with_mixed_label_dtypes_train_together():
    # The diagnostic model never reads its labels, whatever their dtype.
    x, y = random_batch(QUAD, 6, seed=2)
    start = init_params(QUAD, seed=2)
    labels = [y.astype(np.int32), y + 0.5, y.astype(np.uint8)]
    reports = train_clients(QUAD, start, [(x, lab) for lab in labels], [1, 2, 3], 2, 4, 0.1)
    for rep, seed in zip(reports, [1, 2, 3]):
        one = local_train(QUAD, start, (x, y), 2, 4, 0.1, seed)
        assert rep.params_after.tobytes() == one.params_after.tobytes()


def test_shuffle_orders_are_one_read_only_block_per_chunk(monkeypatch):
    # Each lockstep chunk draws its orders in one call, from the seed words
    # it is given or, given none, from words it derives: the same bits.
    blocks = []
    shuffle_orders = models._shuffle_orders
    monkeypatch.setattr(models, "_shuffle_orders",
                        lambda *a, **kw: blocks.append(shuffle_orders(*a, **kw)) or blocks[-1])
    x, y = random_batch(LOGISTIC, 9, seed=3)
    start = init_params(LOGISTIC, seed=0)
    first = train_clients(LOGISTIC, start, [(x, y), (x, y)], [5, 6], 2, 4, 0.1)
    (orders,) = blocks
    assert orders.dtype == np.uint8 and orders.shape == (2, 2, 9)
    for (e, seed), order in zip([(0, 5), (0, 6), (1, 5), (1, 6)], orders.reshape(4, 9)):
        assert np.array_equal(order, derive_rng(seed, "shuffle", e).permutation(9))
    with pytest.raises(ValueError, match="read-only"):
        orders[0, 0, 0] = 1
    words = models._shuffle_words([5, 6], 2)
    given = train_clients(LOGISTIC, start, [(x, y), (x, y)], [5, 6], 2, 4, 0.1, words=words)
    assert [r.params_after.tobytes() for r in given] == [r.params_after.tobytes() for r in first]
    assert len(blocks) == 2 and np.array_equal(blocks[1], orders)
    # The smallest unsigned type that holds every index.
    assert [shuffle_orders(1, n, 0).dtype for n in (1, 256, 257, 65537)] == [
        np.uint8, np.uint8, np.uint16, np.uint32]


@pytest.mark.parametrize("spec, epochs, batch_size, scales, message, track", [
    *(pytest.param(LOGISTIC, epochs, 6, {1: 1e300}, message, track,
                   id=f"{epochs}-{message}" + ("" if track is None else f"-track={track}"))
      for epochs, message in [
          (2, "^non-finite parameters$"),                       # fails mid-run
          (1, "^parameters diverged during local training$"),   # at its last step
      ]
      for track in (None, "all", 3, 10**6)),
    # Long runs: each diverging row fails, restarts from the broadcast model
    # and diverges again, 8 to 17 times in 18 steps. mlp1's saturated tanh
    # holds merely huge features, so its rows carry infinite ones.
    *(pytest.param(spec, 6, 2, scales, "^non-finite parameters$", track,
                   id=f"long-{spec.kind}" + ("" if track is None else f"-track={track}"))
      for spec, scales in [(LOGISTIC, {1: 1e300, 3: 1e150}), (MLP, {1: 1e308, 3: np.inf})]
      for track in (None, "all", 3)),
])
def test_train_clients_isolates_a_diverging_client(
    spec, epochs, batch_size, scales, message, track,
):
    # The scaled clients' huge features overflow their first update; the
    # other clients of their group train on as if alone, paths included.
    start = init_params(spec, seed=2)
    clients = [random_batch(spec, 6, seed=40 + i) for i in range(4)]
    with np.errstate(over="ignore"):
        for i, scale in scales.items():
            clients[i] = (clients[i][0] * scale, clients[i][1])
    seeds = [7, 8, 9, 10]
    reports = train_clients(spec, start, clients, seeds, epochs, batch_size, 1e10, track)
    for i in scales:
        assert isinstance(reports[i], NumericError)
        assert str(reports[i]) == message.strip("^$")
        with pytest.raises(NumericError, match=message):
            local_train(spec, start, clients[i], epochs, batch_size, 1e10, seeds[i], track)
    for i in sorted(set(range(4)) - scales.keys()):
        one = local_train(spec, start, clients[i], epochs, batch_size, 1e10, seeds[i], track)
        theta, path = reference_local_train(
            spec, start, clients[i], epochs, batch_size, 1e10, seeds[i])
        assert reports[i].params_after.tobytes() == one.params_after.tobytes() == theta.tobytes()
        assert reports[i].update_norm == one.update_norm
        if track is None:
            assert reports[i].path is None
        else:
            assert reports[i].tracked.tobytes() == one.tracked.tobytes()
            assert reports[i].path.tobytes() == one.path.tobytes() == path[:, one.tracked].tobytes()


@pytest.mark.parametrize("scales, calls", [
    # Client 0 fails after one step and client 1 after two: the check of the
    # stack before the third step fails client 1, so no third call is made.
    ((1e300, 1e200), 2),
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


def test_a_diverging_pair_steps_as_a_pair_to_the_end(monkeypatch):
    # Client 0 fails after its first step and its row restarts; the pair
    # steps as one (2, P) stack for all 9 steps of client 1.
    shapes = record_param_shapes(monkeypatch)
    start = init_params(LOGISTIC, seed=2)
    x, y = random_batch(LOGISTIC, 6, seed=41)
    reports = train_clients(LOGISTIC, start, [(x * 1e300, y), (x, y)], [8, 8], 3, 2, 1e10)
    assert isinstance(reports[0], NumericError) and not isinstance(reports[1], NumericError)
    assert shapes == [(2, LOGISTIC.param_count)] * 9


def test_no_gradient_call_on_non_finite_parameters(monkeypatch):
    # A lone client fails at the trainer's own check before the step that
    # would start from non-finite parameters; no call is made for that step.
    start = init_params(LOGISTIC, seed=2)
    x, y = random_batch(LOGISTIC, 6, seed=41)
    with np.errstate(over="ignore", invalid="ignore"):
        _, path = reference_local_train(LOGISTIC, start, (x * 1e300, y), 3, 2, 1e10, 8)
    finite = np.isfinite(path).all(axis=1)
    steps = int(np.argmin(finite))  # the first step whose result is non-finite
    assert not finite[steps] and finite[:steps].all() and steps < len(path) - 1
    counted = count_gradient_calls(monkeypatch)
    (report,) = train_clients(LOGISTIC, start, [(x * 1e300, y)], [8], 3, 2, 1e10)
    assert len(counted) == steps
    assert isinstance(report, NumericError) and str(report) == "non-finite parameters"


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, QUAD], ids=lambda s: s.kind)
@pytest.mark.parametrize("sizes", [(9, 9, 9), (9,)], ids=["stacked", "lone"])
def test_trainer_skips_its_checks_a_user_call_keeps_them_bitwise(monkeypatch, spec, sizes):
    # The trainer checks each client's data once at entry and never computes
    # a loss; its steps give the bits of a one-client-at-a-time reference.
    counts = {"_check_batch": 0, "_ce_loss": 0}
    for name in counts:
        def counted(*args, _fn=getattr(models, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(models, name, counted)
    start = init_params(spec, seed=1)
    clients = [random_batch(spec, n, seed=90 + i) for i, n in enumerate(sizes)]
    seeds = list(range(5, 5 + len(sizes)))
    reports = train_clients(spec, start, clients, seeds, 2, 4, 0.3)
    assert counts == {"_check_batch": len(sizes), "_ce_loss": 0}
    monkeypatch.undo()
    for data, seed, rep in zip(clients, seeds, reports):
        theta, _ = reference_local_train(spec, start, data, 2, 4, 0.3, seed)
        assert rep.params_after.tobytes() == theta.tobytes()
    # A caller's own dict keeps every check and the loss, bit for bit.
    for g in (None, 3):
        params, (x, y) = stacked_call(spec, g, 5, seed=7)
        ref_loss, ref_grad = loss_and_grad(spec, params, (x, y))
        loss, grad = loss_and_grad(spec, params, (x, y), {})
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert np.asarray(loss).shape == (() if g is None else (g,))
        assert grad.tobytes() == ref_grad.tobytes()
        # The trainer's scratch gives the same gradient and no loss.
        loss, grad = loss_and_grad(spec, params, (x, y), models._Checked())
        assert loss is None and grad.tobytes() == ref_grad.tobytes()
        with pytest.raises(ValueError, match="feature dim"):
            loss_and_grad(spec, params, (x[..., :2], y), {})
        if spec.kind != "quadratic-diagnostic":  # which never reads its labels
            bad = y.copy()
            bad.flat[0] = spec.n_classes
            with pytest.raises(ValueError, match="label outside"):
                loss_and_grad(spec, params, (x, bad), {})
        nan = params.copy()
        nan.flat[-1] = np.nan
        with pytest.raises(NumericError, match="^non-finite parameters$"):
            loss_and_grad(spec, nan, (x, y), {})


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


@pytest.mark.parametrize("track", ["all", 3], ids=["all", "int"])
def test_tracked_paths_are_rows_of_their_chunks_array(monkeypatch, track):
    # Sizes 9, 5, 9 and 9 in chunks of at most 2: the 9s split into [0, 2]
    # and [3], and the 5 is a lone client. Each path is row g of its chunk's
    # C-contiguous (G, T, k) array, the chunk's clients in ascending order.
    monkeypatch.setattr(models, "_LOCKSTEP_ELEMENTS", 2 * LOGISTIC.param_count)
    start = init_params(LOGISTIC, seed=1)
    clients = [random_batch(LOGISTIC, n, seed=70 + i) for i, n in enumerate((9, 5, 9, 9))]
    reports = train_clients(LOGISTIC, start, clients, [1, 2, 3, 4], 2, 4, 0.1, track)
    k = LOGISTIC.param_count if track == "all" else 3
    for chunk in ([0, 2], [1], [3]):
        stack = reports[chunk[0]].path.base
        assert stack.flags.c_contiguous and stack.dtype == np.float64
        assert stack.shape == (len(chunk), reports[chunk[0]].steps_taken + 1, k)
        for g, i in enumerate(chunk):
            assert reports[i].path.base is stack
            assert reports[i].path.__array_interface__ == stack[g].__array_interface__


@pytest.mark.parametrize("track", ["all", 3, 1], ids=["all", "int", "one"])
def test_band_fractions_fit_a_read_only_chunk_in_place(monkeypatch, track):
    # The engine hands band_fractions the array that training recorded and
    # that the reports' paths view: its moments are taken where it lies, a
    # block at a time, and it is never written.
    start = init_params(LOGISTIC, seed=1)
    clients = [random_batch(LOGISTIC, 9, seed=80 + i) for i in range(3)]
    reports = train_clients(LOGISTIC, start, clients, [1, 2, 3], 2, 4, 0.1, track)
    stack = reports[0].path.base
    before = stack.tobytes()
    stack.flags.writeable = False
    blocks = []
    moments = ou._shifted_moments
    monkeypatch.setattr(ou, "_shifted_moments",
                        lambda block, *out: blocks.append(block) or moments(block, *out))
    # Blocks of 2 rows of (T - 1) x k elements: [0, 1] and [2].
    _, t, k = stack.shape
    monkeypatch.setattr(ou, "_BLOCK_ELEMENTS", 2 * (t - 1) * k)
    got = ou.band_fractions(stack)
    monkeypatch.undo()
    assert stack.tobytes() == before
    assert [rep.path.tobytes() for rep in reports] == [row.tobytes() for row in stack]
    assert got == [ou.band_fraction(rep.path[-1], ou.fit_ou_ls_columns(rep.path, 1.0))
                   for rep in reports]
    # The blocks read are views of the array.
    assert [len(block) for block in blocks] == [2, 1]
    assert all(block.base is stack for block in blocks)


def test_train_clients_rejects_bad_arguments():
    data = random_batch(LOGISTIC, 10, seed=3)
    start = init_params(LOGISTIC, seed=3)
    with pytest.raises(ValueError, match="one seed per client"):
        train_clients(LOGISTIC, start, [data, data], [0], 1, 4, 0.1)
    with pytest.raises(ValueError):
        train_clients(LOGISTIC, start, [data, (data[0][:, :2], data[1])], [0, 1], 1, 4, 0.1)
    assert train_clients(LOGISTIC, start, [], [], 1, 4, 0.1) == []


@pytest.mark.parametrize("shape, dtype", [
    ((2, 2, 4), np.uint64),   # one epoch short: the last would go unshuffled
    ((1, 3, 4), np.uint64),   # one client short
    ((3, 3, 4), np.uint64),   # one client too many
    ((2, 3, 2), np.uint64),   # half a PCG64 seed
    ((2, 3, 4), np.float64),
    ((2, 3, 4), np.bool_),
])
def test_train_clients_rejects_mis_shaped_words(shape, dtype):
    clients = [random_batch(LOGISTIC, 7, seed=s) for s in (1, 2)]
    start = init_params(LOGISTIC, seed=1)
    words = np.ones(shape, dtype)
    with pytest.raises(ValueError, match=r"^words must be a \(2, 3, 4\) integer array"):
        train_clients(LOGISTIC, start, clients, [1, 2], 3, 2, 0.1, words=words)


def test_train_clients_takes_words_of_any_integer_dtype():
    # Signed words carry the same bits as the uint64 words they stand for.
    clients = [random_batch(LOGISTIC, 7, seed=s) for s in (1, 2)]
    start = init_params(LOGISTIC, seed=1)
    words = models._shuffle_words([1, 2], 3)
    reference = train_clients(LOGISTIC, start, clients, [1, 2], 3, 2, 0.1)
    for given in (words, words.view(np.int64), words.view(np.int64).tolist()):
        got = train_clients(LOGISTIC, start, clients, [1, 2], 3, 2, 0.1, words=given)
        assert [r.params_after.tobytes() for r in got] == [
            r.params_after.tobytes() for r in reference]


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=lambda s: s.kind)
def test_classifiers_reject_non_integer_labels(spec):
    # A cast would truncate [0.9, 1.9] to [0, 1] and train on it unnoticed.
    x, y = random_batch(spec, 4, seed=6)
    params = init_params(spec, seed=6)
    message = "^labels must be integer class indices$"
    for bad in (y + 0.9, y.astype(np.float64), y.astype(bool)):
        with pytest.raises(ValueError, match=message):
            loss_and_grad(spec, params, (x, bad))
        with pytest.raises(ValueError, match=message):
            loss_and_grad(spec, np.stack([params, params]), (np.stack([x, x]), np.stack([bad, bad])))
        with pytest.raises(ValueError, match=message):
            train_clients(spec, params, [(x, y), (x, bad)], [0, 1], 1, 2, 0.1)
        with pytest.raises(ValueError, match=message):
            evaluate(spec, params, x, bad)
    for good in (y.astype(np.uint8), y.astype(np.int32), y.tolist()):
        assert loss_and_grad(spec, params, (x, good))[0] == loss_and_grad(spec, params, (x, y))[0]


def test_diagnostic_model_ignores_label_dtype():
    x, y = random_batch(QUAD, 4, seed=6)
    params = init_params(QUAD, seed=6)
    assert loss_and_grad(QUAD, params, (x, y + 0.5))[0] == loss_and_grad(QUAD, params, (x, y))[0]


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
    with pytest.raises(ValueError, match="input_dim must be >= 1"):
        ModelSpec("logistic", input_dim=0, n_classes=2)
    with pytest.raises(ValueError):
        ModelSpec("mlp1", input_dim=4, n_classes=3, hidden_dim=0)
    with pytest.raises(ValueError):
        LOGISTIC.layer_views(np.zeros(5))
    with pytest.raises(ValueError):
        LOGISTIC.layer_views(np.zeros((1, LOGISTIC.param_count)))
