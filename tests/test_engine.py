"""Tests for the round protocol: selection, estimation, aggregation,
byte accounting, and end-to-end agreement with a reference FedAvg."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from fedsample.data import FederatedDataset, synth_blobs
from fedsample.engine import (
    METRICS_HEADER,
    CommLedger,
    RoundConfig,
    ServerState,
    UpdateMessage,
    aggregate,
    broadcast_bytes,
    client_train_seed,
    format_metrics_row,
    iter_rounds,
    message_bytes,
    run_experiment,
    select_clients,
    server_estimate,
)
from fedsample.errors import NumericError
from fedsample.models import ModelSpec, init_params, loss_and_grad
from fedsample.policies import PolicyConfig
from fedsample.seeding import derive_rng, seed_sequence

MODEL = ModelSpec("logistic", input_dim=6, n_classes=4)


def small_dataset(n_clients=10, seed=0):
    return synth_blobs(n_classes=4, dim=6, n_clients=n_clients,
                       samples_per_client=12, shards_per_client=2, seed=seed)


def config(policy, **kw):
    base = dict(n_clients=10, client_fraction=0.3, epochs=2, batch_size=4,
                eta=0.1, policy=policy, seed=0)
    base.update(kw)
    return RoundConfig(**base)


# ------------------------------------------------------------------ selection

def test_select_full_fraction_takes_everyone():
    ids = select_clients(7, 1.0, round_idx=0, seed=0)
    assert np.array_equal(ids, np.arange(7))


def test_select_tiny_fraction_takes_one():
    assert select_clients(50, 0.001, round_idx=3, seed=0).size == 1


@pytest.mark.parametrize("k", [10, 20, 50, 100, 200, 1000])
def test_select_takes_the_exact_floor_of_c_times_k(k):
    # C = c/100 selects floor(c*K/100) clients, at least one, also where the
    # float product lands just below an integer (0.29 * 100 is 28.99...).
    for c in range(1, 101):
        assert select_clients(k, c / 100, round_idx=0, seed=0).size == max(c * k // 100, 1)


def test_select_is_deterministic_and_round_varying():
    a = select_clients(50, 0.2, round_idx=5, seed=1)
    b = select_clients(50, 0.2, round_idx=5, seed=1)
    c = select_clients(50, 0.2, round_idx=6, seed=1)
    assert np.array_equal(a, b)
    assert a.size == 10 == c.size
    assert not np.array_equal(a, c)
    assert np.array_equal(a, np.sort(a))
    assert len(np.unique(a)) == a.size


# ------------------------------------------------------------ byte accounting

def test_stream_labels_hash_to_stable_words():
    # A label part enters the seed as the first 8 sha256 bytes, little-endian,
    # as two 32-bit words, low word first: SeedSequence's split of that int.
    word = int.from_bytes(hashlib.sha256(b"shuffle").digest()[:8], "little")
    for _ in range(2):
        stream = seed_sequence(3, "shuffle", 1)
        assert stream.entropy.tolist() == [3, word & 0xFFFFFFFF, word >> 32, 1]
        reference = np.random.SeedSequence([3, word, 1])
        assert np.array_equal(stream.generate_state(8), reference.generate_state(8))


def test_message_bytes_closed_forms():
    ack = UpdateMessage(client_id=0, n_samples=5, params=np.zeros(101770))
    nack = UpdateMessage(client_id=1, n_samples=5)
    assert message_bytes(ack, 101770) == 407_088
    assert message_bytes(nack, 101770) == 8
    assert broadcast_bytes(1000, 7) == 4 * 1000 * 7


# ---------------------------------------------------------------- aggregation

def test_aggregate_weighted_scalar_case():
    est = [(np.array([0.0]), 1), (np.array([4.0]), 3)]
    assert aggregate(est)[0] == pytest.approx(3.0)


def test_aggregate_identical_inputs_is_bitwise_idempotent():
    p = derive_rng(0, "agg").standard_normal(37)
    est = [(p, 3), (p, 10), (p, 1)]
    assert np.array_equal(aggregate(est), p)


def test_aggregate_rejects_bad_input():
    with pytest.raises(RuntimeError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([(np.zeros(3), 1), (np.zeros(4), 1)])


# ------------------------------------------------------------ server_estimate

def make_state(p=4, history=None):
    state = ServerState(global_params=np.arange(1.0, p + 1.0))
    if history is not None:
        state.history = [np.asarray(h, dtype=np.float64) for h in history]
    return state


def test_estimate_ack_passes_payload_through():
    state = make_state()
    payload = np.full(4, 9.0)
    est, fell = server_estimate(
        UpdateMessage(0, 5, payload), state, "carry_forward"
    )
    assert est is payload
    assert not fell


def test_estimate_nack_carry_forward_is_global_exactly():
    state = make_state()
    est, fell = server_estimate(UpdateMessage(0, 5), state, "carry_forward")
    assert np.array_equal(est, state.global_params)
    assert not fell


def test_estimate_ou_decode_short_history_falls_back():
    state = make_state()  # history length 1
    est, fell = server_estimate(UpdateMessage(0, 5), state, "ou_decode")
    assert fell
    assert np.array_equal(est, state.global_params)


def test_estimate_ou_decode_contracts_geometric_history():
    # Each coordinate decays by 0.9 per round; the fit sees a = 0.9, mu = 0,
    # so the one-round-ahead estimate is 0.9 * current.
    base = np.array([1.0, -2.0, 0.5, 3.0])
    history = [base * 0.9**t for t in range(6)]
    state = make_state(history=history)
    state.global_params = history[-1].copy()
    est, fell = server_estimate(UpdateMessage(0, 5), state, "ou_decode")
    assert not fell
    np.testing.assert_allclose(est, history[-1] * 0.9, rtol=1e-9)


def test_estimate_ou_decode_tiny_slope_lands_on_mean():
    # a just above zero wipes the dependence on the current value within
    # one round: the estimate is the fitted long-run mean.
    a, b = 1e-12, 2.0
    vals = [1.0]
    for _ in range(5):
        vals.append(a * vals[-1] + b)
    history = [np.array([v, v]) for v in vals]
    state = make_state(p=2, history=history)
    state.global_params = history[-1].copy()
    est, _ = server_estimate(UpdateMessage(0, 3), state, "ou_decode")
    np.testing.assert_allclose(est, b / (1.0 - a), rtol=1e-6)


def test_estimate_ou_decode_overflowing_fit_is_numeric_error():
    # A finite history whose regression sums overflow is a numeric failure
    # of the run, not a bad argument.
    history = [np.array([(-1.0) ** t * 1e300, 1.0 + t]) for t in range(5)]
    state = make_state(p=2, history=history)
    state.global_params = history[-1].copy()
    with pytest.raises(NumericError, match="OU fit"):
        server_estimate(UpdateMessage(0, 3), state, "ou_decode")


def test_estimate_rejects_bad_payload_and_mode():
    state = make_state()
    with pytest.raises(ValueError):
        server_estimate(UpdateMessage(0, 5, np.zeros(9)), state, "carry_forward")
    with pytest.raises(ValueError):
        server_estimate(UpdateMessage(0, 5), state, "drop")
    with pytest.raises(ValueError):
        UpdateMessage(0, 0)


# -------------------------------------------------- reference implementation

def reference_fedavg(model, dataset, n_clients, fraction, epochs, batch, eta,
                     seed, rounds):
    """Textbook federated averaging written straight from its pseudo-code:
    own selection, shuffling, SGD stepping, and anchored weighted mean.
    Shares only the gradient/init primitives and the seeding contract."""
    theta = init_params(model, seed)
    per_round = []
    for t in range(rounds):
        m = max(int(math.floor(fraction * n_clients)), 1)
        ids = np.sort(
            derive_rng(seed, "select", t).choice(n_clients, size=m, replace=False)
        )
        locals_ = []
        for k in ids:
            k = int(k)
            x, y = dataset.clients[k]
            w = theta.copy()
            ts = client_train_seed(seed, t, k)
            for e in range(epochs):
                order = derive_rng(ts, "shuffle", e).permutation(x.shape[0])
                for lo in range(0, x.shape[0], batch):
                    sel = order[lo : lo + batch]
                    _, g = loss_and_grad(model, w, (x[sel], y[sel]))
                    w = w - eta * g
            locals_.append((w, x.shape[0]))
        total = sum(n for _, n in locals_)
        anchor = locals_[0][0]
        adj = np.zeros_like(anchor)
        for w, n in locals_:
            adj += (n / total) * (w - anchor)
        theta = anchor + adj
        per_round.append(theta.copy())
    return per_round


def test_full_policy_matches_reference_bitwise():
    ds = small_dataset()
    cfg = config(PolicyConfig("full"))
    reports, _ = run_experiment(MODEL, cfg, ds, rounds=5)
    assert len(reports) == 5

    ref = reference_fedavg(MODEL, ds, cfg.n_clients, cfg.client_fraction,
                           cfg.epochs, cfg.batch_size, cfg.eta, cfg.seed, 5)
    # Re-run the engine capturing per-round params via a fresh state.
    from fedsample.engine import iter_rounds

    ledger = CommLedger()
    state = ServerState(global_params=init_params(MODEL, cfg.seed))
    for t, _ in enumerate(iter_rounds(MODEL, cfg, ds, 5, ledger, state=state)):
        assert np.array_equal(state.global_params, ref[t]), f"round {t}"


# ----------------------------------------------------------------- run rounds

def test_ft_zero_gamma_everyone_sends():
    ds = small_dataset()
    cfg = config(PolicyConfig("ft", gamma=0.0))
    reports, ledger = run_experiment(MODEL, cfg, ds, rounds=3)
    p = MODEL.param_count
    for rep in reports:
        m, s = len(rep.selected), len(rep.senders)
        assert s == m
        assert rep.uplink_bytes == s * (4 * p + 8)
        assert rep.downlink_bytes == 4 * p * m


def test_ft_infinite_gamma_freezes_model():
    ds = small_dataset()
    cfg = config(PolicyConfig("ft", gamma=math.inf))
    ledger = CommLedger()
    from fedsample.engine import iter_rounds

    state = ServerState(global_params=init_params(MODEL, cfg.seed))
    start = state.global_params.copy()
    for rep in iter_rounds(MODEL, cfg, ds, 4, ledger, state=state):
        assert len(rep.senders) == 0
        assert rep.uplink_bytes == len(rep.selected) * 8
    assert np.array_equal(state.global_params, start)


def test_ledger_conservation_and_closed_form():
    ds = small_dataset()
    p = MODEL.param_count
    for policy in (PolicyConfig("ft", gamma=0.2), PolicyConfig("at"),
                   PolicyConfig("random", q=0.5)):
        reports, ledger = run_experiment(MODEL, config(policy), ds, rounds=4)
        assert ledger.rounds == len(reports) == 4
        cum = list(itertools.accumulate(rep.uplink_bytes for rep in reports))
        assert cum == [rep.cum_uplink_bytes for rep in reports]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        for rep in reports:
            m, s = len(rep.selected), len(rep.senders)
            expected = s * (4 * p + 8) + (m - s) * 8
            if policy.adaptive:
                expected += 4 * m
            assert rep.uplink_bytes == expected
            expected_down = 4 * p * m + (4 * m if policy.adaptive else 0)
            assert rep.downlink_bytes == expected_down
        assert reports[-1].cum_uplink_bytes == ledger.total_uplink
        assert ledger.total_downlink == sum(rep.downlink_bytes for rep in reports)


def test_comm_ledger_keeps_running_totals():
    ledger = CommLedger()
    ledger.append(3, 2, 144, 180)
    ledger.append(3, 0, 24, 180)
    assert (ledger.rounds, ledger.total_uplink, ledger.total_downlink) == (2, 168, 360)
    for selected, senders in ((3, 4), (3, -1)):
        with pytest.raises(ValueError, match="senders must lie"):
            ledger.append(selected, senders, 8, 8)
    assert (ledger.rounds, ledger.total_uplink, ledger.total_downlink) == (2, 168, 360)


def test_ft_sender_sets_nest_across_gammas():
    ds = small_dataset()
    runs = {}
    for gamma in (0.1, 0.3, 0.6):
        reports, _ = run_experiment(MODEL, config(PolicyConfig("ft", gamma=gamma)), ds, 4)
        runs[gamma] = [set(r.senders) for r in reports]
    for t in range(4):
        assert runs[0.6][t] <= runs[0.3][t] <= runs[0.1][t]


def test_at_threshold_and_senders_match_recomputation():
    # Replay round 0's local training from the public seed contract and
    # check the broadcast threshold and sender set exactly.
    ds = small_dataset()
    cfg = config(PolicyConfig("at"))
    reports, _ = run_experiment(MODEL, cfg, ds, rounds=3)
    for rep in reports:
        assert rep.threshold is not None and math.isfinite(rep.threshold)

    from fedsample.models import local_train
    from fedsample.policies import compute_adaptive_threshold

    start = init_params(MODEL, cfg.seed)
    norms = {}
    for k in reports[0].selected:
        r = local_train(MODEL, start, ds.clients[k], cfg.epochs, cfg.batch_size,
                        cfg.eta, client_train_seed(cfg.seed, 0, k))
        norms[k] = r.update_norm
    gamma = compute_adaptive_threshold(np.array([norms[k] for k in reports[0].selected]))
    assert reports[0].threshold == gamma
    assert set(reports[0].senders) == {k for k, v in norms.items() if v > gamma}


def test_random_policy_sends_at_roughly_one_minus_q():
    ds = small_dataset(n_clients=40)
    cfg = config(PolicyConfig("random", q=0.25), n_clients=40, client_fraction=1.0)
    reports, _ = run_experiment(MODEL, cfg, ds, rounds=10)
    rate = sum(len(r.senders) for r in reports) / sum(len(r.selected) for r in reports)
    assert rate == pytest.approx(0.75, abs=0.08)
    for rep in reports:
        assert rep.threshold is None


def test_band_policies_run_and_decide():
    ds = small_dataset()
    for policy in (PolicyConfig("ou", r=0.5), PolicyConfig("aou")):
        reports, _ = run_experiment(MODEL, config(policy), ds, rounds=3)
        for rep in reports:
            assert 0 <= len(rep.senders) <= len(rep.selected)
        if policy.kind == "aou":
            assert all(r.threshold is not None for r in reports)


def test_ou_decode_mode_runs_and_flags_early_fallback():
    ds = small_dataset()
    cfg = config(PolicyConfig("ft", gamma=math.inf), nack_estimate_mode="ou_decode")
    reports, _ = run_experiment(MODEL, cfg, ds, rounds=5)
    # Rounds 0-1 lack history (lengths 1 and 2); later rounds can fit.
    assert reports[0].ou_fallback and reports[1].ou_fallback
    assert not any(r.ou_fallback for r in reports[2:])


def test_history_ring_buffer_is_bounded():
    ds = small_dataset()
    cfg = config(PolicyConfig("full"), history_len=3)
    from fedsample.engine import iter_rounds

    ledger = CommLedger()
    state = ServerState(global_params=init_params(MODEL, cfg.seed), history_len=3)
    for _ in iter_rounds(MODEL, cfg, ds, 6, ledger, state=state):
        assert len(state.history) <= 3
    assert np.array_equal(state.history[-1], state.global_params)


def test_experiment_is_deterministic_to_the_byte():
    ds = small_dataset()
    cfg = config(PolicyConfig("at"))
    rows = []
    for _ in range(2):
        reports, _ = run_experiment(MODEL, cfg, ds, rounds=4)
        rows.append([format_metrics_row(r, cfg.policy.label, cfg.seed) for r in reports])
    assert rows[0] == rows[1]


def test_experiment_validation_errors():
    ds = small_dataset()
    with pytest.raises(ValueError):
        run_experiment(MODEL, config(PolicyConfig("full"), n_clients=11), ds, 1)
    with pytest.raises(ValueError):
        run_experiment(MODEL, config(PolicyConfig("full")), ds, 0)
    with pytest.raises(ValueError):
        run_experiment(ModelSpec("logistic", input_dim=9, n_classes=4),
                       config(PolicyConfig("full")), ds, 1)
    with pytest.raises(ValueError):
        # 1 epoch x 1 full batch = 1 step: too short for a band fit
        run_experiment(MODEL, config(PolicyConfig("ou", r=0.5), epochs=1,
                                     batch_size=12), ds, 1)
    with pytest.raises(ValueError, match="track_coordinates must not be null"):
        run_experiment(MODEL, config(PolicyConfig("aou"), track=None), ds, 1)
    # A classifier with fewer classes than the data fails at the call, not
    # at round 0's label check.
    with pytest.raises(ValueError, match="model n_classes = 2 but the dataset has 4 classes"):
        iter_rounds(ModelSpec("logistic", input_dim=MODEL.input_dim, n_classes=2),
                    config(PolicyConfig("full")), ds, 1, CommLedger())


@pytest.mark.parametrize("shape", [(4, 7), (27,), (28, 1)])
def test_iter_rounds_rejects_a_state_of_another_shape(shape):
    # MODEL has 28 parameters: a state that does not hold one such vector
    # fails at the call, not in round 0.
    state = ServerState(global_params=np.zeros(shape))
    with pytest.raises(ValueError, match=r"must be a \(28,\) vector, got shape"):
        iter_rounds(MODEL, config(PolicyConfig("full")), small_dataset(), 1, CommLedger(),
                    state=state)


@pytest.mark.parametrize("history_len", [1, 3, 21])
def test_iter_rounds_rejects_a_state_of_another_history_len(history_len):
    # The config's checked history_len holds: a state keeping another number
    # of models fails at the call, even one the config would reject.
    state = ServerState(global_params=np.zeros(MODEL.param_count), history_len=history_len)
    with pytest.raises(ValueError, match=f"state.history_len {history_len} does not match "
                                         "history_len 20"):
        iter_rounds(MODEL, config(PolicyConfig("full")), small_dataset(), 1, CommLedger(),
                    state=state)


def state_with_history(history_len=20, **change):
    """A consistent state of MODEL two rounds in, then the given fields."""
    params = np.arange(MODEL.param_count, dtype=np.float64)
    state = ServerState(global_params=params, history_len=history_len)
    state.history = [params - 2.0, params - 1.0, params.copy()]
    for name, value in change.items():
        setattr(state, name, value)
    return state


@pytest.mark.parametrize(
    "state, message",
    [
        (state_with_history(history=[np.zeros(27), np.arange(28.0)]),
         r"^state.history\[0\] must be a \(28,\) vector, got shape \(27,\)$"),
        (state_with_history(history=[np.zeros((28, 1)), np.arange(28.0)]),
         r"^state.history\[0\] must be a \(28,\) vector, got shape \(28, 1\)$"),
        (state_with_history(history=[np.arange(28.0), np.zeros((2, 14))]),
         r"^state.history\[1\] must be a \(28,\) vector, got shape \(2, 14\)$"),
        (state_with_history(history_len=5, history=[np.arange(28.0)] * 9),
         r"^state.history holds 9 models, more than history_len 5$"),
        (state_with_history(history=[np.arange(28.0), np.zeros(28)]),
         r"^state.history\[-1\] must be state.global_params$"),
        (state_with_history(history=[]), r"^state.history\[-1\] must be state.global_params$"),
    ],
    ids=["short_entry", "column_entry", "matrix_last_entry", "nine_of_five",
         "last_is_not_params", "empty"],
)
def test_iter_rounds_rejects_an_inconsistent_history(state, message):
    # Each fails at the call, before any round runs: an entry of another
    # shape would otherwise fail inside round 0's np.stack, and an overlong
    # history would be fitted as it is.
    cfg = config(PolicyConfig("aou"), nack_estimate_mode="ou_decode",
                 history_len=state.history_len)
    ledger = CommLedger()
    with pytest.raises(ValueError, match=message):
        iter_rounds(MODEL, cfg, small_dataset(), 1, ledger, state=state)
    assert ledger.rounds == 0 and state.round == 0


def test_iter_rounds_accepts_a_consistent_history_and_a_nan_state():
    cfg = config(PolicyConfig("aou"), nack_estimate_mode="ou_decode")
    state = state_with_history()
    for _ in iter_rounds(MODEL, cfg, small_dataset(), 2, CommLedger(), state=state):
        pass
    assert state.round == 2 and len(state.history) == 5
    # A NaN model is its own history[-1]: it fails in its round, as a
    # NumericError, not at the call.
    params = np.full(MODEL.param_count, np.nan)
    state = state_with_history(global_params=params, history=[params.copy()])
    rounds = iter_rounds(MODEL, cfg, small_dataset(), 1, CommLedger(), state=state)
    with pytest.raises(NumericError):
        next(rounds)


def test_divergent_run_raises_numeric_error():
    # Softmax models saturate instead of diverging; the quadratic loss has
    # grad = theta, so a large step factor blows up geometrically.
    ds = small_dataset()
    quad = ModelSpec("quadratic-diagnostic", input_dim=6)
    cfg = config(PolicyConfig("full"), eta=1e18, epochs=3)
    with pytest.raises(NumericError):
        run_experiment(quad, cfg, ds, rounds=8)


def two_client_quadratic(sizes):
    """Quadratic-diagnostic clients of the given sizes: the model ignores
    the data, so a client's path depends only on its number of steps."""
    clients = tuple((np.zeros((n, 2)), np.zeros(n, dtype=np.int64)) for n in sizes)
    return FederatedDataset(clients=clients, test_set=clients[0], n_classes=1, dim=2)


@pytest.mark.parametrize(
    "sizes, policy, message",
    [
        # 300 steps leave client 0 finite with an overflowing update norm;
        # client 1 overflows its parameters within its 600 steps.
        ((300, 600), PolicyConfig("at"), "update norm of client 0 non-finite"),
        ((300, 600), PolicyConfig("ou", r=0.5), "OU fit of client 0 at round 0"),
        # Client 0's training error outranks client 1's norm and band errors.
        ((600, 300), PolicyConfig("at"), "^non-finite parameters$"),
        ((600, 300), PolicyConfig("ou", r=0.5), "^non-finite parameters$"),
    ],
)
def test_round_raises_the_lowest_id_clients_first_failure(sizes, policy, message):
    quad = ModelSpec("quadratic-diagnostic", input_dim=2)
    cfg = config(policy, n_clients=2, client_fraction=1.0, epochs=1, batch_size=1,
                 eta=5.0)
    with pytest.raises(NumericError, match=message):
        run_experiment(quad, cfg, two_client_quadratic(sizes), rounds=1)


@pytest.mark.parametrize(
    "sizes, message",
    [
        # Blocks [0, 1], then [2]: client 2's fit overflows in the second
        # block, ahead of client 3's training.
        ((10, 10, 300, 600), "OU fit of client 2 at round 0"),
        # Blocks [0, 1] and [3] of the 10-step paths, then [2]: client 2's
        # fit overflows in the last block, ahead of client 4's training.
        ((10, 10, 300, 10, 600), "OU fit of client 2 at round 0"),
        # Client 2's training fails ahead of client 4's overflowing fit.
        ((10, 10, 600, 10, 300), "^non-finite parameters$"),
        ((10, 10, 10, 10, 10, 300), "OU fit of client 5 at round 0"),
        # Clients 2, 3 and 4 overflow, in one block: client 2's error wins.
        ((10, 10, 300, 300, 300), "OU fit of client 2 at round 0"),
    ],
)
def test_round_error_precedence_holds_across_fit_blocks(monkeypatch, sizes, message):
    import fedsample.engine as engine
    import fedsample.ou as ou

    quad = ModelSpec("quadratic-diagnostic", input_dim=2)
    # Two 10-step paths of 2 coordinates per block, one longer path.
    monkeypatch.setattr(ou, "_BLOCK_ELEMENTS", 2 * 10 * quad.param_count)
    fitted = []
    band_fractions = engine.band_fractions
    monkeypatch.setattr(engine, "band_fractions",
                        lambda paths: fitted.append(len(paths)) or band_fractions(paths))
    cfg = config(PolicyConfig("ou", r=0.5), n_clients=len(sizes), client_fraction=1.0,
                 epochs=1, batch_size=1, eta=5.0)
    with pytest.raises(NumericError, match=message):
        run_experiment(quad, cfg, two_client_quadratic(sizes), rounds=1)
    # One block call over the clients before the first training failure.
    assert fitted == [sizes.index(600) if 600 in sizes else len(sizes)]


@pytest.mark.parametrize(
    "sizes, error, message",
    [
        # Client 1 takes one step: its 2-row path has no band statistic.
        ((10, 1, 300), ValueError, "at least 2 local steps"),
        # Client 0's overflowing fit comes before client 1's short path.
        ((300, 1, 10), NumericError, "OU fit of client 0 at round 0"),
    ],
)
def test_round_rejects_a_one_step_band_path_in_id_order(sizes, error, message):
    # iter_rounds rejects such an experiment before its first round;
    # run_round, called on its own, raises in client-id order.
    import fedsample.engine as engine

    quad = ModelSpec("quadratic-diagnostic", input_dim=2)
    cfg = config(PolicyConfig("ou", r=0.5), n_clients=len(sizes), client_fraction=1.0,
                 epochs=1, batch_size=1, eta=5.0)
    state = ServerState(global_params=init_params(quad, 0))
    with pytest.raises(error, match=message):
        engine.run_round(state, quad, cfg, two_client_quadratic(sizes), CommLedger())


def test_failing_band_round_fits_no_client_again(monkeypatch):
    # The round's one band fit names the failing client: no client's path is
    # fitted on its own after it.
    import fedsample.engine as engine

    fits = []
    fit_ou_ls_columns = engine.fit_ou_ls_columns
    monkeypatch.setattr(engine, "fit_ou_ls_columns",
                        lambda *args, **kw: fits.append(args) or fit_ou_ls_columns(*args, **kw))
    quad = ModelSpec("quadratic-diagnostic", input_dim=2)
    cfg = config(PolicyConfig("ou", r=0.5), n_clients=3, client_fraction=1.0, epochs=1,
                 batch_size=1, eta=5.0)
    with pytest.raises(NumericError, match="OU fit of client 2 at round 0"):
        run_experiment(quad, cfg, two_client_quadratic((10, 10, 300)), rounds=1)
    assert fits == []


def test_config_validation():
    with pytest.raises(ValueError):
        config(PolicyConfig("full"), client_fraction=0.0)
    with pytest.raises(ValueError):
        config(PolicyConfig("full"), client_fraction=1.2)
    with pytest.raises(ValueError):
        config(PolicyConfig("full"), batch_size=0)
    with pytest.raises(ValueError):
        config(PolicyConfig("full"), nack_estimate_mode="skip")
    with pytest.raises(ValueError):
        config(PolicyConfig("full"), history_len=2)
    assert len(select_clients(10, 0.25, 0, 0)) == 2


# -------------------------------------------------------------------- metrics

def test_metrics_row_format():
    from fedsample.engine import RoundReport

    rep = RoundReport(
        round_idx=3, selected=(1, 2, 4), senders=(2,), threshold=None,
        uplink_bytes=100, cum_uplink_bytes=400, downlink_bytes=900,
        test_acc=0.8125, test_loss=0.654321987, ou_fallback=False,
    )
    row = format_metrics_row(rep, "full", seed=42)
    assert row == "3,full,3,1,,100,400,900,0.8125,0.654322,42"
    assert METRICS_HEADER.count(",") == row.count(",")

    rep2 = RoundReport(
        round_idx=0, selected=(0,), senders=(0,), threshold=0.123456789,
        uplink_bytes=1, cum_uplink_bytes=1, downlink_bytes=2,
        test_acc=float("nan"), test_loss=1.0, ou_fallback=False,
    )
    row2 = format_metrics_row(rep2, "at", seed=0)
    assert ",0.123457," in row2
    assert ",nan," in row2


# ---------------------------------- output fingerprints, ou_decode contracts

MLP = ModelSpec("mlp1", input_dim=6, n_classes=4, hidden_dim=4)


def short_rounds(policy, model=MLP, mode="ou_decode", rounds=20):
    """Yield (state, report) per round of a short run in which some clients
    stay silent once the history is long enough."""
    from fedsample.engine import iter_rounds

    ds = small_dataset()
    cfg = config(policy, client_fraction=0.5, epochs=3, batch_size=2,
                 nack_estimate_mode=mode)
    state = ServerState(global_params=init_params(model, cfg.seed), history_len=cfg.history_len)
    for report in iter_rounds(model, cfg, ds, rounds, CommLedger(), state=state):
        yield state, report


# sha256 of the final parameter bytes and of every round's (senders,
# uplink_bytes). The ou_decode digests were recorded with the per-coordinate
# OU implementation, the carry_forward ones with the models layer that
# wrapped parameters in a class. A changed decision or a last-bit change
# that survives aggregation shows up here, unlike in the 6-digit CSVs;
# test_ou pins the OU layer's own bits.
OUTPUT_FINGERPRINT = {
    "aou": (MLP, PolicyConfig("aou"), "ou_decode",
            "b53ccefa73207ffd0512f9219f27cda257194563fb00ca1c7c00dd4203f4b484"),
    "ou_r0.3": (MLP, PolicyConfig("ou", r=0.3), "ou_decode",
                "b5407389ab2140ff92519d6506356198cd80bfdf2c35a3b3576833f5f1ac2abe"),
    "ft_g0.5-mlp1-carry_forward": (
        MLP, PolicyConfig("ft", gamma=0.5), "carry_forward",
        "097fb05a50d087653a2ef5840e039608eb47484eecd2032023078e670cebf881"),
    "at-mlp1-carry_forward": (
        MLP, PolicyConfig("at"), "carry_forward",
        "8aad4ec55f635c3c9ea6c585d3534680dc74423da54ab0fc4cca53f58d7c383a"),
    "ft_g0.5-logistic-carry_forward": (
        MODEL, PolicyConfig("ft", gamma=0.5), "carry_forward",
        "2da482bc135a2fbeb7acc88779e8a8af447da2c9facd9e7b945aa91c34c779f5"),
    "at-logistic-carry_forward": (
        MODEL, PolicyConfig("at"), "carry_forward",
        "2669bc2bfcc99555ed0077b0e16f593850a3025d8f02ab5f30711a98120f1130"),
}


@pytest.mark.parametrize("case", list(OUTPUT_FINGERPRINT))
def test_ou_decode_output_fingerprint_bitwise(case):
    model, policy, mode, expected = OUTPUT_FINGERPRINT[case]
    reports = []
    for state, report in short_rounds(policy, model, mode):
        reports.append(report)
    final = state.global_params
    rounds = [(r.senders, r.uplink_bytes) for r in reports]
    # Silent clients once the history is long enough, so the NACK estimate
    # reaches the model.
    assert any(len(r.senders) < len(r.selected) for r in reports[2:])
    digest = hashlib.sha256(final.tobytes() + repr(rounds).encode()).hexdigest()
    assert digest == expected


def test_ou_decode_estimates_once_per_round(monkeypatch):
    import fedsample.engine as engine

    calls = []
    decode = engine.decode

    def counted(*args, **kwargs):
        calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(engine, "decode", counted)
    per_round = []
    for _, report in short_rounds(PolicyConfig("aou")):
        per_round.append((len(calls), len(report.selected) - len(report.senders)))
        calls.clear()
    # Rounds 0-1 lack history; from then on every round with a silent
    # client decodes exactly once, however many clients are silent.
    assert max(nacks for _, nacks in per_round[2:]) >= 2
    assert [n for n, _ in per_round[:2]] == [0, 0]
    assert all(n == int(nacks > 0) for n, nacks in per_round[2:])


def test_band_rounds_map_no_log(monkeypatch):
    # The band is closed-form in the regression: the per-element math.log
    # map runs only where a rate is asked for, which is the server's decode.
    import fedsample.ou as ou

    maps = []
    elementwise = ou._elementwise

    def counted(fn, x):
        maps.append(fn)
        return elementwise(fn, x)

    monkeypatch.setattr(ou, "_elementwise", counted)
    for _ in short_rounds(PolicyConfig("aou"), mode="carry_forward", rounds=5):
        pass
    assert maps == []

    per_round = []
    for _, report in short_rounds(PolicyConfig("aou"), rounds=5):
        per_round.append((maps.count(math.log), maps.count(math.exp),
                          len(report.selected) - len(report.senders)))
        maps.clear()
    # One log map (the decoded columns' rate) and one exp map (the decode)
    # in each round that decodes, none in the others.
    assert any(nacks for _, _, nacks in per_round[2:])
    assert all((logs, exps) == (int(nacks > 0),) * 2 for logs, exps, nacks in per_round[2:])
    assert [(logs, exps) for logs, exps, _ in per_round[:2]] == [(0, 0), (0, 0)]
