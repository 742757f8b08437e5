"""Round-based federated averaging with communication-aware participation.

One round runs: select m = max(floor(C*K), 1) clients -> broadcast the
global model -> each selected client trains locally -> (adaptive policies
only) clients report one scalar each, the server broadcasts the resulting
threshold -> each client decides send or suppress -> senders upload their
full model (ACK), the rest a stub (NACK) -> the server fills NACK slots
with an estimate -> sample-size-weighted aggregation -> evaluation.

Band policies' statistics are computed for the whole round in one
``band_fractions`` call, bit for bit the per-client fits. It gives each
client its statistic or its fit's error, so that the round raises the
error, and the client, that fitting client by client would.

Byte accounting is exact and single-precision-based regardless of the
double-precision arithmetic: 4 bytes per parameter, 8 bytes per sample
count, 4 bytes per reported scalar or broadcast threshold.

Determinism contract: every random draw comes from a stream derived from
(seed, purpose, round, client), so concurrent client execution, rerun
order, and platform cannot change results. Selected clients are processed
in ascending client-id order, and aggregation follows the anchored form

    theta_next = x_0 + sum_i w_i * (x_i - x_0),    w_i = n_i / sum_j n_j

accumulated in that same order (x_0 is the first estimate). The anchored
form is the plain weighted mean rearranged, with one extra property worth
pinning: a round where every estimate equals theta_t reproduces theta_t
bitwise, so zero-sender rounds cannot drift the model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import FederatedDataset
from .errors import NumericError
from .models import (
    ModelSpec,
    _check_sgd_knobs,
    evaluate,
    init_params,
    local_train,  # noqa: F401 - engine.local_train stays resolvable (bench/tracer.py wraps it)
    train_clients,
)
from .ou import OUFit, band_fractions, decode, fit_ou_ls_columns
from .ou import band_fraction  # noqa: F401 - stays resolvable (bench/tracer.py wraps it)
from .policies import (
    NORM_POLICIES,
    PolicyConfig,
    compute_adaptive_threshold,
    local_decide,
)
from .seeding import check_seed, derive_rng, seed_sequence

PARAM_BYTES = 4      # single-precision payload accounting
COUNT_BYTES = 8      # n_i attached to every message
SCALAR_BYTES = 4     # adaptive pre-phase report and threshold broadcast

NACK_MODES = ("carry_forward", "ou_decode")

METRICS_HEADER = (
    "round,policy,selected,senders,threshold,uplink_bytes,"
    "cum_uplink_bytes,downlink_bytes,test_acc,test_loss,seed"
)


def _round_size(n_clients: int, fraction: float) -> int:
    """m = max(floor(C*K), 1), once K and C are checked. The floor is taken
    exactly, in integers, on C's shortest decimal, so C=0.29 at K=100 gives
    29 clients, not the 28 that the float product 28.999999999999996 would."""
    if n_clients < 1:
        raise ValueError("K (n_clients) must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("C (client_fraction) must lie in (0, 1]")
    # C <= 1, so its repr has no positive exponent: "0.29", "1.0", "1.5e-07".
    digits, _, exp = repr(float(fraction)).partition("e")
    whole, _, frac = digits.partition(".")
    return max(int(whole + frac) * n_clients // 10 ** (len(frac) - int(exp or 0)), 1)


def _check_nack_mode(mode: str) -> None:
    if mode not in NACK_MODES:
        raise ValueError(f"nack_estimate_mode must be one of {', '.join(NACK_MODES)}")


@dataclass(frozen=True)
class RoundConfig:
    """Protocol knobs shared by every round of an experiment: the one place
    their ranges are checked. A message names the config key, so that a
    config's ConfigError does too."""

    n_clients: int
    client_fraction: float
    epochs: int
    batch_size: int
    eta: float
    policy: PolicyConfig
    nack_estimate_mode: str = "carry_forward"
    seed: int = 0
    track: None | str | int = "auto"
    history_len: int = 20

    def __post_init__(self) -> None:
        _round_size(self.n_clients, self.client_fraction)  # checks K and C
        _check_sgd_knobs(self.epochs, self.batch_size, self.eta, self.track)
        _check_nack_mode(self.nack_estimate_mode)
        check_seed(self.seed)
        if self.history_len < 3:
            raise ValueError("history_len must be >= 3")


@dataclass
class ServerState:
    """Global model, round counter, and the recent-model history used by
    the decoding estimator. history[-1] is always the current model;
    ou_estimate caches the round's decoded NACK estimate."""

    global_params: np.ndarray
    round: int = 0
    history: list[np.ndarray] = field(default_factory=list)
    history_len: int = 20
    ou_estimate: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.history:
            self.history = [self.global_params.copy()]

    def advance(self, new_params: np.ndarray) -> None:
        self.global_params = new_params
        self.round += 1
        self.history.append(new_params.copy())
        if len(self.history) > self.history_len:
            del self.history[: len(self.history) - self.history_len]
        self.ou_estimate = None


@dataclass(frozen=True)
class UpdateMessage:
    """Client upload: full parameters (ACK) or sample count only (NACK)."""

    client_id: int
    n_samples: int
    params: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def ack(self) -> bool:
        return self.params is not None


@dataclass(frozen=True)
class RoundReport:
    round_idx: int
    selected: tuple[int, ...]
    senders: tuple[int, ...]
    threshold: float | None
    uplink_bytes: int
    cum_uplink_bytes: int
    downlink_bytes: int
    test_acc: float
    test_loss: float
    ou_fallback: bool = False


@dataclass
class CommLedger:
    """Running communication totals of a run. Each round's own counts live
    in its RoundReport; the ledger keeps only the round count and the
    uplink and downlink byte sums."""

    rounds: int = field(default=0, init=False)
    total_uplink: int = field(default=0, init=False)
    total_downlink: int = field(default=0, init=False)

    def append(self, selected: int, senders: int, uplink: int, downlink: int) -> None:
        if not 0 <= senders <= selected:
            raise ValueError("senders must lie in [0, selected]")
        self.rounds += 1
        self.total_uplink += uplink
        self.total_downlink += downlink


def select_clients(
    n_clients: int, fraction: float, round_idx: int, seed: int
) -> np.ndarray:
    """The round's participant set: uniform without replacement, ascending
    ids, deterministic per (seed, round)."""
    m = _round_size(n_clients, fraction)
    rng = derive_rng(seed, "select", round_idx)
    return np.sort(rng.choice(n_clients, size=m, replace=False)).astype(np.int64)


def client_train_seed(seed: int, round_idx: int, client_id: int) -> int:
    """Stable integer seed for one client's local work in one round: the
    stream's first two 32-bit words, low word first (its first uint64)."""
    low, high = seed_sequence(seed, "train", round_idx, client_id).generate_state(2).tolist()
    return low | high << 32


def message_bytes(msg: UpdateMessage, n_params: int) -> int:
    """Uplink cost of one client message."""
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    if msg.ack:
        return PARAM_BYTES * n_params + COUNT_BYTES
    return COUNT_BYTES


def broadcast_bytes(n_params: int, n_receivers: int) -> int:
    """Downlink cost of sending the model to the selected clients."""
    return PARAM_BYTES * n_params * n_receivers


def _ou_fit(values: np.ndarray, dt: float, what: str) -> OUFit:
    """Column-wise OU fit of finite paths; a fit statistic that overflows
    to a non-finite value is a NumericError naming ``what``."""
    try:
        return fit_ou_ls_columns(values, dt=dt)
    except ValueError as exc:
        raise NumericError(f"OU fit of {what} non-finite: {exc}") from exc


def server_estimate(
    msg: UpdateMessage, state: ServerState, mode: str
) -> tuple[np.ndarray, bool]:
    """The server's stand-in for one client's round-end model.

    ACK payloads pass through verbatim. NACKs are filled with the current
    global model (carry_forward) or, in ou_decode mode, with the
    one-round-ahead conditional mean of each coordinate's fitted process;
    coordinates whose fits are flagged fall back to the global value. The
    decoded estimate is the same for every NACK of a round, so it is
    computed once, at the round's first NACK, and shared: callers must not
    mutate it. A history shorter than 3 rounds forces carry_forward; the
    returned flag reports that fallback.
    """
    _check_nack_mode(mode)
    if msg.ack:
        if msg.params.shape != state.global_params.shape:
            raise ValueError("payload dimension does not match the global model")
        return msg.params, False

    theta = state.global_params
    if mode == "carry_forward":
        return theta, False

    if len(state.history) < 3:
        return theta, True
    if state.ou_estimate is None:
        fit = _ou_fit(np.stack(state.history), 1.0, f"the model history at round {state.round}")
        live = ~fit.flagged
        est = theta.copy()
        sub = fit.columns(live)
        est[live] = decode(theta[live], sub.lam, sub.mu, 1.0)
        state.ou_estimate = est
    return state.ou_estimate, False


def aggregate(estimates: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Sample-size-weighted mean over the round's estimates, in the
    anchored accumulation order fixed by the module docstring."""
    if not estimates:
        raise RuntimeError("aggregate called with no estimates")
    total = sum(n for _, n in estimates)
    if total <= 0:
        raise RuntimeError("aggregate needs positive sample counts")
    anchor = estimates[0][0]
    acc = np.zeros_like(anchor)
    for params, n in estimates:
        if params.shape != anchor.shape:
            raise ValueError("estimate dimensions differ")
        acc += (n / total) * (params - anchor)
    return anchor + acc


def run_round(
    state: ServerState,
    model: ModelSpec,
    config: RoundConfig,
    dataset: FederatedDataset,
    ledger: CommLedger,
) -> RoundReport:
    """Execute one protocol round, mutating state and appending to ledger."""
    policy = config.policy
    t = state.round
    n_params = state.global_params.size
    ids = select_clients(config.n_clients, config.client_fraction, t, config.seed).tolist()
    downlink = broadcast_bytes(n_params, len(ids))
    uplink = 0

    track = config.track if policy.needs_band_fraction else None
    trained = train_clients(
        model,
        state.global_params,
        [dataset.clients[k] for k in ids],
        [client_train_seed(config.seed, t, k) for k in ids],
        epochs=config.epochs,
        batch_size=config.batch_size,
        eta=config.eta,
        track=track,
    )
    if policy.needs_band_fraction:
        # One path row per SGD step: the fit's time unit is one step. The
        # fit stops at the first client the loop below raises for.
        fitted = itertools.takewhile(
            lambda rep: not isinstance(rep, NumericError) and rep.path.shape[0] >= 3, trained)
        bands = band_fractions([rep.path for rep in fitted])
    # Each client's decision statistic, in id order. The first failure in
    # client-id order wins, and a client's training failure comes before its
    # decision statistic's: what training and checking one client after
    # another would raise.
    stats = []
    for i, (k, rep) in enumerate(zip(ids, trained)):
        if isinstance(rep, NumericError):
            raise rep
        if policy.needs_band_fraction:
            if rep.path.shape[0] < 3:
                raise ValueError(
                    "band policies need at least 2 local steps per round "
                    "(epochs * ceil(n_i / batch_size) >= 2)"
                )
            stat = bands[i]
            if isinstance(stat, ValueError):
                raise NumericError(f"OU fit of client {k} at round {t} "
                                   f"(policy {policy.label}) non-finite: {stat}") from stat
            stats.append(stat)
        elif policy.kind in NORM_POLICIES and not math.isfinite(rep.update_norm):
            raise NumericError(
                f"update norm of client {k} non-finite at round {t} (policy {policy.label})"
            )
        else:
            stats.append(rep.update_norm)

    threshold = policy.fixed_threshold
    if policy.adaptive:
        uplink += SCALAR_BYTES * len(ids)
        threshold = compute_adaptive_threshold(np.array(stats))
        downlink += SCALAR_BYTES * len(ids)

    estimates: list[tuple[np.ndarray, int]] = []
    senders: list[int] = []
    ou_fallback = False
    for k, rep, stat in zip(ids, trained, stats):
        rng = derive_rng(config.seed, "decide", t, k) if policy.kind == "random" else None
        send = local_decide(policy, stat, threshold, rng)
        msg = UpdateMessage(k, rep.n_samples, rep.params_after if send else None)
        uplink += message_bytes(msg, n_params)
        est, fell_back = server_estimate(msg, state, config.nack_estimate_mode)
        ou_fallback = ou_fallback or fell_back
        estimates.append((est, rep.n_samples))
        if send:
            senders.append(k)

    new_params = aggregate(estimates)
    if not np.isfinite(new_params).all():
        raise NumericError(
            f"aggregated model non-finite at round {t} (policy {policy.label})"
        )
    state.advance(new_params)

    test_acc, test_loss = evaluate(model, new_params, *dataset.test_set)
    ledger.append(len(ids), len(senders), uplink, downlink)
    return RoundReport(
        round_idx=t,
        selected=tuple(ids),
        senders=tuple(senders),
        threshold=threshold,
        uplink_bytes=uplink,
        cum_uplink_bytes=ledger.total_uplink,
        downlink_bytes=downlink,
        test_acc=test_acc,
        test_loss=test_loss,
        ou_fallback=ou_fallback,
    )


def _check_client_count(n_clients: int, dataset: FederatedDataset) -> None:
    """K must equal the dataset's client count."""
    if dataset.n_clients != n_clients:
        raise ValueError(
            f"K (n_clients) = {n_clients} but the dataset has {dataset.n_clients} clients"
        )


def _validate_experiment(
    model: ModelSpec, config: RoundConfig, dataset: FederatedDataset, rounds: int
) -> None:
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    _check_client_count(config.n_clients, dataset)
    if model.input_dim != dataset.dim:
        raise ValueError("model input_dim does not match dataset dim")
    if model.kind != "quadratic-diagnostic" and model.n_classes < dataset.n_classes:
        raise ValueError(
            f"model n_classes = {model.n_classes} but the dataset has {dataset.n_classes} classes"
        )
    if config.policy.needs_band_fraction:
        if config.track is None:
            raise ValueError(
                "band policies need tracked coordinates; "
                "track_coordinates must not be null"
            )
        min_n = int(dataset.client_sizes().min())
        steps = config.epochs * math.ceil(min_n / config.batch_size)
        if steps < 2:
            raise ValueError(
                "band policies need at least 2 local steps per round; "
                f"epochs={config.epochs}, batch_size={config.batch_size} "
                f"gives {steps} for the smallest client"
            )


def _check_history(state: ServerState) -> None:
    """A passed state's history holds 1 to history_len (P,) models, the last
    of them global_params (NaN compared equal, so that a non-finite state
    still fails in its round, as a NumericError)."""
    shape = np.shape(state.global_params)
    for i, model in enumerate(state.history):
        if np.shape(model) != shape:
            raise ValueError(f"state.history[{i}] must be a {shape} vector, "
                             f"got shape {np.shape(model)}")
    if len(state.history) > state.history_len:
        raise ValueError(f"state.history holds {len(state.history)} models, more than "
                         f"history_len {state.history_len}")
    if not (state.history and np.array_equal(state.history[-1], state.global_params,
                                              equal_nan=True)):
        raise ValueError("state.history[-1] must be state.global_params")


def iter_rounds(
    model: ModelSpec,
    config: RoundConfig,
    dataset: FederatedDataset,
    rounds: int,
    ledger: CommLedger,
    state: ServerState | None = None,
):
    """An iterator with one RoundReport per round; state/ledger mutate as it
    goes. An inconsistent experiment (a passed state's parameter shape,
    history_len and history included) raises ValueError at the call, before
    any round runs."""
    _validate_experiment(model, config, dataset, rounds)
    if state is None:
        state = ServerState(
            global_params=init_params(model, config.seed),
            history_len=config.history_len,
        )
    elif np.shape(state.global_params) != (model.param_count,):
        raise ValueError(f"state.global_params must be a ({model.param_count},) vector, "
                         f"got shape {np.shape(state.global_params)}")
    elif state.history_len != config.history_len:
        raise ValueError(f"state.history_len {state.history_len} does not match "
                         f"history_len {config.history_len}")
    else:
        _check_history(state)
    return (run_round(state, model, config, dataset, ledger) for _ in range(rounds))


def run_experiment(
    model: ModelSpec,
    config: RoundConfig,
    dataset: FederatedDataset,
    rounds: int,
) -> tuple[list[RoundReport], CommLedger]:
    """Run the full horizon and collect every round's report."""
    ledger = CommLedger()
    reports = list(iter_rounds(model, config, dataset, rounds, ledger))
    return reports, ledger


def format_metrics_row(report: RoundReport, policy_label: str, seed: int) -> str:
    """One CSV row matching METRICS_HEADER; floats at 6 significant digits.
    The threshold field is empty for policies that have none."""
    thr = "" if report.threshold is None else format(report.threshold, ".6g")
    return ",".join(
        [
            str(report.round_idx),
            policy_label,
            str(len(report.selected)),
            str(len(report.senders)),
            thr,
            str(report.uplink_bytes),
            str(report.cum_uplink_bytes),
            str(report.downlink_bytes),
            format(report.test_acc, ".6g"),
            format(report.test_loss, ".6g"),
            str(seed),
        ]
    )
