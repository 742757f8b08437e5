"""Round-based federated averaging with communication-aware participation.

One round runs: select m = max(floor(C*K), 1) clients -> broadcast the
global model -> each selected client trains locally -> (adaptive policies
only) clients report one scalar each, the server broadcasts the resulting
threshold -> each client decides send or suppress -> senders upload their
full model (ACK), the rest a stub (NACK) -> the server fills NACK slots
with an estimate -> sample-size-weighted aggregation -> evaluation.

Band policies' statistics are computed in place on the paths training
wrote: one ``band_fractions`` call per lockstep chunk, over the chunk's
``(G, T, k)`` array, each entry the client's share of columns outside their
band by the shifted-moments verdict, with exactly constant columns inside.
It gives each client its statistic or its own fit's error, so that the
round raises the error, and the client, that fitting client by client
would.

A run derives its rounds' policy-independent draws a window at a time:
at the first ``next``, ``iter_rounds`` takes the rounds from the current
one to the end of the run (at most ``_WINDOW_STREAMS`` streams), calls
``select_clients`` once per round, and builds every selected client's
train seed in one pass and the seed words of its E shuffle streams in
another (``_round_draws``); a direct ``run_round`` call is a one-round
window. Every run builds its own draws, and its chunks their shuffle
orders from the window's words.

Cells of one seed on one dataset object, such as a sweep's policies, share
only the dataset's replay table (``_REPLAYS``), which keeps each round in
which every selected client sends. Its key is what alone fixes the round's
outcome: the model, K, C, E, B, eta, seed, the track spec training used,
the start model's dtype and shape, and the round; under it, the start
model's bytes map to the round's statistics, next model, test accuracy and
loss. A later round with that key and start runs its own policy's checks
and decisions on the stored statistics; if it too sends everyone, it takes
a copy of the stored model, accuracy and loss, and trains, aggregates and
evaluates nothing. Rounds with a NACK or an error store nothing.

Byte accounting is exact and single-precision-based regardless of the
double-precision arithmetic: 4 bytes per parameter, 8 bytes per sample
count, 4 bytes per reported scalar or broadcast threshold. ``_round_bytes``
gives a round's totals from its selected and sender counts, for computed and
replayed rounds alike.

Determinism contract: every random draw comes from a stream derived from
(seed, purpose, round, client), so concurrent client execution and rerun
order cannot change results. The platform can: the BLAS kernel sets the
order of matmul's sums. The full-bit pins hold under OpenBLAS's Haswell,
Zen and SkylakeX kernels. Under Sandybridge and Prescott the final
parameters' last bits move (by at most 8.4e-15 relative in the pinned
runs), while every sender set and byte count stays the same. The OU
decode's ``math.log`` and ``math.exp`` come from the platform's libm, a
second source of last-bit differences that no CI job varies. Selected
clients are processed in ascending client-id order, and aggregation
follows the anchored form

    theta_next = x_0 + sum_i w_i * (x_i - x_0),    w_i = n_i / sum_j n_j

accumulated in that same order (x_0 is the first estimate). The anchored
form is the plain weighted mean rearranged, with one extra property worth
pinning: a round where every estimate equals theta_t reproduces theta_t
bitwise, so zero-sender rounds cannot drift the model.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import namedtuple

import numpy as np

from .data import FederatedDataset
from .errors import NumericError
from .models import (
    ModelSpec,
    _check_sgd_knobs,
    _shuffle_words,
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
from .seeding import _first_uint64, _rngs, _state_words, check_seed, derive_rng, seed_sequence

PARAM_BYTES = 4      # single-precision payload accounting
COUNT_BYTES = 8      # n_i attached to every message
SCALAR_BYTES = 4     # adaptive pre-phase report and threshold broadcast

NACK_MODES = ("carry_forward", "ou_decode")

# A run derives its rounds' draws a window of rounds at a time, each window
# at most this many streams (a selected client's train seed and each of its
# E shuffle streams count one). That bounds the pass's arrays, whose peak is
# about 140 bytes a stream (0.6 MB at the cap), however long the run.
_WINDOW_STREAMS = 1 << 12

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


# n_clients: int; client_fraction: float; epochs, batch_size: int; eta:
# float; policy: PolicyConfig; nack_estimate_mode: str; seed: int; track:
# None | str | int; history_len: int
_RoundConfig = namedtuple("_RoundConfig", "n_clients client_fraction epochs batch_size eta "
                          "policy nack_estimate_mode seed track history_len",
                          defaults=("carry_forward", 0, "auto", 20))


class RoundConfig(_RoundConfig):
    """Protocol knobs shared by every round of an experiment: the one place
    their ranges are checked, whenever one is built (``_replace`` included).
    A message names the config key, so that a config's ConfigError does too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _round_size(self.n_clients, self.client_fraction)  # checks K and C
        _check_sgd_knobs(self.epochs, self.batch_size, self.eta, self.track)
        _check_nack_mode(self.nack_estimate_mode)
        check_seed(self.seed)
        if self.history_len < 3:
            raise ValueError("history_len must be >= 3")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks


class ServerState:
    """Global model, round counter, and the recent-model history used by
    the decoding estimator. history[-1] is always the current model (an
    empty history starts as a copy of global_params); ou_estimate caches
    the round's decoded NACK estimate."""

    def __init__(self, global_params: np.ndarray, round: int = 0,
                 history: list[np.ndarray] | None = None, history_len: int = 20,
                 ou_estimate: np.ndarray | None = None) -> None:
        self.global_params = global_params
        self.round = round
        self.history = history or [global_params.copy()]
        self.history_len = history_len
        self.ou_estimate = ou_estimate

    def advance(self, new_params: np.ndarray) -> None:
        self.global_params = new_params
        self.round += 1
        self.history.append(new_params.copy())
        if len(self.history) > self.history_len:
            del self.history[: len(self.history) - self.history_len]
        self.ou_estimate = None


# client_id, n_samples: int; params: np.ndarray | None
_UpdateMessage = namedtuple("_UpdateMessage", "client_id n_samples params", defaults=(None,))


class UpdateMessage(_UpdateMessage):
    """Client upload: full parameters (ACK) or sample count only (NACK)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks

    @property
    def ack(self) -> bool:
        return self.params is not None


# round_idx: int; selected, senders: tuple[int, ...]; threshold: float |
# None; uplink_bytes, cum_uplink_bytes, downlink_bytes: int; test_acc,
# test_loss: float; ou_fallback: bool
class RoundReport(namedtuple("RoundReport", "round_idx selected senders threshold uplink_bytes "
                             "cum_uplink_bytes downlink_bytes test_acc test_loss ou_fallback",
                             defaults=(False,))):
    """One round's record, as its metrics row reports it."""

    __slots__ = ()


class CommLedger:
    """Running communication totals of a run. Each round's own counts live
    in its RoundReport; the ledger keeps only the round count and the
    uplink and downlink byte sums. Ledgers with equal totals are equal."""

    def __init__(self) -> None:
        self.rounds = self.total_uplink = self.total_downlink = 0

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return (f"CommLedger(rounds={self.rounds}, total_uplink={self.total_uplink}, "
                f"total_downlink={self.total_downlink})")

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
    ids, deterministic per (seed, round). Every call draws a fresh array;
    a run calls it once per round, as it builds its window's draws
    (``_round_draws``)."""
    m = _round_size(n_clients, fraction)
    rng = derive_rng(seed, "select", round_idx)
    return np.sort(rng.choice(n_clients, size=m, replace=False)).astype(np.int64)


def client_train_seed(seed: int, round_idx: int, client_id: int) -> int:
    """Stable integer seed for one client's local work in one round: the
    stream's first uint64. A run derives its window's seeds in one pass
    (``_round_draws``), each bit for bit this one."""
    return _first_uint64(seed_sequence(seed, "train", round_idx, client_id))


def _round_draws(n_clients: int, fraction: float, seed: int, epochs: int,
                 rounds: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The policy-independent draws of each of ``rounds``, in one pass: its
    selected ids (ascending) and their ``client_train_seed``s, an (m, 2)
    uint64 array, and the four PCG64 seed words of each client's E shuffle
    streams (``models._shuffle_words``), an (m, E, 4) array. Selection takes
    one ``select_clients`` call per round; the train seeds of every round
    are one ``_state_words`` pass, and their shuffle streams one more."""
    ids = np.concatenate([select_clients(n_clients, fraction, t, seed) for t in rounds])
    at = np.repeat(np.array(rounds, np.uint64), ids.size // len(rounds))
    draws = np.stack([ids.astype(np.uint64), _state_words((seed, "train", at, ids), 1)[:, 0]],
                     axis=1)
    words = _shuffle_words(draws[:, 1], epochs)
    return list(zip(np.split(draws, len(rounds)), np.split(words, len(rounds))))


def _window(config: RoundConfig, first: int, count: int) -> dict[int, tuple]:
    """The draws of rounds ``first``, ``first + 1``, ... (``count`` of them,
    fewer if their streams would pass ``_WINDOW_STREAMS``), by round, all
    built in one ``_round_draws`` pass."""
    m = _round_size(config.n_clients, config.client_fraction)
    span = max(1, min(count, _WINDOW_STREAMS // (m * (1 + config.epochs))))
    rounds = list(range(first, first + span))
    return dict(zip(rounds, _round_draws(config.n_clients, config.client_fraction, config.seed,
                                         config.epochs, rounds)))


def _round_bytes(n_params: int, selected: int, senders: int,
                 adaptive: bool) -> tuple[int, int]:
    """A round's (uplink, downlink) bytes: every selected client receives the
    model and uploads its sample count, a sender its model too, and an
    adaptive policy adds one scalar each way per selected client."""
    scalars = SCALAR_BYTES * selected if adaptive else 0
    return (PARAM_BYTES * n_params * senders + COUNT_BYTES * selected + scalars,
            PARAM_BYTES * n_params * selected + scalars)


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
        est[live] = decode(theta[live], fit.lam[live], fit.mu[live], 1.0)
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


# Each dataset's replay table, made at its first store and gone with the
# dataset: by round key, then by the start model's bytes, each computed
# all-send round's (statistics, next model, test_acc, test_loss). A round is
# charged its next model's bytes, its start's bytes unless they are the
# previous round's stored model (whose buffer the key then is), and 8 bytes
# a statistic. Not charged: object headers, tuples, dict slots and floats,
# 11.5% more (sys.getsizeof) for 20 clients a round at P=1,250. The tables
# hold at most _REPLAY_BYTES (16 MiB) over every live dataset; once full
# they store nothing more and evict nothing, so the first rounds, which the
# cells of a seed share, stay.
_REPLAY_BYTES = 1 << 24
_REPLAY_LOCK = threading.Lock()
_REPLAYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Table(dict):
    """One dataset's replay table; ``nbytes`` is its charge."""

    nbytes = 0


def _store(dataset, key, bits: bytes, stats, new_params, outcome) -> None:
    """Keep a computed all-send round under ``key`` and its start's ``bits``:
    the statistics, a read-only copy of the next model and ``outcome``
    (test_acc, test_loss), unless it is kept already or the budget is full."""
    with _REPLAY_LOCK:
        table = _REPLAYS.setdefault(dataset, _Table())
        prev = table.get(key[:-1] + (key[-1] - 1,), {})
        shared = next((m.base for _, m, *_ in prev.values() if m.base == bits), None)
        charge = new_params.nbytes + (shared is None) * len(bits) + 8 * len(stats)
        if (bits in table.get(key, ())
                or sum(t.nbytes for t in _REPLAYS.values()) + charge > _REPLAY_BYTES):
            return
        model = np.frombuffer(new_params.tobytes(), new_params.dtype)  # a trained model is a vector
        table.setdefault(key, {})[shared or bits] = (tuple(stats), model, *outcome)
        table.nbytes += charge


def run_round(
    state: ServerState,
    model: ModelSpec,
    config: RoundConfig,
    dataset: FederatedDataset,
    ledger: CommLedger,
    *,
    _draws: tuple | None = None,
) -> RoundReport:
    """Execute one protocol round, mutating state and appending to ledger.
    ``_draws`` is the round's entry of ``iter_rounds``' window; a call
    without it takes a one-round window."""
    policy = config.policy
    t = state.round
    start = state.global_params
    draws, words = _window(config, t, 1)[t] if _draws is None else _draws
    ids, seeds = draws[:, 0].tolist(), draws[:, 1].tolist()

    track = config.track if policy.needs_band_fraction else None
    key = (model, config.n_clients, config.client_fraction, config.epochs,
           config.batch_size, config.eta, config.seed, track, start.dtype, start.shape, t)
    hit = _REPLAYS.get(dataset, {}).get(key, {}).get(start.tobytes())

    def train():
        return train_clients(model, start, [dataset.clients[k] for k in ids], seeds,
                             epochs=config.epochs, batch_size=config.batch_size,
                             eta=config.eta, track=track, words=words)

    trained = None if hit else train()
    # Each client's decision statistic, or the error that its round raises.
    raw = hit[0] if hit else [rep if isinstance(rep, NumericError) else rep.update_norm
                              for rep in trained]
    if trained and policy.needs_band_fraction:
        # One path row per SGD step: the fit's time unit is one step. Each
        # path is a row of its lockstep chunk's (G, T, k) array, rows in
        # client order, so the clients before the first one the loop below
        # raises for are a prefix of each chunk's rows: only they are fitted.
        chunks: dict[int, list[int]] = {}  # fitted clients by their array's id
        for i, rep in enumerate(trained):
            if isinstance(rep, NumericError):
                break
            if rep.path.shape[0] < 3:
                raw[i] = ValueError("band policies need at least 2 local steps per round "
                                    "(epochs * ceil(n_i / batch_size) >= 2)")
                break
            chunks.setdefault(id(rep.path.base), []).append(i)
        for rows in chunks.values():
            stack = trained[rows[0]].path.base
            for i, stat in zip(rows, band_fractions(stack[: len(rows)])):
                raw[i] = stat
                if isinstance(stat, ValueError):
                    raw[i] = NumericError(f"OU fit of client {ids[i]} at round {t} "
                                          f"(policy {policy.label}) non-finite: {stat}")
                    raw[i].__cause__ = stat
    # The first failure in client-id order wins, and a client's training
    # failure comes before its decision statistic's: what training and
    # checking one client after another would raise.
    stats = []
    for k, stat in zip(ids, raw):
        if isinstance(stat, Exception):
            raise stat
        if policy.kind in NORM_POLICIES and not math.isfinite(stat):
            raise NumericError(
                f"update norm of client {k} non-finite at round {t} (policy {policy.label})"
            )
        stats.append(stat)

    threshold = policy.fixed_threshold
    if policy.adaptive:
        threshold = compute_adaptive_threshold(np.array(stats))

    rngs = (_rngs((config.seed, "decide", t, draws[:, 0])) if policy.kind == "random"
            else [None] * len(ids))
    sends = [local_decide(policy, stat, threshold, rng) for stat, rng in zip(stats, rngs)]
    senders = [k for k, send in zip(ids, sends) if send]
    ou_fallback = False
    if hit and len(senders) == len(ids):
        new_params, test_acc, test_loss = hit[1].copy(), *hit[2:]
        state.advance(new_params)
    else:
        trained = trained or train()
        estimates: list[tuple[np.ndarray, int]] = []
        for k, rep, send in zip(ids, trained, sends):
            msg = UpdateMessage(k, rep.n_samples, rep.params_after if send else None)
            est, fell_back = server_estimate(msg, state, config.nack_estimate_mode)
            ou_fallback = ou_fallback or fell_back
            estimates.append((est, rep.n_samples))

        new_params = aggregate(estimates)
        if not np.isfinite(new_params).all():
            raise NumericError(
                f"aggregated model non-finite at round {t} (policy {policy.label})"
            )
        state.advance(new_params)
        test_acc, test_loss = evaluate(model, new_params, *dataset.test_set)
        if not hit and len(senders) == len(ids):
            _store(dataset, key, start.tobytes(), stats, new_params, (test_acc, test_loss))
    uplink, downlink = _round_bytes(start.size, len(ids), len(senders), policy.adaptive)
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


def _check_state(state: ServerState, size: int, history_len: int) -> None:
    """A passed state keeps the config's history_len and holds float64
    (size,) models: global_params and 1 to history_len of them in its
    history, the last of them global_params (NaN compared equal, so that a
    non-finite state still fails in its round, as a NumericError)."""
    if state.history_len != history_len:
        raise ValueError(f"state.history_len {state.history_len} does not match "
                         f"history_len {history_len}")
    for name, model in [("global_params", state.global_params),
                        *((f"history[{i}]", model) for i, model in enumerate(state.history))]:
        if np.shape(model) != (size,):
            raise ValueError(f"state.{name} must be a ({size},) vector, "
                             f"got shape {np.shape(model)}")
        if np.asarray(model).dtype != np.float64:
            raise ValueError(f"state.{name} must be float64, got {np.asarray(model).dtype}")
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
    goes. An inconsistent experiment (a passed state's history_len, and the
    shape and dtype of its model and history, included) raises ValueError at
    the call, before any round runs. The rounds' draws come from a window
    built at the first ``next``, not at the call (see ``_rounds``)."""
    _validate_experiment(model, config, dataset, rounds)
    if state is None:
        state = ServerState(
            global_params=init_params(model, config.seed),
            history_len=config.history_len,
        )
    else:
        _check_state(state, model.param_count, config.history_len)
    return _rounds(state, model, config, dataset, ledger, rounds)


def _rounds(state, model, config, dataset, ledger, rounds: int):
    """``rounds`` calls of ``run_round``, each handed its round's draws from
    the run's window (``_window``): the rest of the run, up to the stream
    budget, built in one pass as the first round starts."""
    window: dict[int, tuple] = {}
    for left in range(rounds, 0, -1):
        if state.round not in window:
            window = _window(config, state.round, left)
        yield run_round(state, model, config, dataset, ledger, _draws=window.pop(state.round))


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
