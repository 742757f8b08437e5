"""Small differentiable models with hand-derived gradients, plus local SGD.

Three model kinds, all operating on a flat parameter vector:

* ``logistic``: multinomial logistic regression, softmax cross-entropy.
* ``mlp1``: one tanh hidden layer feeding a softmax output.
* ``quadratic-diagnostic``: data-free loss ``0.5 * ||theta||^2`` whose
  gradient is theta itself; under SGD every coordinate contracts by the
  factor (1 - eta) per step, which makes it a known-answer probe for the
  trajectory-fitting machinery.

``loss_and_grad`` takes one flat parameter vector with one ``(n, dim)``
batch, or a ``(G, P)`` stack of vectors with a ``(G, n, dim)`` stack of
batches; each row of a stacked call equals its own single call bit for
bit, because numpy's stacked matmul runs one gemm per slice and every
other operation is elementwise or reduces within a row.

Given a ``scratch`` dict, ``loss_and_grad`` writes the gradient, the
hidden layer, its gradient and the logits into one flat float64 buffer
held in the dict, through C-contiguous views cached per batch shape (a
short final batch, a narrower chunk, a lone vector); the buffer is
replaced only when a call needs more room. The dict also holds the layer
views of the last parameter array given, kept while the same array comes
back with the same shape. A call then allocates only the finiteness mask
of the parameters, a transposed copy of the logits and arrays of one
value per sample. Every ``out=`` target keeps C-contiguous 2-D slices, so
the kernels and their bits are those of fresh arrays. The trainer's own
scratch, a private ``_Checked`` dict, makes a call skip the finiteness
scan and the batch check that the trainer has made and the loss that it
discards (the loss returned is None); the trainer still makes one call of
the module-global ``loss_and_grad`` per step, where a tracer counts SGD
steps. A plain dict keeps every check and the loss.

``train_clients`` runs E epochs of mini-batch SGD with per-epoch
reshuffling for each of several clients that start from one model, and can
record the per-step path of some or all coordinates: a path of every
coordinate is recorded as a copy of each client's parameters per step, a
subset through a flat index gather. Clients of equal size
share a step schedule, so each such group trains in lockstep: one stacked
``loss_and_grad`` call per step for a chunk of the group, chunks being as
wide as ``_LOCKSTEP_ELEMENTS`` allows. A lone client's chunk steps row 0
of its stack as a plain vector, so it makes the one-vector calls. A
stack keeps its rows to the end of its chunk: a diverging client's row
fails and restarts from the broadcast model, and the others step on.
``local_train`` is the one-client case.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import NumericError
from .seeding import _rngs, _seeded_generator, _state_words, _values, derive_rng

# "auto" tracking records every coordinate for models below this size and
# falls back to a fixed-size uniform subsample above it, keeping trajectory
# memory bounded for large parameter vectors.
_AUTO_TRACK_LIMIT = 100_000
_AUTO_TRACK_SUBSAMPLE = 4096

MODEL_KINDS = ("logistic", "mlp1", "quadratic-diagnostic")

# Lockstep training steps at most this many parameters at once (512 KiB of
# float64 per stacked array, at least one client), which bounds the stacked
# working set however many clients share a size. In three sweeps of widths
# 1-128 on mlp1 20-H-10 (CHANGES.md) the cost per client-step was near its
# lowest from ~20 rows of 1002 parameters up, at 4-8 rows of 9310, at 2-4 of
# 18610 and at one client of 62010: this cap steps 65, 7, 3 and 1 of them.
_LOCKSTEP_ELEMENTS = 1 << 16
# Each chunk gathers its clients' shuffled batches into a buffer of at most
# this many features (8 MiB), a block of whole batches at a time, so large
# clients are not copied whole.
_GATHER_ELEMENTS = 1 << 20


# kind: str; input_dim, n_classes, hidden_dim: int
_ModelSpec = namedtuple("_ModelSpec", "kind input_dim n_classes hidden_dim", defaults=(1, 0))


class ModelSpec(_ModelSpec):
    """A model's kind and sizes, checked whenever one is built (``_replace``
    included). Equal specs hash equal, as a replay key needs; the instance
    dict holds only the cached ``_layout``."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind in ("logistic", "mlp1") and self.n_classes < 2:
            raise ValueError(f"{self.kind} needs n_classes >= 2")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ValueError("mlp1 needs hidden_dim >= 1")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks

    @property
    def param_count(self) -> int:
        return self._layout[-1][2]

    @property
    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        if self.kind == "logistic":
            return [("W", (self.input_dim, self.n_classes)), ("b", (self.n_classes,))]
        if self.kind == "mlp1":
            return [
                ("W1", (self.input_dim, self.hidden_dim)),
                ("b1", (self.hidden_dim,)),
                ("W2", (self.hidden_dim, self.n_classes)),
                ("b2", (self.n_classes,)),
            ]
        return [("theta", (self.input_dim,))]

    def layer_views(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """Per-layer reshaped views into a flat parameter vector (no copies)."""
        return self._views(theta, ndim=1)

    def _views(self, theta: np.ndarray, ndim: int) -> dict[str, np.ndarray]:
        if theta.ndim != ndim or theta.shape[-1] != self.param_count:
            raise ValueError(
                f"expected {'a flat vector' if ndim == 1 else 'a stack of vectors'} of "
                f"{self.param_count} elements, got shape {theta.shape}"
            )
        lead = theta.shape[:-1]
        return {
            name: theta[..., lo:hi].reshape(lead + shape) for name, lo, hi, shape in self._layout
        }

    @functools.cached_property
    def _layout(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(name, start, stop, shape) of each layer in the flat vector."""
        out, offset = [], 0
        for name, shape in self.layer_shapes:
            out.append((name, offset, offset + math.prod(shape), shape))
            offset += math.prod(shape)
        return tuple(out)


# params_after: np.ndarray; update_norm: float; n_samples, steps_taken:
# int; tracked, path: np.ndarray | None
class LocalTrainReport(namedtuple("LocalTrainReport", "params_after update_norm n_samples "
                                  "steps_taken tracked path", defaults=(None, None))):
    """One client's local training. With tracking on, ``tracked`` holds the
    recorded coordinate ids and ``path[t, j]`` is coordinate ``tracked[j]``
    after t SGD steps (row 0 is the starting point). ``train_clients`` gives
    ``path`` as row g of ``path.base``, its lockstep chunk's C-contiguous
    (G, T, k) array, whose rows are the chunk's clients in ascending order."""

    __slots__ = ()


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = derive_rng(seed, "init")
    chunks: list[np.ndarray] = []
    for name, shape in spec.layer_shapes:
        bound = 1.0 / math.sqrt(spec.hidden_dim if name in ("W2", "b2") else spec.input_dim)
        chunks.append(rng.uniform(-bound, bound, size=math.prod(shape)))
    return np.concatenate(chunks)


def _check_batch(
    spec: ModelSpec, x: np.ndarray, y: np.ndarray, lead: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Validate one ``(n, dim)`` batch, or with ``lead == (G,)`` a stack of
    G of them; returns float64 features and labels."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != len(lead) + 2 or x.shape[: len(lead)] != lead or x.shape[-2] == 0:
        raise ValueError("batch features must be a non-empty (n, dim) matrix")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match model input_dim {spec.input_dim}")
    if y.shape != x.shape[:-1]:
        raise ValueError("labels must be one class index per row")
    if spec.kind == "quadratic-diagnostic":
        return x, np.zeros(y.shape, np.int64)  # read by nothing: only the shape counts
    # Casting float labels would truncate them without a word.
    if y.dtype.kind not in "iu":
        raise ValueError("labels must be integer class indices")
    y = y.astype(np.int64, copy=False)
    # One reduction checks both ends: a negative label reads as a huge
    # unsigned value.
    if y.size and np.maximum.reduce(y.view(np.uint64), axis=None) >= spec.n_classes:
        raise ValueError("label outside [0, n_classes)")
    return x, y


# The helpers below call ufunc reductions directly: ``a.max()``, ``a.sum()``
# and ``a.mean()`` reduce the same way but add Python-level overhead, which
# shows at the batch sizes local SGD uses.

def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: every caller passes C-contiguous
    logits that nothing else reads. Each row's max is reduced down the
    columns of a transposed copy, faster than along rows of C entries; a max
    is exact in any order, up to the sign of a tied zero, which exp maps to 1."""
    rows = logits.reshape(-1, logits.shape[-1])
    rows -= np.maximum.reduce(rows.T.copy(), axis=0)[:, None]
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def _ce_loss(probs: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the last batch axis (one value per batch), and
    the flat index of each sample's true-class entry in ``probs`` (a
    C-contiguous softmax output)."""
    at = np.arange(y.size) * probs.shape[-1] + y.ravel()
    picked = probs.reshape(-1)[at].reshape(y.shape)
    # The mean as ``np.mean`` computes it: the sum, then one division.
    return -np.add.reduce(np.log(np.maximum(picked, 1e-300)), axis=-1) / y.shape[-1], at


class _Checked(dict):
    """The trainer's scratch: calls given it skip the finiteness scan, the
    batch check and the loss (see the module docstring)."""


def _workspace(spec: ModelSpec, scratch: dict, rows: tuple[int, ...]) -> tuple:
    """The gradient, its layer views, the hidden layer, its gradient and the
    logits of a call on batches of ``rows`` (``lead + (n,)``): views into
    ``scratch["flat"]``, cached under ``rows``. A call that needs more room
    replaces the buffer and drops the cached views."""
    ws = scratch.get(rows)
    if ws is None:
        lead = rows[:-1]
        shapes = [lead + (spec.param_count,), rows + (spec.hidden_dim,),
                  rows + (spec.hidden_dim,), rows + (spec.n_classes,)]
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        if "flat" not in scratch or scratch["flat"].size < ends[-1]:
            scratch.clear()
            scratch["flat"] = np.empty(ends[-1])
        flat = scratch["flat"]
        grad, h, dh, z = (flat[lo:hi].reshape(shape)
                          for lo, hi, shape in zip([0] + ends, ends, shapes))
        ws = scratch[rows] = (grad, spec._views(grad, grad.ndim), h, dh, z)
    return ws


def _forward(
    spec: ModelSpec, v: dict[str, np.ndarray], x: np.ndarray,
    h: np.ndarray | None = None, z: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A classifier's output-layer input (``x``, or mlp1's tanh hidden
    layer, written into ``h``) and the softmax of its logits, written into
    ``z``; a buffer left None is allocated."""
    a, w, b = x, "W", "b"
    if spec.kind == "mlp1":
        a = np.matmul(x, v["W1"], out=h)
        a += v["b1"][..., None, :]
        np.tanh(a, out=a)
        w, b = "W2", "b2"
    z = np.matmul(a, v[w], out=z)
    z += v[b][..., None, :]
    return a, _softmax(z)


def loss_and_grad(
    spec: ModelSpec,
    params: np.ndarray,
    batch: tuple[np.ndarray, np.ndarray],
    scratch: dict | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean loss over the batch and its exact gradient.

    Softmax cross-entropy for the classifiers; 0.5 * ||theta||^2 for the
    diagnostic model (the batch is required but does not enter the value).
    A ``(P,)`` vector with an ``(n, dim)`` batch gives a float loss and a
    ``(P,)`` gradient; a ``(G, P)`` stack with a ``(G, n, dim)`` batch
    stack gives ``(G,)`` losses and ``(G, P)`` gradients, row g being the
    single call on ``params[g]`` and ``batch[.][g]``, bit for bit.

    ``scratch``, a dict kept between calls on one model, holds the call's
    buffers (see the module docstring): the gradient returned is overwritten
    by the next call given the same dict. Without one the call allocates
    fresh ones. Only ``train_clients``' own scratch skips the checks of the
    parameters and the batch and gives None for the loss.
    """
    checked = isinstance(scratch, _Checked)
    if not checked and not np.isfinite(params).all():
        raise NumericError("non-finite parameters")
    scratch = {} if scratch is None else scratch
    # Every operation below works on either rank (see the module docstring).
    # The layer views of the last parameter array seen are kept with it.
    seen = scratch.get("params", (None,))
    if seen[0] is not params or seen[1] != params.shape:
        seen = (params, params.shape, spec._views(params, 2 if params.ndim == 2 else 1))
    v = seen[2]
    lead = params.shape[:-1]
    x, y = batch if checked else _check_batch(spec, *batch, lead=lead)
    grad, g, h, dh, z = _workspace(spec, scratch, x.shape[:-1])
    scratch["params"] = seen  # after _workspace, which may clear the dict

    if spec.kind == "quadratic-diagnostic":
        np.copyto(grad, params)
        if checked:
            return None, grad
        # May overflow to inf on a diverging path; reported as-is. A dot per
        # row: one vectorised sum of squares would round differently.
        with np.errstate(over="ignore"):
            if lead:
                return np.array([0.5 * float(p @ p) for p in params]), grad
            return 0.5 * float(params @ params), grad

    # Each part of the gradient is written into its layer's view of `grad`.
    # Every 2-D slice of an `out=` target is C-contiguous, so numpy runs the
    # same gemm per slice as for a fresh output.
    a, d = _forward(spec, v, x, h, z)
    if checked:  # the true-class index as _ce_loss takes it, without the loss
        loss, at = None, np.arange(y.size) * d.shape[-1] + y.ravel()
    else:
        loss, at = _ce_loss(d, y)
    d.reshape(-1)[at] -= 1.0
    d /= x.shape[-2]
    w, b = ("W", "b") if spec.kind == "logistic" else ("W2", "b2")
    np.matmul(a.mT, d, out=g[w])
    np.add.reduce(d, axis=-2, out=g[b])
    if spec.kind == "mlp1":
        # dh = (d @ W2^T) * (1 - h*h); the spent hidden layer takes 1 - h*h.
        np.matmul(d, v["W2"].mT, out=dh)
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
        dh *= h
        np.matmul(x.mT, dh, out=g["W1"])
        np.add.reduce(dh, axis=-2, out=g["b1"])
    return (loss if lead or checked else float(loss)), grad


def evaluate(
    spec: ModelSpec,
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, float]:
    """(accuracy, mean loss) on a labelled set.

    The diagnostic model has no prediction task; its accuracy is NaN and
    its loss is the data-free quadratic.
    """
    if not np.isfinite(params).all():
        raise NumericError("non-finite parameters")
    x, y = _check_batch(spec, features, labels)
    v = spec.layer_views(params)
    if spec.kind == "quadratic-diagnostic":
        with np.errstate(over="ignore"):
            return math.nan, 0.5 * float(params @ params)

    _, probs = _forward(spec, v, x)
    acc = np.count_nonzero(probs.argmax(axis=1) == y) / y.size
    return acc, float(_ce_loss(probs, y)[0])


def _check_sgd_knobs(epochs: int, batch_size: int, eta: float, track: None | str | int) -> None:
    """The ranges of local SGD's knobs, for ``train_clients`` and the
    engine's ``RoundConfig`` alike; messages name the config key."""
    if epochs < 0:
        raise ValueError("E (epochs) must be >= 0")
    if batch_size < 1:
        raise ValueError("B (batch_size) must be >= 1")
    if eta < 0.0 or not math.isfinite(eta):
        raise ValueError("eta must be finite and >= 0")
    if track not in (None, "auto", "all") and (
        isinstance(track, bool) or not isinstance(track, (int, np.integer)) or track < 1
    ):
        raise ValueError(
            f'track_coordinates (track) must be null, "auto", "all" or an integer >= 1, '
            f"got {track!r}"
        )


def _resolve_track(track: None | str | int, n_params: int, seeds: list[int]) -> list:
    """Each seed's coordinate ids under a track spec that ``_check_sgd_knobs``
    accepted; a spec that draws none shares one read-only array."""
    if track is None:
        return [None] * len(seeds)
    if track == "all" or (track == "auto" and n_params < _AUTO_TRACK_LIMIT):
        ids = np.arange(n_params, dtype=np.int64)
        ids.flags.writeable = False
        return [ids] * len(seeds)
    k = min(_AUTO_TRACK_SUBSAMPLE if track == "auto" else int(track), n_params)
    rngs = _rngs((seeds, "track"))
    return [np.sort(rng.choice(n_params, size=k, replace=False)).astype(np.int64) for rng in rngs]


def local_train(
    spec: ModelSpec,
    start: np.ndarray,
    data: tuple[np.ndarray, np.ndarray],
    epochs: int,
    batch_size: int,
    eta: float,
    seed: int,
    track: None | str | int = None,
) -> LocalTrainReport:
    """E epochs of mini-batch SGD from ``start`` over one client's data:
    ``train_clients`` with one client. Raises NumericError if the
    parameters go non-finite."""
    (report,) = train_clients(spec, start, [data], [seed], epochs, batch_size, eta, track)
    if isinstance(report, NumericError):
        raise report
    return report


def train_clients(
    spec: ModelSpec,
    start: np.ndarray,
    clients: list[tuple[np.ndarray, np.ndarray]],
    seeds: list[int],
    epochs: int,
    batch_size: int,
    eta: float,
    track: None | str | int = None,
    words: np.ndarray | None = None,
) -> list[LocalTrainReport | NumericError]:
    """E epochs of mini-batch SGD from ``start`` for each client.

    Each epoch visits a fresh permutation of a client's samples in batches
    of ``batch_size``; a short final batch is kept and its gradient averaged
    over its actual size. Deterministic given the client's seed: the
    permutation for epoch e comes from a stream derived from
    (seed, "shuffle", e), so clients cannot perturb each other. ``words``,
    those streams' seed words as ``_shuffle_words(seeds, epochs)`` gives
    them, saves deriving them: the engine passes its run window's. A
    lockstep chunk's permutations are one (E, G, n) block, drawn at its
    start.

    Entry i is client i's report, or the NumericError its training raised:
    "non-finite parameters" at the step that would start from them, or
    "parameters diverged" if only the last step overflowed. A diverging
    client fails alone and the others of its group carry on, bit for bit as
    if trained alone, so the caller decides which failure comes first.

    A tracked report's ``path`` is a row of the (G, T, k) array its chunk
    was recorded into (see ``LocalTrainReport``); the engine fits that array
    in place. A failed client's row holds no usable path.
    """
    _check_sgd_knobs(epochs, batch_size, eta, track)
    if len(seeds) != len(clients):
        raise ValueError("train_clients needs one seed per client")
    if words is not None:
        words = np.asarray(words)
        if words.shape != (len(clients), epochs, 4) or words.dtype.kind not in "iu":
            raise ValueError(f"words must be a ({len(clients)}, {epochs}, 4) integer array, "
                             f"got shape {words.shape} of {words.dtype}")
        words = words.astype(np.uint64, copy=False)  # PCG64 reads their raw uint64 bits
    batches = [_check_batch(spec, *data) for data in clients]
    # The client size fixes the step schedule: each group steps in lockstep,
    # in chunks that keep a (G, P) stack within _LOCKSTEP_ELEMENTS.
    groups: dict[int, list[int]] = {}
    for i, (x, _) in enumerate(batches):
        groups.setdefault(x.shape[0], []).append(i)
    width = max(1, _LOCKSTEP_ELEMENTS // start.size)
    out: list[LocalTrainReport | NumericError | None] = [None] * len(clients)
    scratch = _Checked()  # every chunk's workspace, grown by the widest step
    # Overflow on a diverging run is reported as NumericError at the next
    # finiteness boundary, not as a warning mid-update.
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            for lo in range(0, len(members), width):
                chunk = members[lo : lo + width]
                results = _train_chunk(
                    spec, start, [batches[i] for i in chunk], [seeds[i] for i in chunk],
                    epochs, batch_size, eta, track, scratch,
                    None if words is None else words[chunk],
                )
                for i, result in zip(chunk, results):
                    out[i] = result
    return out


def _shuffle_words(seeds, epochs: int) -> np.ndarray:
    """The four PCG64 seed words of each client's stream (seed, "shuffle", e)
    for each epoch e, a (G, E, 4) uint64 array, all in one pass; ``seeds`` is
    a uint64 array or a sequence of ints, one per client."""
    values = _values(seeds)
    streams = np.repeat(values, epochs)
    epoch = np.tile(np.arange(epochs, dtype=np.uint64), values.size)
    return _state_words((streams, "shuffle", epoch), 4).reshape(values.size, epochs, 4)


def _shuffle_orders(epochs: int, n: int, *seeds: int, words: np.ndarray | None = None
                    ) -> np.ndarray:
    """Each client's sample order in each epoch, as a read-only (E, G, n)
    block of the smallest unsigned type that holds n - 1: row (e, g) is
    ``arange(n)`` shuffled in place by the stream (seeds[g], "shuffle", e),
    the draws of its ``permutation(n)``. ``words``, the streams' seed words
    as ``_shuffle_words`` gives them, saves deriving them."""
    if words is None:
        words = _shuffle_words(seeds, epochs)
    orders = np.empty((epochs, len(seeds), n), np.min_scalar_type(n - 1))
    rows = orders.reshape(-1, n)
    rows[:] = np.arange(n, dtype=orders.dtype)
    for row, rng in zip(rows, map(_seeded_generator(), words.swapaxes(0, 1).reshape(-1, 4))):
        rng.shuffle(row)
    orders.flags.writeable = False
    return orders


def _train_chunk(
    spec: ModelSpec,
    start: np.ndarray,
    batches: list[tuple[np.ndarray, np.ndarray]],
    seeds: list[int],
    epochs: int,
    batch_size: int,
    eta: float,
    track: None | str | int,
    scratch: dict,
    words: np.ndarray | None,
) -> list[LocalTrainReport | NumericError]:
    """Lockstep SGD of equal-size clients on a (G, P) parameter stack.

    A lone client steps row 0 as a plain (P,) vector with (n, dim)
    batches, so each of its gradient calls is the one-vector call. The
    stack keeps its G rows to the end: a row that goes non-finite fails and
    restarts from ``start``, its later steps and path thrown away, so the
    other rows step on; the chunk stops once every row has failed. When the
    clients track every coordinate, each step's path row is a copy of the
    stack; a subset is gathered from it through flat indices."""
    n = batches[0][0].shape[0]
    steps_total = epochs * math.ceil(n / batch_size)
    rows = len(seeds)
    lane = 0 if rows == 1 else slice(None)  # the rows each step reads
    tracked = _resolve_track(track, start.size, seeds)
    theta = np.tile(start, (rows, 1))
    params = theta[lane]
    at = paths = None  # `at` stays None when every coordinate is tracked
    if tracked[0] is not None:
        paths = np.empty((rows, steps_total + 1, tracked[0].size), dtype=np.float64)
        if tracked[0].size < start.size:
            # Each row's tracked coordinates as flat indices into theta.
            at = np.stack(tracked)
            at += start.size * np.arange(rows)[:, None]
            paths[:, 0] = theta.take(at)
        else:
            paths[:, 0] = theta
    # Every client's next `block` rows in epoch order, gathered at once:
    # whole batches, at most _GATHER_ELEMENTS features for the chunk (or one
    # batch each). A step's batch stack is a slice of this buffer.
    fit = _GATHER_ELEMENTS // (rows * spec.input_dim * batch_size)
    block = max(1, fit) * batch_size
    xs = np.empty((rows, min(block, n), spec.input_dim), dtype=np.float64)
    ys = np.empty((rows, min(block, n)), dtype=np.int64)
    # Each step's epoch offset and its batch's bounds in the buffer (the
    # last batch of an epoch may be short).
    cuts = [(lo, lo % block, lo % block + min(batch_size, n - lo))
            for lo in range(0, n, batch_size)]
    orders = _shuffle_orders(epochs, n, *seeds, words=words)
    out: list[LocalTrainReport | NumericError | None] = [None] * rows  # a failed row's error
    step = 0  # lockstep steps taken
    for epoch, (lo, b, e) in itertools.product(range(epochs), cuts):
        if b == 0:
            for j, (x, y) in enumerate(batches):
                sel = orders[epoch, j, lo : lo + block]
                x.take(sel, axis=0, out=xs[j, : sel.size], mode="clip")
                y.take(sel, out=ys[j, : sel.size], mode="clip")
        if not np.isfinite(theta).all():
            # The rows that went non-finite fail here, before the gradient
            # call that would start from them (the trainer's scratch makes
            # that call skip its own check). They restart from `start`;
            # their later steps are thrown away.
            bad = ~np.isfinite(theta).all(axis=1)
            exc = NumericError("non-finite parameters")
            for g in np.flatnonzero(bad).tolist():
                out[g] = out[g] or exc
            if None not in out:
                break
            theta[bad] = start
        _, grad = loss_and_grad(spec, params, (xs[lane, b:e], ys[lane, b:e]), scratch)
        grad *= eta
        params -= grad
        step += 1
        if at is not None:
            theta.take(at, out=paths[:, step], mode="clip")
        elif paths is not None:
            paths[:, step] = theta
    diff = np.empty_like(start)
    finite = np.isfinite(theta).all(axis=1).tolist()
    for g in range(rows):
        if out[g] is not None:
            continue
        if not finite[g]:
            out[g] = NumericError("parameters diverged during local training")
            continue
        # May overflow to inf from finite parameters; the engine rejects a
        # non-finite decision statistic. sqrt(d @ d) is np.linalg.norm(d) for
        # a vector, bit for bit.
        d = np.subtract(theta[g], start, out=diff)
        path = None if paths is None else paths[g]
        out[g] = LocalTrainReport(theta[g], math.sqrt(d @ d), n, steps_total, tracked[g], path)
    return out
