"""Small differentiable models with hand-derived gradients, plus local SGD.

Three model kinds, all operating on a flat parameter vector:

* ``logistic``: multinomial logistic regression, softmax cross-entropy.
* ``mlp1``: one tanh hidden layer feeding a softmax output.
* ``quadratic-diagnostic``: data-free loss ``0.5 * ||theta||^2`` whose
  gradient is theta itself; under SGD every coordinate contracts by the
  factor (1 - eta) per step, which makes it a known-answer probe for the
  trajectory-fitting machinery.

``local_train`` runs E epochs of mini-batch SGD with per-epoch reshuffling
and can record the per-step path of a subset of coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .seeding import derive_rng

# "auto" tracking records every coordinate for models below this size and
# falls back to a fixed-size uniform subsample above it, keeping trajectory
# memory bounded for large parameter vectors.
_AUTO_TRACK_LIMIT = 100_000
_AUTO_TRACK_SUBSAMPLE = 4096

MODEL_KINDS = ("logistic", "mlp1", "quadratic-diagnostic")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    n_classes: int = 1
    hidden_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind in ("logistic", "mlp1") and self.n_classes < 2:
            raise ValueError(f"{self.kind} needs n_classes >= 2")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ValueError("mlp1 needs hidden_dim >= 1")

    @property
    def param_count(self) -> int:
        if self.kind == "logistic":
            return self.input_dim * self.n_classes + self.n_classes
        if self.kind == "mlp1":
            return (
                self.input_dim * self.hidden_dim
                + self.hidden_dim
                + self.hidden_dim * self.n_classes
                + self.n_classes
            )
        return self.input_dim

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
        if theta.shape != (self.param_count,):
            raise ValueError(
                f"expected flat vector of {self.param_count} elements, got shape {theta.shape}"
            )
        out: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.layer_shapes:
            n = math.prod(shape)
            out[name] = theta[offset : offset + n].reshape(shape)
            offset += n
        return out


@dataclass(frozen=True)
class LocalTrainReport:
    """One client's local training. With tracking on, ``tracked`` holds the
    recorded coordinate ids and ``path[t, j]`` is coordinate ``tracked[j]``
    after t SGD steps (row 0 is the starting point)."""

    params_after: np.ndarray
    update_norm: float
    n_samples: int
    steps_taken: int
    tracked: np.ndarray | None = None
    path: np.ndarray | None = None


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = derive_rng(seed, "init")
    chunks: list[np.ndarray] = []
    fan_in = {"W": spec.input_dim, "b": spec.input_dim,
              "W1": spec.input_dim, "b1": spec.input_dim,
              "W2": spec.hidden_dim, "b2": spec.hidden_dim,
              "theta": spec.input_dim}
    for name, shape in spec.layer_shapes:
        bound = 1.0 / math.sqrt(fan_in[name])
        chunks.append(rng.uniform(-bound, bound, size=math.prod(shape)))
    return np.concatenate(chunks)


def _check_batch(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch features must be a non-empty (n, dim) matrix")
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match model input_dim {spec.input_dim}")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be one class index per row")
    if spec.kind != "quadratic-diagnostic":
        y = y.astype(np.int64)
        if y.size and (y.min() < 0 or y.max() >= spec.n_classes):
            raise ValueError("label outside [0, n_classes)")
    return x, y


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _ce_loss(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(y.size), y]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def loss_and_grad(
    spec: ModelSpec,
    params: np.ndarray,
    batch: tuple[np.ndarray, np.ndarray],
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its exact gradient.

    Softmax cross-entropy for the classifiers; 0.5 * ||theta||^2 for the
    diagnostic model (the batch is required but does not enter the value).
    """
    if not np.isfinite(params).all():
        raise NumericError("non-finite parameters")
    x, y = _check_batch(spec, *batch)
    v = spec.layer_views(params)

    if spec.kind == "quadratic-diagnostic":
        # May overflow to inf on a diverging path; reported as-is.
        with np.errstate(over="ignore"):
            loss = 0.5 * float(params @ params)
        return loss, params.copy()

    n = x.shape[0]
    if spec.kind == "logistic":
        logits = x @ v["W"] + v["b"]
        probs = _softmax(logits)
        loss = _ce_loss(probs, y)
        d = probs
        d[np.arange(n), y] -= 1.0
        d /= n
        return loss, np.concatenate([(x.T @ d).ravel(), d.sum(axis=0)])

    # mlp1: tanh hidden layer, softmax output
    h = np.tanh(x @ v["W1"] + v["b1"])
    logits = h @ v["W2"] + v["b2"]
    probs = _softmax(logits)
    loss = _ce_loss(probs, y)
    d2 = probs
    d2[np.arange(n), y] -= 1.0
    d2 /= n
    dh = (d2 @ v["W2"].T) * (1.0 - h * h)
    return loss, np.concatenate(
        [(x.T @ dh).ravel(), dh.sum(axis=0), (h.T @ d2).ravel(), d2.sum(axis=0)]
    )


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

    if spec.kind == "logistic":
        logits = x @ v["W"] + v["b"]
    else:
        logits = np.tanh(x @ v["W1"] + v["b1"]) @ v["W2"] + v["b2"]
    probs = _softmax(logits)
    acc = float((probs.argmax(axis=1) == y).mean())
    return acc, _ce_loss(probs, y)


def _resolve_track(track: None | str | int, n_params: int, seed: int) -> np.ndarray | None:
    if track is None:
        return None
    if track == "all":
        return np.arange(n_params, dtype=np.int64)
    if track == "auto":
        if n_params < _AUTO_TRACK_LIMIT:
            return np.arange(n_params, dtype=np.int64)
        track = _AUTO_TRACK_SUBSAMPLE
    if isinstance(track, (int, np.integer)) and not isinstance(track, bool):
        k = int(track)
        if k < 1:
            raise ValueError("tracked coordinate count must be >= 1")
        k = min(k, n_params)
        idx = derive_rng(seed, "track").choice(n_params, size=k, replace=False)
        return np.sort(idx).astype(np.int64)
    raise ValueError(f"unsupported track spec {track!r}")


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
    """E epochs of mini-batch SGD from ``start`` over one client's data.

    Each epoch visits a fresh permutation of the samples in batches of
    ``batch_size``; a short final batch is kept and its gradient averaged
    over its actual size. Deterministic given ``seed``: the permutation for
    epoch e comes from a stream derived from (seed, "shuffle", e), so
    concurrent clients cannot perturb each other.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if eta < 0.0 or not math.isfinite(eta):
        raise ValueError("eta must be finite and >= 0")
    x, y = _check_batch(spec, *data)
    n = x.shape[0]

    steps_total = epochs * math.ceil(n / batch_size)
    tracked = _resolve_track(track, start.size, seed)
    path: np.ndarray | None = None
    if tracked is not None:
        path = np.empty((steps_total + 1, tracked.size), dtype=np.float64)
        path[0, :] = start[tracked]

    theta = start.copy()
    step = 0
    # Overflow on a diverging run is reported as NumericError at the next
    # finiteness boundary, not as a warning mid-update.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = derive_rng(seed, "shuffle", epoch).permutation(n)
            for lo in range(0, n, batch_size):
                sel = order[lo : lo + batch_size]
                _, grad = loss_and_grad(spec, theta, (x[sel], y[sel]))
                theta -= eta * grad
                step += 1
                if path is not None:
                    path[step, :] = theta[tracked]
        # May overflow to inf from finite parameters; the engine rejects a
        # non-finite decision statistic.
        update_norm = float(np.linalg.norm(theta - start))

    if not np.isfinite(theta).all():
        raise NumericError("parameters diverged during local training")

    return LocalTrainReport(
        params_after=theta,
        update_norm=update_norm,
        n_samples=n,
        steps_taken=step,
        tracked=tracked,
        path=path,
    )
