"""Shared test oracles."""

import numpy as np

from fedsample.models import ModelSpec, loss_and_grad


def fd_gradient(spec: ModelSpec, params: np.ndarray, batch, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of the batch loss."""
    out = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up, _ = loss_and_grad(spec, bumped, batch)
        bumped[i] = params[i] - h
        down, _ = loss_and_grad(spec, bumped, batch)
        out[i] = (up - down) / (2.0 * h)
    return out


def fd_check(spec: ModelSpec, params: np.ndarray, batch, h: float = 1e-5) -> float:
    """Norm-wise relative error between analytic and FD gradients."""
    _, grad = loss_and_grad(spec, params, batch)
    approx = fd_gradient(spec, params, batch, h)
    denom = max(float(np.linalg.norm(approx)), 1e-12)
    return float(np.linalg.norm(grad - approx)) / denom
