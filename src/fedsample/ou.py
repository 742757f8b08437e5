"""Scalar Ornstein-Uhlenbeck processes: simulation, estimation, decoding.

The mean-reverting process

    d theta_t = lam * (mu - theta_t) dt + sigma dW_t

has an exact one-step transition over a sampling period ``dt``:

    theta_{t+1} = a * theta_t + (1 - a) * mu + eps_t,
    a = exp(-lam * dt),
    eps_t ~ N(0, sigma^2 * (1 - a^2) / (2 * lam)).

``simulate_ou`` draws sample paths from this transition, ``fit_ou_ls``
inverts it: ordinary least squares of theta_{t+1} on theta_t yields
(a, b, resid_sd), from which

    lam   = -ln(a) / dt,
    mu    = b / (1 - a),
    sigma = resid_sd * sqrt(-2 * ln(a) / (dt * (1 - a^2))).

``decode`` gives the conditional-mean estimate of an unobserved value and
``band_fraction`` counts coordinates still outside the one-stationary-sd
band around their fitted means.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

# Slope clamp applied when an estimated AR(1) slope is <= 0: keeps the
# recovered rate finite so downstream decoding never sees NaN, while the
# `degenerate` flag preserves the "not a mean-reverting path" signal.
_SLOPE_FLOOR = 1e-6


@dataclass(frozen=True)
class OUParams:
    """Process parameters (rate, long-run mean, volatility) plus fit flags.

    ``degenerate`` marks fits with no usable slope (constant predictor, or
    estimated slope <= 0); ``non_reverting`` marks fits with slope >= 1.
    Flagged instances may carry NaN in unpopulated fields.
    """

    lam: float
    mu: float
    sigma: float
    degenerate: bool = False
    non_reverting: bool = False

    def __post_init__(self) -> None:
        if not (self.degenerate or self.non_reverting):
            if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
                raise ValueError("lam and mu must be finite")
            if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
                raise ValueError("sigma must be finite and >= 0")

    @property
    def flagged(self) -> bool:
        return self.degenerate or self.non_reverting

    def stationary_sd(self) -> float:
        """Standard deviation of the stationary law N(mu, sigma^2 / (2 lam))."""
        if self.flagged or self.lam <= 0.0:
            return math.nan
        return self.sigma / math.sqrt(2.0 * self.lam)


@dataclass(frozen=True)
class Trajectory:
    """Evenly sampled scalar path: values at t = 0, dt, 2*dt, ..."""

    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("trajectory needs at least one value")
        if not np.isfinite(values).all():
            raise ValueError("trajectory values must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class LSFit:
    """AR(1) regression result for theta_{t+1} = a * theta_t + b + eps_t."""

    a: float
    b: float
    resid_sd: float
    n_points: int
    degenerate: bool = False


def simulate_ou(
    params: OUParams,
    theta0: float,
    dt: float,
    steps: int,
    seed: int,
) -> Trajectory:
    """Draw one exact-discretization sample path of length ``steps + 1``.

    Deterministic given ``seed``. Requires ``params.lam > 0`` unless
    ``params.sigma == 0`` (the noiseless recursion is defined for any rate).
    """
    if not all(math.isfinite(v) for v in (params.lam, params.mu, params.sigma, theta0, dt)):
        raise ValueError("simulate_ou requires finite parameters")
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if params.lam <= 0.0 and params.sigma > 0.0:
        raise ValueError("lam <= 0 with sigma > 0: transition noise scale undefined")

    a = math.exp(-params.lam * dt)
    if params.sigma > 0.0:
        noise_sd = params.sigma * math.sqrt((1.0 - a * a) / (2.0 * params.lam))
        z = derive_path_rng(seed).standard_normal(steps)
        drive = (1.0 - a) * params.mu + noise_sd * z
    else:
        drive = np.full(steps, (1.0 - a) * params.mu)

    # theta_{t+1} = a * theta_t + drive_t, in plain float arithmetic.
    path = itertools.accumulate(
        drive.tolist(), lambda theta, d: a * theta + d, initial=float(theta0)
    )
    values = np.fromiter(path, dtype=np.float64, count=steps + 1)
    return Trajectory(values=values, dt=dt)


def derive_path_rng(seed: int) -> np.random.Generator:
    """RNG stream used by simulate_ou; exposed so tests can replay noise."""
    return derive_rng(seed, "ou_path")


def _ar1_ols(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Column-wise OLS with intercept over pairs (theta_t, theta_{t+1}).

    values: (T, k) array, T >= 3. Returns (a, b, resid_sd, n_points,
    degenerate) where degenerate marks zero-variance predictor columns.
    Residual sd uses the regression dof denominator (n_points - 2), with an
    exact-fit convention of zero when n_points == 2.
    """
    x = values[:-1, :]
    y = values[1:, :]
    n = x.shape[0]
    mx = x.mean(axis=0)
    my = y.mean(axis=0)
    dx = x - mx
    dy = y - my
    sxx = (dx * dx).sum(axis=0)
    sxy = (dx * dy).sum(axis=0)

    degenerate = sxx == 0.0
    safe_sxx = np.where(degenerate, 1.0, sxx)
    a = np.where(degenerate, np.nan, sxy / safe_sxx)
    b = np.where(degenerate, np.nan, my - a * mx)

    resid = y - (a * x + b)
    ssr = (resid * resid).sum(axis=0)
    if n > 2:
        resid_sd = np.sqrt(ssr / (n - 2))
    else:
        resid_sd = np.zeros_like(ssr)
    resid_sd = np.where(degenerate, np.nan, resid_sd)
    return a, b, resid_sd, n, degenerate


def _invert_ar1(
    a: np.ndarray,
    b: np.ndarray,
    resid_sd: np.ndarray,
    dt: float,
    degenerate: np.ndarray,
) -> list[OUParams]:
    """Map regression coefficients to OUParams, flagging out-of-range slopes."""
    out: list[OUParams] = []
    for j in range(a.size):
        if degenerate[j]:
            out.append(OUParams(math.nan, math.nan, math.nan, degenerate=True))
            continue
        aj = float(a[j])
        bj = float(b[j])
        if aj >= 1.0:
            mu = bj / (1.0 - aj) if aj != 1.0 else math.nan
            out.append(OUParams(math.nan, mu, math.nan, non_reverting=True))
            continue
        clamped = aj <= 0.0
        a_eff = _SLOPE_FLOOR if clamped else aj
        lam = -math.log(a_eff) / dt
        mu = bj / (1.0 - a_eff)
        sigma = float(resid_sd[j]) * math.sqrt(-2.0 * math.log(a_eff) / (dt * (1.0 - a_eff * a_eff)))
        out.append(OUParams(lam, mu, sigma, degenerate=clamped))
    return out


def fit_ou_ls_columns(values: np.ndarray, dt: float) -> list[tuple[OUParams, LSFit]]:
    """Fit every column of a (T, k) array of trajectories sharing one dt."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a (T, k) array of column trajectories")
    if values.shape[0] < 3:
        raise ValueError("need at least 3 observations per trajectory")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not np.isfinite(values).all():
        raise ValueError("trajectory values must be finite")

    a, b, resid_sd, n, degenerate = _ar1_ols(values)
    params = _invert_ar1(a, b, resid_sd, dt, degenerate)
    fits = [
        LSFit(
            a=float(a[j]),
            b=float(b[j]),
            resid_sd=float(resid_sd[j]),
            n_points=n,
            degenerate=bool(degenerate[j]),
        )
        for j in range(values.shape[1])
    ]
    return list(zip(params, fits))


def fit_ou_ls(traj: Trajectory) -> tuple[OUParams, LSFit]:
    """Least-squares fit of a single trajectory; see module docstring.

    Raises ValueError for trajectories shorter than 3 points. A constant
    path yields a degenerate fit (no usable regression slope).
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 observations to fit")
    [(params, fit)] = fit_ou_ls_columns(traj.values[:, None], traj.dt)
    return params, fit


def decode(theta_ref: float, params: OUParams, elapsed: float) -> float:
    """Conditional-mean estimate of the process ``elapsed`` after theta_ref:

        exp(-lam * elapsed) * theta_ref + (1 - exp(-lam * elapsed)) * mu
    """
    if not (math.isfinite(theta_ref) and math.isfinite(elapsed)):
        raise ValueError("decode requires finite inputs")
    if elapsed < 0.0:
        raise ValueError("elapsed must be >= 0")
    if not (math.isfinite(params.lam) and math.isfinite(params.mu)):
        raise ValueError("decode requires populated lam and mu")
    w = math.exp(-params.lam * elapsed)
    return w * theta_ref + (1.0 - w) * params.mu


def band_fraction(finals: np.ndarray, fits: list[OUParams]) -> float:
    """Fraction of coordinates strictly outside [mu - sd, mu + sd].

    The band half-width is each fit's stationary sd. Degenerate coordinates
    count as inside (nothing left to move), non-reverting ones as outside
    (no steady state to have reached).
    """
    finals = np.asarray(finals, dtype=np.float64)
    if finals.ndim != 1 or finals.size == 0:
        raise ValueError("finals must be a non-empty vector")
    if len(fits) != finals.size:
        raise ValueError("finals and fits must have equal length")

    outside = 0
    for value, p in zip(finals, fits):
        if p.non_reverting:
            outside += 1
        elif p.degenerate:
            continue
        else:
            band = p.stationary_sd()
            if value > p.mu + band or value < p.mu - band:
                outside += 1
    return outside / finals.size
