"""Ornstein-Uhlenbeck processes: simulation, column-wise fits, decoding.

The mean-reverting process

    d theta_t = lam * (mu - theta_t) dt + sigma dW_t

has an exact one-step transition over a sampling period ``dt``:

    theta_{t+1} = a * theta_t + (1 - a) * mu + eps_t,
    a = exp(-lam * dt),
    eps_t ~ N(0, sigma^2 * (1 - a^2) / (2 * lam)).

``simulate_ou`` draws sample paths from this transition.
``fit_ou_ls_columns`` returns one ``OUFit`` of arrays over the columns of a
(T, k) array: the least squares of theta_{t+1} on theta_t, (a, b, resid_sd),
and its flags. That is all ``band_fraction`` (the share of columns outside
their one-stationary-sd band) needs: sigma / sqrt(2 * lam) is resid_sd /
sqrt(1 - a^2) for any dt. The process, lam = -ln(a) / dt, mu = b / (1 - a)
and sigma = resid_sd * sqrt(-2 * ln(a) / (dt * (1 - a^2))), is derived on
first use, for ``decode`` (conditional-mean estimates) and the scalar view
(``fit[j]``, ``fit_ou_ls``, ``OUParams``). Only there do ``math.log`` and
``math.exp`` run, element by element: numpy's vectorised log and exp can
differ from them in the last bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import derive_rng

# Slope clamp applied when an estimated AR(1) slope is <= 0: keeps the
# recovered rate finite so downstream decoding never sees NaN, while the
# `degenerate` flag preserves the "not a mean-reverting path" signal.
_SLOPE_FLOOR = 1e-6


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.log or math.exp) applied to every element of x."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _check_process(flagged, lam, mu, sigma) -> None:
    """Unflagged processes must be populated; flagged ones may hold NaN."""
    if not np.all(flagged | (np.isfinite(lam) & np.isfinite(mu))):
        raise ValueError("lam and mu must be finite")
    if not np.all(flagged | (np.isfinite(sigma) & (sigma >= 0.0))):
        raise ValueError("sigma must be finite and >= 0")


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

    flagged = property(lambda self: self.degenerate or self.non_reverting)

    def __post_init__(self) -> None:
        _check_process(self.flagged, self.lam, self.mu, self.sigma)

    def stationary_sd(self) -> float:
        """Standard deviation of the stationary law N(mu, sigma^2 / (2 lam));
        NaN where the process is flagged or lam <= 0."""
        if self.flagged or not self.lam > 0.0:
            return math.nan
        return self.sigma / math.sqrt(2.0 * self.lam)


@dataclass(frozen=True, eq=False)
class OUFit:
    """Least-squares OU fits of k columns, each field but ``n_points`` and
    ``dt`` an array over the columns: the AR(1) regression theta_{t+1} =
    a * theta_t + b + eps_t over ``n_points`` pairs ``dt`` apart, flagged as
    in OUParams, and the process it implies (slopes <= 0 clamped) derived on
    first use. ``fit[j]`` (and iteration) gives column j as ``fit_ou_ls``
    does: (OUParams, the column with scalar fields).
    """

    a: np.ndarray
    b: np.ndarray
    resid_sd: np.ndarray
    n_points: int
    dt: float
    degenerate: np.ndarray
    non_reverting: np.ndarray

    flagged = property(lambda self: self.degenerate | self.non_reverting)

    def __len__(self) -> int:
        return int(np.size(self.a))

    def columns(self, index) -> OUFit:
        """The fit of the columns ``index`` selects (an int gives scalar fields)."""
        return OUFit(
            self.a[index], self.b[index], self.resid_sd[index], self.n_points, self.dt,
            self.degenerate[index], self.non_reverting[index],
        )

    def __getitem__(self, j: int) -> tuple[OUParams, OUFit]:
        col = self.columns(j)
        flags = bool(col.degenerate), bool(col.non_reverting)
        return OUParams(float(col.lam), float(col.mu), float(col.sigma), *flags), col

    def stationary_sd(self) -> np.ndarray:
        """Each column's stationary sd, resid_sd / sqrt(1 - a^2); NaN where
        the column is flagged."""
        a = np.where(self.flagged, 0.0, self.a)
        return np.where(self.flagged, np.nan, self.resid_sd / np.sqrt(1.0 - a * a))

    @cached_property
    def mu(self) -> np.ndarray:
        a_eff = np.where(self.a <= 0.0, _SLOPE_FLOOR, self.a)
        with np.errstate(all="ignore"):
            return np.where(np.isnan(self.a) | (self.a == 1.0), np.nan, self.b / (1.0 - a_eff))

    @cached_property
    def _lam_sigma(self) -> tuple[np.ndarray, np.ndarray]:
        a_eff = np.where(self.a <= 0.0, _SLOPE_FLOOR, self.a)
        rated = ~(self.non_reverting | np.isnan(self.a))
        with np.errstate(all="ignore"):
            log_a = _elementwise(math.log, np.where(rated, a_eff, np.nan))
            lam = np.where(rated, -log_a / self.dt, np.nan)
            sigma = self.resid_sd * np.sqrt(-2.0 * log_a / (self.dt * (1.0 - a_eff * a_eff)))
        return lam, sigma

    lam = property(lambda self: self._lam_sigma[0])
    sigma = property(lambda self: self._lam_sigma[1])


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


def simulate_ou(params: OUParams, theta0: float, dt: float, steps: int, seed: int) -> Trajectory:
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
    x, y = values[:-1], values[1:]
    n = x.shape[0]
    mx = np.add.reduce(x, axis=0) / n
    my = np.add.reduce(y, axis=0) / n
    dx = x - mx
    dy = y - my
    sxx = np.add.reduce(dx * dx, axis=0)
    sxy = np.add.reduce(dx * dy, axis=0)

    degenerate = sxx == 0.0
    a = np.where(degenerate, np.nan, sxy / sxx)
    b = np.where(degenerate, np.nan, my - a * mx)

    resid = y - (a * x + b)
    ssr = np.add.reduce(resid * resid, axis=0)
    resid_sd = np.sqrt(ssr / (n - 2)) if n > 2 else np.zeros_like(ssr)
    resid_sd = np.where(degenerate, np.nan, resid_sd)
    return a, b, resid_sd, n, degenerate


def fit_ou_ls_columns(values: np.ndarray, dt: float) -> OUFit:
    """Fit every column of a (T, k) array of trajectories sharing one dt.

    Raises ValueError for non-finite input, and when a fit statistic of an
    unflagged column overflows to a non-finite value.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a (T, k) array of column trajectories")
    if values.shape[0] < 3:
        raise ValueError("need at least 3 observations per trajectory")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not np.isfinite(values).all():
        raise ValueError("trajectory values must be finite")

    with np.errstate(all="ignore"):
        a, b, resid_sd, n, degenerate = _ar1_ols(values)
        # Slopes >= 1 are non-reverting, slopes <= 0 (clamped) degenerate.
        fit = OUFit(a, b, resid_sd, n, dt, degenerate | (a <= 0.0), a >= 1.0)
        # An unflagged slope is NaN (so is mu) or in (0, 1), where -2 ln(a) <
        # 1490: where mu and this bound of sigma are finite, so are lam and
        # sigma, known without a log. Elsewhere they are derived and checked.
        sigma_bound = resid_sd * np.sqrt(1490.0 / (dt * (1.0 - a * a)))
        if not np.all(fit.flagged | (np.isfinite(fit.mu) & np.isfinite(sigma_bound))):
            _check_process(fit.flagged, fit.lam, fit.mu, fit.sigma)
    return fit


def fit_ou_ls(traj: Trajectory) -> tuple[OUParams, OUFit]:
    """Least-squares fit of a single trajectory; see module docstring.

    Column 0 of the one-column fit: (OUParams, the fit with scalar fields).
    Raises ValueError for trajectories shorter than 3 points. A constant
    path yields a degenerate fit (no usable regression slope).
    """
    return fit_ou_ls_columns(traj.values[:, None], traj.dt)[0]


def decode(theta_ref, params: OUParams | OUFit, elapsed: float):
    """Conditional-mean estimate of the process ``elapsed`` after theta_ref:

        exp(-lam * elapsed) * theta_ref + (1 - exp(-lam * elapsed)) * mu

    One OUParams with a float theta_ref gives a float; an OUFit with one
    theta_ref per column gives an array. Every process must have finite
    lam and mu.
    """
    theta, lam, mu = np.asarray(theta_ref, dtype=np.float64), params.lam, params.mu
    if not (np.isfinite(theta).all() and math.isfinite(elapsed)):
        raise ValueError("decode requires finite inputs")
    if elapsed < 0.0:
        raise ValueError("elapsed must be >= 0")
    if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        raise ValueError("decode requires populated lam and mu")
    w = _elementwise(math.exp, -lam * elapsed)
    est = w * theta + (1.0 - w) * mu
    return float(est) if est.ndim == 0 else est


def band_fraction(finals: np.ndarray, fit: OUFit) -> float:
    """Fraction of columns whose final value lies strictly outside
    [mu - sd, mu + sd].

    The band half-width is each column's stationary sd. Degenerate columns
    count as inside (nothing left to move), non-reverting ones as outside
    (no steady state to have reached).
    """
    finals = np.asarray(finals, dtype=np.float64)
    if finals.ndim != 1 or finals.size == 0:
        raise ValueError("finals must be a non-empty vector")
    if len(fit) != finals.size:
        raise ValueError("finals and fits must have equal length")

    band = fit.stationary_sd()
    off_band = (finals > fit.mu + band) | (finals < fit.mu - band)
    outside = fit.non_reverting | (~fit.degenerate & off_band)
    return int(np.count_nonzero(outside)) / finals.size
