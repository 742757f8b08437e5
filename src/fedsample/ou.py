"""Ornstein-Uhlenbeck processes: simulation, column-wise fits, decoding.

The mean-reverting process

    d theta_t = lam * (mu - theta_t) dt + sigma dW_t

has an exact one-step transition over a sampling period ``dt``:

    theta_{t+1} = a * theta_t + (1 - a) * mu + eps_t,
    a = exp(-lam * dt),
    eps_t ~ N(0, sigma^2 * (1 - a^2) / (2 * lam)).

``simulate_ou(lam, mu, sigma, theta0, dt, steps, seed)`` draws a sample
path from this transition as a float64 array. ``fit_ou_ls_columns`` returns
one ``OUFit`` of arrays over the columns of a (T, k) array: the least
squares of theta_{t+1} on theta_t, (a, b, resid_sd), and its flags;
``fit_ou_ls(values, dt)`` is the one-column fit of a 1-D path, with scalar
fields. That is all ``band_fraction`` (the share of columns outside their
one-stationary-sd band) needs: sigma / sqrt(2 * lam) is resid_sd /
sqrt(1 - a^2) for any dt. ``band_fractions(paths)`` is that statistic of
each of many (T, k) paths sampled one step apart, bit for bit its own
``band_fraction(p[-1], fit_ou_ls_columns(p, 1.0))``, or the ValueError that
fit raises for the path alone: paths of one shape are fitted a block at a
time, so most of numpy's per-call cost is paid once per block, not per path.
The process, lam = -ln(a) / dt, mu = b / (1 - a) and sigma = resid_sd *
sqrt(-2 * ln(a) / (dt * (1 - a^2))), is derived on first read of
``fit.lam``, ``fit.mu`` or ``fit.sigma``; ``decode(theta_ref, lam, mu,
elapsed)`` gives conditional-mean estimates from it. Only there do
``math.log`` and ``math.exp`` run, element by element: numpy's vectorised
log and exp can differ from them in the last bit.
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

# band_fractions fits paths of one shape in blocks of at most this many
# elements per (B, T-1, k) buffer: 3 paths of (11, 1002). Twice as many
# made the two per-call buffers big enough that the heap was trimmed and
# refilled round after round, costing more page faults than they saved.
_BLOCK_ELEMENTS = 1 << 15


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.log or math.exp) applied to every element of x."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class OUFit:
    """Least-squares OU fits of k columns, each field but ``n_points`` and
    ``dt`` an array over the columns (scalars for one): the AR(1) regression
    theta_{t+1} = a * theta_t + b + eps_t over ``n_points`` pairs ``dt``
    apart, and the process it implies (slopes <= 0 clamped) derived on first
    use. ``degenerate`` marks fits with no usable slope (constant predictor
    or slope <= 0), ``non_reverting`` those with slope >= 1; the process of
    a flagged column may be NaN.
    """

    a: np.ndarray
    b: np.ndarray
    resid_sd: np.ndarray
    n_points: int
    dt: float
    degenerate: np.ndarray
    non_reverting: np.ndarray

    @cached_property
    def flagged(self) -> np.ndarray:
        return self.degenerate | self.non_reverting

    def __len__(self) -> int:
        return int(np.size(self.a))

    def columns(self, index) -> OUFit:
        """The fit of the columns ``index`` selects (an int gives scalar fields)."""
        return OUFit(
            self.a[index], self.b[index], self.resid_sd[index], self.n_points, self.dt,
            self.degenerate[index], self.non_reverting[index],
        )

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


def simulate_ou(lam: float, mu: float, sigma: float, theta0: float, dt: float, steps: int,
                seed: int) -> np.ndarray:
    """Draw one exact-discretization sample path of the process (lam, mu,
    sigma) from theta0: ``steps + 1`` float64 values at t = 0, dt, 2*dt, ...

    Deterministic given ``seed`` (the noise is ``derive_rng(seed,
    "ou_path")``). Requires ``sigma >= 0``, and ``lam > 0`` unless
    ``sigma == 0`` (the noiseless recursion is defined for any rate); raises
    ValueError when the path overflows.
    """
    if not all(math.isfinite(v) for v in (lam, mu, sigma, theta0, dt)):
        raise ValueError("simulate_ou requires finite parameters")
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if lam <= 0.0 and sigma > 0.0:
        raise ValueError("lam <= 0 with sigma > 0: transition noise scale undefined")

    a = math.exp(-lam * dt)
    if sigma > 0.0:
        noise_sd = sigma * math.sqrt((1.0 - a * a) / (2.0 * lam))
        z = derive_rng(seed, "ou_path").standard_normal(steps)
        drive = (1.0 - a) * mu + noise_sd * z
    else:
        drive = np.full(steps, (1.0 - a) * mu)

    # theta_{t+1} = a * theta_t + drive_t, in plain float arithmetic.
    path = itertools.accumulate(
        drive.tolist(), lambda theta, d: a * theta + d, initial=float(theta0)
    )
    values = np.fromiter(path, dtype=np.float64, count=steps + 1)
    if not np.isfinite(values).all():
        raise ValueError("trajectory values must be finite")
    return values


def _ar1_ols(
    paths: list[np.ndarray], scratch: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """Column-wise OLS with intercept over pairs (theta_t, theta_{t+1}) of a
    block of B paths of one shape.

    paths: B (T, k) arrays, T >= 3. Returns (a, b, resid_sd, n_points,
    degenerate, finite), each array (B, k) but finite (B,): degenerate marks
    zero-variance predictor columns, finite the paths with no non-finite
    value; no path's row depends on another path's values. Residual sd
    uses the regression dof denominator (n_points - 2), with an exact-fit
    convention of zero when n_points == 2. ``scratch`` is two flat buffers
    of at least B * (T - 1) * max(k, 2) elements, overwritten.

    Only each path's reads (its column sums, centred copies, x * a and
    y - fit) run per path, into rows of two (B, T-1, k) buffers; every other
    pass runs once over the block, in the same order per element as over
    one path. numpy sums a lone column pairwise but several columns row by
    row, so a lone column is fitted as one of two equal columns: a column's
    bits do not depend on how many columns, or paths, are fitted with it.
    """
    if paths[0].shape[1] == 1:
        a, b, resid_sd, n, degenerate, finite = _ar1_ols(
            [np.repeat(p, 2, axis=1) for p in paths], scratch)
        return a[:, :1], b[:, :1], resid_sd[:, :1], n, degenerate[:, :1], finite
    t, k = paths[0].shape
    n = t - 1
    shape = (len(paths), n, k)
    if scratch is None:
        dx, dy = np.empty(shape), np.empty(shape)
    else:
        size = math.prod(shape)
        dx, dy = (buf[:size].reshape(shape) for buf in scratch)
    xs = [p[:-1] for p in paths]
    ys = [p[1:] for p in paths]
    mx = np.empty((len(paths), k))
    my = np.empty((len(paths), k))
    for i, (x, y) in enumerate(zip(xs, ys)):
        np.add.reduce(x, axis=0, out=mx[i])
        np.add.reduce(y, axis=0, out=my[i])
    mx /= n
    my /= n
    # Every row is in x or in y, so a non-finite value makes its column's
    # mean non-finite; a finite column can overflow too, so only then scan.
    finite = np.ones(len(paths), dtype=bool)
    if not (np.isfinite(mx).all() and np.isfinite(my).all()):
        finite[:] = [np.isfinite(p).all() for p in paths]
    # The two buffers serve every product and the residual below.
    for i, (x, y) in enumerate(zip(xs, ys)):
        np.subtract(x, mx[i], out=dx[i])
        np.subtract(y, my[i], out=dy[i])
    dy *= dx
    sxy = np.add.reduce(dy, axis=1)
    sxx = np.add.reduce(np.multiply(dx, dx, out=dy), axis=1)

    degenerate = sxx == 0.0
    a = sxy / sxx
    if degenerate.any():
        # sxx may underflow to 0 where sxy does not: a must not read +-inf.
        a[degenerate] = np.nan
    b = my - a * mx  # NaN where a is

    for i, x in enumerate(xs):
        np.multiply(x, a[i], out=dx[i])
    dx += b[:, None, :]
    for i, y in enumerate(ys):
        np.subtract(y, dx[i], out=dx[i])
    dx *= dx
    ssr = np.add.reduce(dx, axis=1)
    # NaN where a is; the exact-fit zero (n == 2) keeps the degenerate NaN.
    resid_sd = np.sqrt(ssr / (n - 2)) if n > 2 else np.where(degenerate, np.nan, 0.0)
    return a, b, resid_sd, n, degenerate, finite


def _checked_fit(a, b, resid_sd, n: int, degenerate, finite, dt: float) -> tuple[OUFit, list]:
    """The OUFit of _ar1_ols' (B, k) fields, and each row's ValueError or
    None: non-finite values, or else a fit statistic of an unflagged column
    that overflows. Call under errstate."""
    # Slopes >= 1 are non-reverting, slopes <= 0 (clamped) degenerate.
    fit = OUFit(a, b, resid_sd, n, dt, degenerate | (a <= 0.0), a >= 1.0)
    checks = [(finite, "trajectory values must be finite")]
    # An unflagged slope is NaN (so is mu) or in (0, 1), where -2 ln(a) <
    # 1490: where mu and this bound of sigma are finite, so are lam and
    # sigma, known without a log. Elsewhere they are derived and checked.
    sigma_bound = resid_sd * np.sqrt(1490.0 / (dt * (1.0 - a * a)))
    if not np.all(fit.flagged | (np.isfinite(fit.mu) & np.isfinite(sigma_bound))):
        rated = np.all(fit.flagged | (np.isfinite(fit.lam) & np.isfinite(fit.mu)), axis=1)
        scaled = np.all(fit.flagged | (np.isfinite(fit.sigma) & (fit.sigma >= 0.0)), axis=1)
        checks += [(rated, "lam and mu must be finite"),
                   (scaled, "sigma must be finite and >= 0")]
    # Each row's first failed check, in the order a one-path fit makes them.
    errors = [None] * len(finite)
    for ok, msg in checks:
        for i in np.flatnonzero(~ok).tolist():
            errors[i] = errors[i] or ValueError(msg)
    return fit, errors


def _check_paths(values: np.ndarray) -> None:
    if values.ndim != 2:
        raise ValueError("expected a (T, k) array of column trajectories")
    if values.shape[0] < 3:
        raise ValueError("need at least 3 observations per trajectory")


def fit_ou_ls_columns(values: np.ndarray, dt: float) -> OUFit:
    """Fit every column of a (T, k) array of trajectories sharing one dt.

    Raises ValueError for non-finite input, and when a fit statistic of an
    unflagged column overflows to a non-finite value.
    """
    # C order: numpy sums a Fortran-ordered array's columns in another order.
    values = np.ascontiguousarray(values, dtype=np.float64)
    _check_paths(values)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")

    with np.errstate(all="ignore"):
        fit, (error,) = _checked_fit(*_ar1_ols([values]), dt)
    if error is not None:
        raise error
    return fit.columns(0)


def fit_ou_ls(values: np.ndarray, dt: float) -> OUFit:
    """Least-squares fit of one evenly sampled path; see module docstring.

    A one-column ``OUFit`` with scalar fields, bit for bit the path's column
    in any multi-column ``fit_ou_ls_columns`` fit. Raises ValueError for a
    path that is not 1-D, as ``fit_ou_ls_columns`` does for one shorter than
    3 points. A constant path yields a degenerate fit (no usable regression
    slope).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a 1-D trajectory")
    return fit_ou_ls_columns(values[:, None], dt).columns(0)


def decode(theta_ref, lam, mu, elapsed: float):
    """Conditional mean of the process (lam, mu) ``elapsed`` after theta_ref:

        exp(-lam * elapsed) * theta_ref + (1 - exp(-lam * elapsed)) * mu

    Floats give a float; arrays (one theta_ref, lam and mu per process, as
    ``fit.columns(live)`` holds them) give an array. Every process must
    have finite lam and mu.
    """
    theta = np.asarray(theta_ref, dtype=np.float64)
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

    return int(np.count_nonzero(_outside(finals, fit))) / finals.size


def _outside(finals: np.ndarray, fit: OUFit) -> np.ndarray:
    """Where finals lie outside their band, the flags' conventions applied;
    any shape, finals' and the fit's alike."""
    # A flagged column's band may be NaN or inf (slopes >= 1); its test is
    # discarded below, so it is computed on every column without a mask.
    with np.errstate(all="ignore"):
        band = fit.resid_sd / np.sqrt(1.0 - fit.a * fit.a)
        off_band = (finals > fit.mu + band) | (finals < fit.mu - band)
    return fit.non_reverting | (~fit.flagged & off_band)


def band_fractions(paths) -> list[float | ValueError]:
    """One entry per (T, k) path: ``band_fraction(p[-1],
    fit_ou_ls_columns(p, 1.0))``, bit for bit, or the ValueError that this
    fit raises for the path alone. A path that is not (T, k) with T >= 3
    and k >= 1 raises its ValueError at the call.

    Paths of one shape are fitted together, in blocks of at most
    _BLOCK_ELEMENTS elements per (B, T-1, k) buffer; see ``_ar1_ols``.
    """
    paths = [np.ascontiguousarray(p, dtype=np.float64) for p in paths]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(paths):
        _check_paths(p)
        if p.shape[1] == 0:
            raise ValueError("finals must be a non-empty vector")
        groups.setdefault(p.shape, []).append(i)
    # Each group's block width, and two buffers that hold the widest block.
    widths = {(t, k): max(1, _BLOCK_ELEMENTS // ((t - 1) * max(k, 2))) for t, k in groups}
    size = max(
        (min(widths[t, k], len(members)) * (t - 1) * max(k, 2)
         for (t, k), members in groups.items()),
        default=0,
    )
    scratch = (np.empty(size), np.empty(size))
    out: list[float | ValueError] = [0.0] * len(paths)
    with np.errstate(all="ignore"):
        for (t, k), members in groups.items():
            for lo in range(0, len(members), widths[t, k]):
                block = members[lo : lo + widths[t, k]]
                fit, errors = _checked_fit(*_ar1_ols([paths[i] for i in block], scratch), 1.0)
                finals = np.array([paths[i][-1] for i in block])
                counts = np.count_nonzero(_outside(finals, fit), axis=1).tolist()
                for i, count, error in zip(block, counts, errors):
                    out[i] = count / k if error is None else error
    return out
