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
squares of theta_{t+1} on theta_t, (a, b, resid_sd), from the means and
then the centred sums (the two-pass fit), and its flags;
``fit_ou_ls(values, dt)`` is the one-column fit of a 1-D path, with scalar
fields. That is all ``band_fraction`` (the share of columns outside their
one-stationary-sd band) needs: sigma / sqrt(2 * lam) is resid_sd /
sqrt(1 - a^2) for any dt. ``band_fractions(stack)`` is that statistic of
each row of a (B, T, k) array of paths sampled one step apart, from each
column's verdict alone: it reads the array in place, a block of rows at a
time, for five moments per column shifted by its second value (Chan, Golub
and LeVeque, 1983). An exactly constant column's are all 0: it is
degenerate and inside, as the two-pass fit makes it too. A row those
verdicts cannot decide is fitted alone by the two-pass fit: it takes
``band_fraction(p[-1], fit_ou_ls_columns(p, 1.0))``, or that fit's
ValueError.
The process, lam = -ln(a) / dt, mu = b / (1 - a) and sigma = resid_sd *
sqrt(-2 * ln(a) / (dt * (1 - a^2))), is derived once per fit, when
``fit_ou_ls_columns`` checks it, and kept as ``fit.lam``, ``fit.mu`` and
``fit.sigma``; ``decode(theta_ref, lam, mu, elapsed)`` gives
conditional-mean estimates from it. Only there do ``math.log`` and
``math.exp`` run, element by element: numpy's vectorised log and exp can
differ from them in the last bit.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .seeding import derive_rng

# Slope clamp for an estimated AR(1) slope <= 0, which the fit flags
# degenerate: it gives such a column the finite lam, mu and sigma of a
# slope of 1e-6, as `ou-demo` writes them to fits.csv. Decoding never reads
# them: `server_estimate` decodes only unflagged columns, where 0 < a < 1.
_SLOPE_FLOOR = 1e-6

# band_fractions reads its rows in blocks of at most this many elements in
# the one (B, T-1, k) buffer of _shifted_moments (3 paths of (11, 1002)),
# allocated per block. With the two-buffer fit that came before, twice as
# many made the heap be trimmed and refilled round after round, and buffers
# held for a whole call made `ou-decode` slower (run_s +7.3%, 6 of 6 pairs).
_BLOCK_ELEMENTS = 1 << 15


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.log or math.exp) applied to every element of x."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


class OUFit:
    """Least-squares OU fits of k columns, each field but ``n_points`` and
    ``dt`` an array over the columns (scalars for one): the AR(1) regression
    theta_{t+1} = a * theta_t + b + eps_t over ``n_points`` pairs ``dt``
    apart, and the process it implies (slopes <= 0 clamped) derived on first
    use. ``degenerate`` marks fits with no usable slope (constant predictor
    or slope <= 0), ``non_reverting`` those with slope >= 1; the process of
    a flagged column may be NaN. The fields are read-only.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, resid_sd: np.ndarray, n_points: int,
                 dt: float, degenerate: np.ndarray, non_reverting: np.ndarray) -> None:
        vars(self).update(a=a, b=b, resid_sd=resid_sd, n_points=n_points, dt=dt,
                          degenerate=degenerate, non_reverting=non_reverting)

    def __setattr__(self, name, *_):
        raise AttributeError(f"OUFit is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def flagged(self) -> np.ndarray:
        return self.degenerate | self.non_reverting

    def __len__(self) -> int:
        return int(np.size(self.a))

    def columns(self, index) -> OUFit:
        """The fit of the columns ``index`` selects (an int gives scalar
        fields), with what this fit has derived of them: the derivation is
        element-wise, so those are the bits the sub-fit would derive."""
        fit = OUFit(
            self.a[index], self.b[index], self.resid_sd[index], self.n_points, self.dt,
            self.degenerate[index], self.non_reverting[index],
        )
        for name in vars(self).keys() - vars(fit).keys():  # the cached properties
            vars(fit)[name] = vars(self)[name][..., index]
        return fit

    @cached_property
    def mu(self) -> np.ndarray:
        a_eff = np.where(self.a <= 0.0, _SLOPE_FLOOR, self.a)
        with np.errstate(all="ignore"):
            return np.where(np.isnan(self.a) | (self.a == 1.0), np.nan, self.b / (1.0 - a_eff))

    @cached_property
    def _lam_sigma(self) -> np.ndarray:
        a_eff = np.where(self.a <= 0.0, _SLOPE_FLOOR, self.a)
        rated = ~(self.non_reverting | np.isnan(self.a))
        with np.errstate(all="ignore"):
            log_a = _elementwise(math.log, np.where(rated, a_eff, np.nan))
            lam = np.where(rated, -log_a / self.dt, np.nan)
            sigma = self.resid_sd * np.sqrt(-2.0 * log_a / (self.dt * (1.0 - a_eff * a_eff)))
        return np.array([lam, sigma])

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
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray, bool]:
    """Column-wise OLS with intercept over pairs (theta_t, theta_{t+1}).

    values: a C-contiguous (T, k) array, T >= 3. Returns (a, b, resid_sd,
    n_points, degenerate, finite), each array (k,) but finite, which is
    whether no value is non-finite: degenerate marks constant columns and
    those with sxx == 0. Residual sd uses the regression dof denominator
    (n_points - 2), with an exact-fit convention of zero when n_points == 2.

    Every pass is one numpy call over the path, into two (T-1, k) buffers.
    numpy sums a lone column pairwise but several columns row by row, so a
    lone column is fitted as one of two equal columns: a column's bits do
    not depend on how many columns are fitted with it.
    """
    if values.shape[1] == 1:
        a, b, resid_sd, n, degenerate, finite = _ar1_ols(np.repeat(values, 2, axis=1))
        return a[:1], b[:1], resid_sd[:1], n, degenerate[:1], finite
    x, y = values[:-1], values[1:]
    n = len(x)
    mx = np.add.reduce(x, axis=0)
    my = np.add.reduce(y, axis=0)
    mx /= n
    my /= n
    # Every row is in x or in y, so a non-finite value makes its column's
    # mean non-finite; a finite column can overflow too, so only then scan.
    finite = np.isfinite(mx).all() and np.isfinite(my).all() or np.isfinite(values).all()
    # The two buffers serve every product and the residual below.
    dx = np.subtract(x, mx)
    dy = np.subtract(y, my)
    dy *= dx
    sxy = np.add.reduce(dy, axis=0)
    sxx = np.add.reduce(np.multiply(dx, dx, out=dy), axis=0)

    # A constant column's mean may not round to its value, leaving sxx > 0:
    # compare columns of equal finite means (an overflow fails a later check).
    degenerate = (mx == my) & np.isfinite(mx)
    if degenerate.any():
        cols = np.flatnonzero(degenerate)
        degenerate[cols] = (values[:, cols] == values[0, cols]).all(axis=0)
    degenerate |= sxx == 0.0
    a = sxy / sxx
    if degenerate.any():
        # sxx may underflow to 0 where sxy does not: a must not read +-inf.
        a[degenerate] = np.nan
    b = my - a * mx  # NaN where a is

    np.multiply(x, a, out=dx)
    dx += b
    np.subtract(y, dx, out=dx)
    dx *= dx
    ssr = np.add.reduce(dx, axis=0)
    # NaN where a is; the exact-fit zero (n == 2) keeps the degenerate NaN.
    resid_sd = np.sqrt(ssr / (n - 2)) if n > 2 else np.where(degenerate, np.nan, 0.0)
    return a, b, resid_sd, n, degenerate, finite


def fit_ou_ls_columns(values: np.ndarray, dt: float) -> OUFit:
    """Fit every column of a (T, k) array of trajectories sharing one dt.

    Raises ValueError for non-finite input, else when a fit statistic of an
    unflagged column overflows to a non-finite value (lam or mu before sigma).
    That check derives the process, so the returned fit holds ``lam``,
    ``mu`` and ``sigma`` already.
    """
    # C order: numpy sums a Fortran-ordered array's columns in another order.
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a (T, k) array of column trajectories")
    if len(values) < 3:
        raise ValueError("need at least 3 observations per trajectory")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")

    with np.errstate(all="ignore"):
        a, b, resid_sd, n, degenerate, finite = _ar1_ols(values)
        if not finite:
            raise ValueError("trajectory values must be finite")
        # Slopes >= 1 are non-reverting, slopes <= 0 (clamped) degenerate.
        fit = OUFit(a, b, resid_sd, n, dt, degenerate | (a <= 0.0), a >= 1.0)
        if not np.all(fit.flagged | (np.isfinite(fit.lam) & np.isfinite(fit.mu))):
            raise ValueError("lam and mu must be finite")
        if not np.all(fit.flagged | (np.isfinite(fit.sigma) & (fit.sigma >= 0.0))):
            raise ValueError("sigma must be finite and >= 0")
    return fit


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
    ``fit.lam[live]`` and ``fit.mu[live]`` hold them) give an array. Every
    process must have finite lam and mu.
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

    # A flagged column's band may be NaN or inf (slopes >= 1); its test is
    # discarded below, so it is computed on every column without a mask.
    with np.errstate(all="ignore"):
        band = fit.resid_sd / np.sqrt(1.0 - fit.a * fit.a)
        off_band = (finals > fit.mu + band) | (finals < fit.mu - band)
    outside = fit.non_reverting | (~fit.flagged & off_band)
    return int(np.count_nonzero(outside)) / finals.size


def _shifted_moments(block: np.ndarray, s, q, x, e, f) -> None:
    """The moments of z = p - p[1] of each column of a (B, T, k) block, into
    (B, k) arrays: s = sum z_t and q = sum z_t^2 over 0 < t < T-1, x = sum
    z_t z_{t+1} over t < T-1, e = z_0 and f = z_{T-1}. p[1] is in x and y
    both, so a jump at the first or last step does not cancel in sxx or syy.
    The block is only read; z is the one (B, T-1, k) buffer."""
    z = np.subtract(block[:, 1:], block[:, 1:2])
    inner = z[:, :-1]
    np.add.reduce(inner, axis=1, out=s)
    np.einsum("btk,btk->bk", inner, inner, out=q)
    np.einsum("btk,btk->bk", inner, z[:, 1:], out=x)  # z_0 z_1 is 0
    np.subtract(block[:, 0], block[:, 1], out=e)
    np.copyto(f, z[:, -1])


def _band_verdict(n: int, s, q, x, e, f) -> tuple[np.ndarray, np.ndarray]:
    """(outside, unsure) from _shifted_moments' (B, k) arrays, which it
    overwrites: each column's band verdict, and the rows it cannot decide (a
    non-finite sum of squares, or a non-finite d or band in an unflagged
    column). Degenerate (inside) if sxx <= 0 or a <= 0, non-reverting if a
    >= 1, else outside iff |d| > band, d = p[-1] - mu. Call under errstate;
    the last argument of each ufunc call is its output."""
    h = 1.0 / (n - 2) if n > 2 else 0.0
    r = f * f
    r += q  # sum y^2
    t = e * e
    q += t  # sum x^2
    unsure = ~np.isfinite(np.add(q, r, t)).all(axis=1)
    np.add(s, f, t)
    t *= 1.0 / n  # ybar
    s += e
    s *= 1.0 / n  # xbar
    np.subtract(t, s, e)  # ybar - xbar
    a = s * s
    a *= n
    q -= a  # sxx
    np.multiply(s, t, a)
    a *= n
    x -= a  # sxy
    t *= t
    t *= n
    np.subtract(r, t, t)  # syy
    np.divide(x, q, a)  # slope
    x *= a
    t -= x  # ssr
    np.subtract(1.0, a, x)  # 1 - a
    np.subtract(f, s, s)
    e /= x
    s -= e  # d: mu is xbar + (ybar - xbar) / (1 - a)
    np.abs(s, s)
    np.maximum(t, 0.0, out=t)
    t *= h
    np.add(a, 1.0, f)
    f *= x
    t /= f
    np.sqrt(t, t)  # band
    s -= t  # |d| - band, non-finite where d or band is
    # sxx <= 0 first: where sxx is 0 and sxy is not, a reads +-inf.
    live = (q > 0.0) & (a > 0.0)
    outside = live & (a >= 1.0)
    live &= a < 1.0
    unsure |= (live & ~np.isfinite(s)).any(axis=1)
    return outside | (live & (s > 0.0)), unsure


def band_fractions(stack) -> list[float | ValueError]:
    """One entry per row p of a (B, T, k) array of paths: the share of its
    columns outside their band by ``_band_verdict``, exactly constant columns
    inside. A row it cannot decide, or with a value whose column mean may
    overflow, takes ``band_fraction(p[-1], fit_ou_ls_columns(p, 1.0))`` or
    that fit's ValueError. An array that is not (B, T, k) with T >= 3 and k
    >= 1 raises at the call. The verdict is the two-pass fit's but where d,
    band or slope is within the rounding of the sums, which scales with the
    path's squared distance from p[1].

    A C-contiguous float64 array is read where it lies, never written; any
    other is read as its C-order float64 copy. The moments are taken in
    blocks of at most _BLOCK_ELEMENTS elements per (B, T-1, k) buffer.
    """
    # C order: numpy sums a Fortran-ordered array's columns in another order.
    stack = np.ascontiguousarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("expected a (B, T, k) array of column trajectories")
    _, t, k = stack.shape
    if t < 3:
        raise ValueError("need at least 3 observations per trajectory")
    if k == 0:
        raise ValueError("finals must be a non-empty vector")
    width = max(1, _BLOCK_ELEMENTS // ((t - 1) * k))
    moments = [np.empty((len(stack), k)) for _ in range(5)]  # reused by _band_verdict
    with np.errstate(all="ignore"):
        for lo in range(0, len(stack), width):
            _shifted_moments(stack[lo : lo + width], *(m[lo : lo + width] for m in moments))
        outside, unsure = _band_verdict(t - 1, *moments)
        # The two-pass fit rejects a constant column whose mean overflows.
        unsure |= (np.abs(stack[:, 0]) > np.finfo(np.float64).max / (2 * t)).any(axis=1)
        entries = [count / k for count in np.count_nonzero(outside, axis=1).tolist()]
        for row in np.flatnonzero(unsure).tolist():
            try:
                entries[row] = band_fraction(stack[row, -1], fit_ou_ls_columns(stack[row], 1.0))
            except ValueError as error:
                entries[row] = error
    return entries
