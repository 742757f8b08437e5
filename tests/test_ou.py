"""Tests for OU simulation, least-squares estimation, decoding, and bands."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsample import (
    OUFit,
    band_fraction,
    decode,
    fit_ou_ls,
    fit_ou_ls_columns,
    simulate_ou,
)
from fedsample import ou
from fedsample.seeding import derive_rng


# ---------------------------------------------------------------- simulate_ou

def test_noiseless_decay_matches_closed_form():
    # lam = ln 2 makes the one-step multiplier exactly 0.5.
    t = simulate_ou(math.log(2.0), 0.0, 0.0, 1.0, 1.0, 3, seed=0)
    np.testing.assert_allclose(t, [1.0, 0.5, 0.25, 0.125], rtol=1e-12)


def test_start_at_mean_stays_at_mean():
    t = simulate_ou(3.7, 2.5, 0.0, 2.5, 0.5, 50, seed=0)
    np.testing.assert_allclose(t, 2.5, rtol=1e-12)


def test_stationary_moments_of_long_path():
    # N(mu, sigma^2 / (2 lam)) is the stationary law; the second half of a
    # long path should match it. Seeds frozen from a reference run.
    for seed in (0, 1, 2):
        t = simulate_ou(1.0, 0.5, 0.2, 0.0, 0.01, 100_000, seed)
        half = t[50_000:]
        # 3 standard errors of the autocorrelated mean: sd * sqrt(2/(lam*T))
        se = 0.2 / math.sqrt(2.0) * math.sqrt(2.0 / (1.0 * 500.0))
        assert abs(half.mean() - 0.5) <= 3.0 * se
        assert abs(half.var() - 0.02) <= 0.1 * 0.02


def test_same_seed_same_path_bitwise():
    a = simulate_ou(0.8, -1.0, 0.3, 0.2, 0.05, 1000, seed=42)
    b = simulate_ou(0.8, -1.0, 0.3, 0.2, 0.05, 1000, seed=42)
    assert np.array_equal(a, b)


def test_noisy_path_equals_explicit_recurrence_bitwise():
    for seed, (lam, mu, sigma, theta0, dt, steps) in enumerate([
        (0.8, -1.0, 0.3, 0.2, 0.05, 500),
        (25.0, 3.0, 2.0, -7.5, 0.3, 64),
        (1e-3, 0.5, 1e-4, 1.0, 1.0, 1),
    ]):
        a = math.exp(-lam * dt)
        noise_sd = sigma * math.sqrt((1.0 - a * a) / (2.0 * lam))
        z = derive_rng(seed, "ou_path").standard_normal(steps)
        drive = (1.0 - a) * mu + noise_sd * z
        expected = [theta0]
        for d in drive:
            expected.append(a * expected[-1] + float(d))
        got = simulate_ou(lam, mu, sigma, theta0, dt, steps, seed=seed)
        assert got.tobytes() == np.array(expected).tobytes()


def test_import_does_not_load_scipy():
    code = "import sys, fedsample; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"


def test_different_seeds_differ():
    a = simulate_ou(0.8, -1.0, 0.3, 0.2, 0.05, 1000, seed=1)
    b = simulate_ou(0.8, -1.0, 0.3, 0.2, 0.05, 1000, seed=2)
    assert not np.array_equal(a, b)


def test_zero_steps_returns_initial_point():
    t = simulate_ou(1.0, 0.0, 0.1, 3.0, 1.0, 0, seed=0)
    assert len(t) == 1 and t[0] == 3.0


def test_simulate_rejects_bad_inputs():
    p = (1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        simulate_ou(*p, 0.0, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_ou(*p, 0.0, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_ou(*p, 0.0, 1.0, -1, seed=0)
    with pytest.raises(ValueError):
        simulate_ou(*p, math.nan, 1.0, 10, seed=0)
    with pytest.raises(ValueError, match="finite"):
        simulate_ou(math.nan, 0.0, 0.1, 0.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError, match="finite"):
        simulate_ou(1.0, math.nan, 0.1, 0.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError, match=r"^sigma must be >= 0$"):
        # a negative sigma would otherwise give a noiseless path
        simulate_ou(1.0, 0.0, -0.1, 0.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        # lam <= 0 leaves the transition noise scale undefined
        simulate_ou(-1.0, 0.0, 0.1, 0.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError, match="finite"):
        # the noiseless recursion at lam = -10 overflows within 1000 steps
        simulate_ou(-10.0, 0.0, 0.0, 1.0, 1.0, 1000, seed=0)


def test_negative_lam_allowed_when_noiseless():
    t = simulate_ou(-math.log(2.0), 0.0, 0.0, 1.0, 1.0, 2, seed=0)
    np.testing.assert_allclose(t, [1.0, 2.0, 4.0], rtol=1e-12)


# ------------------------------------------------------------------ fit_ou_ls

def test_fit_noiseless_geometric_sequence():
    fit = fit_ou_ls(np.array([1.0, 0.5, 0.25, 0.125, 0.0625]), 1.0)
    assert fit.a == pytest.approx(0.5, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)
    assert fit.resid_sd == pytest.approx(0.0, abs=1e-12)
    assert fit.n_points == 4
    assert fit.lam == pytest.approx(math.log(2.0), rel=1e-12)
    assert fit.mu == pytest.approx(0.0, abs=1e-12)
    assert fit.sigma == pytest.approx(0.0, abs=1e-12)
    assert not fit.flagged


def test_fit_two_pairs_is_exact_with_zero_resid():
    fit = fit_ou_ls(np.array([0.0, 1.0, 1.5]), 1.0)
    assert fit.n_points == 2
    assert fit.a == pytest.approx(0.5)
    assert fit.b == pytest.approx(1.0)
    assert fit.resid_sd == 0.0
    assert fit.mu == pytest.approx(2.0)
    # The zero is a convention, not float luck: two pairs of arbitrary
    # values leave rounding residuals that it discards.
    values = np.random.default_rng(2).standard_normal((3, 50))
    values[:, 0] = 1.0  # degenerate: NaN, not zero
    fits = fit_ou_ls_columns(values, 1.0)
    assert np.isnan(fits.resid_sd[0]) and (fits.resid_sd[1:] == 0.0).all()


def test_fit_constant_sequence_is_degenerate():
    fit = fit_ou_ls(np.array([2.0, 2.0, 2.0, 2.0]), 1.0)
    assert fit.degenerate
    assert math.isnan(fit.a)
    assert math.isnan(fit.lam) and math.isnan(fit.mu) and math.isnan(fit.sigma)


def test_fit_negative_slope_is_degenerate_with_clamped_rate():
    # Alternating path gives a = -1; the rate is taken from a floor of 1e-6
    # so decoding stays NaN-free, and the flag records the failure.
    fit = fit_ou_ls(np.array([1.0, -1.0, 1.0, -1.0, 1.0]), 1.0)
    assert fit.a == pytest.approx(-1.0)
    assert fit.degenerate and not fit.non_reverting
    assert fit.lam == pytest.approx(-math.log(1e-6))
    assert math.isfinite(fit.mu)


def test_fit_expanding_path_is_non_reverting():
    fit = fit_ou_ls(np.array([1.0, 2.0, 4.0, 8.0, 16.0]), 1.0)
    assert fit.a == pytest.approx(2.0)
    assert fit.non_reverting and not fit.degenerate
    assert math.isnan(fit.lam) and math.isnan(fit.sigma)


def test_fit_checks_lam_and_sigma_where_the_log_free_bound_fails():
    # At dt = 1e-306 the fit's log-free bound of sigma overflows, yet lam
    # and sigma are finite: the fit stands. Below, each overflows in turn
    # and the fit fails with its own message.
    path = simulate_ou(1.0, 0.5, 0.2, 0.0, 0.1, 50, seed=3)[:, None]
    fit = fit_ou_ls_columns(path, dt=1e-306)
    assert not fit.flagged.any()
    assert np.isfinite(fit.lam).all() and np.isfinite(fit.sigma).all()
    assert fit.lam[0] == -math.log(fit.a[0]) / 1e-306
    halving = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])[:, None]
    with pytest.raises(ValueError, match=r"^sigma must be finite and >= 0$"):
        fit_ou_ls_columns(halving, dt=5e-309)
    with pytest.raises(ValueError, match=r"^lam and mu must be finite$"):
        fit_ou_ls_columns(halving, dt=1e-309)


def test_fit_requires_three_points():
    with pytest.raises(ValueError):
        fit_ou_ls(np.array([1.0, 2.0]), 1.0)


def test_fit_roundtrip_recovers_parameters():
    # Frozen reference run: all 10 seeds recover within tolerance at this
    # sampling rate; the contract only demands 9.
    passes = 0
    for seed in range(10):
        t = simulate_ou(1.0, 0.5, 0.2, 0.0, 0.01, 100_000, seed)
        est = fit_ou_ls(t, 0.01)
        passes += (
            abs(est.lam - 1.0) <= 0.10
            and abs(est.mu - 0.5) <= 0.02
            and abs(est.sigma - 0.2) / 0.2 <= 0.10
        )
    assert passes >= 9


def test_fit_is_affine_equivariant():
    t = simulate_ou(1.5, 0.0, 0.4, 1.0, 0.05, 5000, seed=7)
    base = fit_ou_ls(t, 0.05)
    for c in (-3.0, 0.25, 10.0):
        shifted = fit_ou_ls(t + c, 0.05)
        assert shifted.lam == pytest.approx(base.lam, rel=1e-9)
        assert shifted.sigma == pytest.approx(base.sigma, rel=1e-9)
        assert shifted.mu == pytest.approx(base.mu + c, abs=1e-9 * max(1.0, abs(c)))


def test_columns_fit_matches_scalar_fit():
    # One path fitted alone, and decoded from floats, gives the very bits of
    # its column in the array fit and the array decode.
    cols = np.column_stack(
        [simulate_ou(2.0, -0.3, 0.5, 0.0, 0.1, 200, seed=s) for s in range(4)]
    )
    results = fit_ou_ls_columns(cols, dt=0.1)
    assert len(results) == 4 and not results.flagged.any()
    est = decode(cols[-1], results.lam, results.mu, 1.0)
    for j in range(4):
        fit = fit_ou_ls(cols[:, j], 0.1)
        for name in ("a", "b", "resid_sd", "lam", "mu", "sigma"):
            got, want = getattr(fit, name), getattr(results, name)[j]
            assert np.float64(got).tobytes() == want.tobytes(), name
        scalar = decode(float(cols[-1, j]), float(fit.lam), float(fit.mu), 1.0)
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == est[j].tobytes()


def test_one_column_fit_is_its_column_of_a_wider_fit():
    # numpy sums a lone column pairwise and several columns row by row; a
    # column's fit must not depend on how many columns are fitted with it.
    rng = np.random.default_rng(16)
    values = np.cumsum(rng.standard_normal((11, 6)), axis=0) * 0.1 + 0.5
    values[:, 5] = 1.25  # constant: degenerate
    full = fit_ou_ls_columns(values, dt=1.0)
    for j in range(6):
        one = fit_ou_ls_columns(values[:, [j]], dt=1.0)
        for name in ("a", "b", "resid_sd", "degenerate", "non_reverting"):
            assert getattr(one, name).tobytes() == getattr(full, name)[[j]].tobytes(), (j, name)


def test_underflowing_sxx_is_degenerate_with_nan_fields():
    # x's deviations square below the smallest subnormal, so sxx is 0.0
    # while sxy is -5e-171: the slope is NaN, not -inf, and so is mu.
    rng = np.random.default_rng(3)
    values = np.zeros((11, 2))
    values[1, 0], values[-1, 0] = 1e-170, 5.0
    values[:, 1] = simulate_ou(1.0, 0.5, 0.2, 0.0, 0.1, 10, seed=4)
    fit = fit_ou_ls_columns(values, dt=1.0)
    assert fit.degenerate.tolist() == [True, False]
    for name in ("a", "b", "resid_sd", "mu"):
        assert math.isnan(getattr(fit, name)[0]), name
    finals = values[-1] + rng.uniform(-1.0, 1.0, 2)
    # The degenerate column counts as inside.
    assert band_fraction(finals, fit) == band_fraction(finals[1:], fit.columns([1])) / 2


def test_columns_fit_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fit_ou_ls_columns(np.zeros((2, 3)), dt=1.0)
    with pytest.raises(ValueError):
        fit_ou_ls_columns(np.zeros(5), dt=1.0)
    with pytest.raises(ValueError):
        fit_ou_ls_columns(np.zeros((5, 2)), dt=0.0)


def test_columns_fit_rejects_non_finite_input_and_statistics():
    with pytest.raises(ValueError, match="finite"):
        fit_ou_ls_columns(np.array([[1.0], [math.nan], [2.0]]), dt=1.0)
    # Finite paths whose regression sums overflow leave an unflagged column
    # without a finite rate; the fit's own check rejects it, warning-free.
    overflowing = np.array([[(-1.0) ** t * 1e300] for t in range(5)])
    with pytest.raises(ValueError, match="lam and mu must be finite"):
        fit_ou_ls_columns(overflowing, dt=1.0)


def test_columns_fit_finds_a_non_finite_value_in_any_row():
    # The fit reads non-finite input off its column means: the first and
    # last rows enter only one of them.
    base = np.column_stack([np.arange(6.0), np.sin(np.arange(6.0)), np.ones(6)])
    for row in range(6):
        for col in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                values = base.copy()
                values[row, col] = bad
                with pytest.raises(ValueError, match=r"^trajectory values must be finite$"):
                    fit_ou_ls_columns(values, dt=1.0)
                with pytest.raises(ValueError, match=r"^trajectory values must be finite$"):
                    fit_ou_ls(values[:, col], 1.0)
    # A finite column whose mean overflows is not non-finite input: the
    # fit's own check rejects it.
    base[:, 0] = 1.5e308
    with pytest.raises(ValueError, match=r"^lam and mu must be finite$"):
        fit_ou_ls_columns(base, dt=1.0)


# --------------------------------------------------------------------- decode

def test_decode_zero_elapsed_returns_reference():
    assert decode(1.7, 1.0, 0.0, 0.0) == 1.7


def test_decode_long_horizon_approaches_mean():
    assert decode(1.0, 1.0, 0.25, 1e6) == pytest.approx(0.25)


def test_decode_half_life():
    assert decode(1.0, math.log(2.0), 0.0, 1.0) == pytest.approx(0.5)


def test_decode_is_monotone_toward_mean():
    gaps = [abs(decode(3.0, 0.7, 0.2, t) - 0.2) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_decode_rejects_unpopulated_params():
    # A non-reverting fit leaves lam NaN.
    nr = fit_ou_ls(np.array([1.0, 2.0, 4.0, 8.0, 16.0]), 1.0)
    with pytest.raises(ValueError):
        decode(1.0, nr.lam, nr.mu, 1.0)
    with pytest.raises(ValueError):
        decode(1.0, 1.0, math.nan, 1.0)
    with pytest.raises(ValueError):
        decode(math.nan, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        decode(1.0, 1.0, 0.0, -1.0)


# -------------------------------------------------------------- band_fraction

def fit_of(rows):
    """A fit of the given (a, b, resid_sd) regressions, flagged as
    fit_ou_ls_columns flags them."""
    a, b, resid_sd = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    return OUFit(a, b, resid_sd, n_points=0, dt=1.0,
                 degenerate=np.isnan(a) | (a <= 0.0), non_reverting=a >= 1.0)


def test_band_all_at_mean_is_zero():
    fit = fit_of([(0.5, 0.25, 0.2)] * 5)  # mu = 0.5
    assert band_fraction(np.full(5, 0.5), fit) == 0.0


def stationary_sd(fit: OUFit) -> np.ndarray:
    """resid_sd / sqrt(1 - a^2), the band half-width, for unflagged columns."""
    return fit.resid_sd / np.sqrt(1.0 - fit.a * fit.a)


def test_band_all_far_outside_is_one():
    fit = fit_of([(0.5, 0.0, 0.2)] * 5)
    sd = stationary_sd(fit)[0]
    assert band_fraction(np.full(5, 10.0 * sd), fit) == 1.0


def test_band_counts_fractionally():
    fit = fit_of([(0.8, 0.0, 0.2)] * 4)
    sd = stationary_sd(fit)[0]
    finals = np.array([0.0, 0.5 * sd, -0.9 * sd, 5.0 * sd])
    assert band_fraction(finals, fit) == 0.25


def test_band_boundary_is_inside():
    # Strict inequalities: sitting exactly on the band edge does not count.
    fit = fit_of([(0.8, 0.0, 0.2)])
    assert band_fraction(stationary_sd(fit), fit) == 0.0


def test_band_flag_conventions():
    deg = (math.nan, math.nan, math.nan)
    nr = (1.5, 0.0, 0.1)
    unit = (1.0, 0.0, 0.1)  # a zero-width denominator in the band
    live = (0.5, 0.0, 0.2)
    finals = np.array([100.0, 0.0, 0.0, 0.0])
    assert band_fraction(finals, fit_of([deg, nr, unit, live])) == 0.5


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
def test_closed_form_band_decides_as_the_rate_form(dt):
    # The band half-width resid_sd / sqrt(1 - a^2) is sigma / sqrt(2 lam)
    # in closed form; on a seeded grid every inside/outside call must be
    # the one the rate form makes. Slopes in (-0.5, 1.1) give clamped and
    # non-reverting fits, columns 0-4 are constant, 5-9 alternate.
    rng = np.random.default_rng(int(4 * dt))
    k = 1500
    slopes = rng.uniform(-0.5, 1.1, k)
    values = np.empty((12, k))
    values[0] = rng.standard_normal(k)
    for t in range(1, 12):
        values[t] = slopes * values[t - 1] + 0.2 + 0.1 * rng.standard_normal(k)
    values[:, :5] = -1.5
    values[:, 5:10] = np.where(np.arange(12) % 2, 1.0, -1.0)[:, None]
    fit = fit_ou_ls_columns(values, dt=dt)
    assert fit.degenerate[:10].all() and fit.non_reverting.any()
    assert (~fit.flagged).sum() > k // 2

    live = ~fit.flagged & (fit.lam > 0.0)
    sd = np.full(k, np.nan)
    sd[live] = fit.sigma[live] / np.sqrt(2.0 * fit.lam[live])
    np.testing.assert_allclose(stationary_sd(fit.columns(live)), sd[live], rtol=1e-9, atol=0.0)

    def reference(finals):
        off = (finals > fit.mu + sd) | (finals < fit.mu - sd)
        return np.count_nonzero(fit.non_reverting | (~fit.degenerate & off)) / k

    candidates = [values[-1], fit.mu + 0.999 * sd, fit.mu - 1.001 * sd]
    candidates += [fit.mu + rng.uniform(-2.0, 2.0, k) * np.nan_to_num(sd) for _ in range(20)]
    for finals in candidates:
        finals = np.nan_to_num(finals)
        assert band_fraction(finals, fit) == reference(finals)


def test_band_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        band_fraction(np.array([]), fit_of([]))
    with pytest.raises(ValueError):
        band_fraction(np.array([1.0]), fit_of([]))


# ------------------------------------------------------------- band_fractions

def band_path(rng, t, k, kind):
    """A seeded (t, k) path of one column kind: AR(1) columns with slopes in
    (-0.6, 1.2), or columns that are constant (degenerate), a unit-slope
    line, an expanding walk (non-reverting), alternating (negative slope),
    or the underflowing-sxx column of
    test_underflowing_sxx_is_degenerate_with_nan_fields."""
    slopes = rng.uniform(-0.6, 1.2, k)
    values = np.empty((t, k))
    values[0] = rng.standard_normal(k)
    for row in range(1, t):
        values[row] = slopes * values[row - 1] + 0.3 + 0.1 * rng.standard_normal(k)
    cols = slice(0, k, 3) if k > 2 else slice(0, 1)
    if kind == "constant":
        values[:, cols] = 1.25
    elif kind == "unit":
        values[:, cols] = np.arange(t, dtype=np.float64)[:, None] * 0.5 - 1.0
    elif kind == "expanding":
        values[:, cols] = (1.5 ** np.arange(t))[:, None]
    elif kind == "alternating":
        values[:, cols] = np.where(np.arange(t) % 2, 0.75, -0.25)[:, None]
    elif kind == "underflow":
        values[:, cols] = 0.0
        values[1, cols], values[-1, cols] = 1e-170, 5.0
    return values


def per_path(paths):
    return [band_fraction(p[-1], fit_ou_ls_columns(p, 1.0)) for p in paths]


BAND_KINDS = ("ar1", "constant", "unit", "expanding", "alternating", "underflow")


@pytest.mark.parametrize("block_paths", [None, 1, 2, 3])
def test_band_fractions_are_the_per_path_band_fractions(monkeypatch, block_paths):
    # Bit for bit the per-path statistic, for one shape or mixed shapes in
    # one list, with blocks of at most block_paths paths of (11, 1002), so
    # that a group's size falls on and across block edges.
    if block_paths is not None:
        monkeypatch.setattr(ou, "_BLOCK_ELEMENTS", block_paths * 10 * 1002)
    rng = np.random.default_rng(19 + (block_paths or 0))
    shapes = [(t, k) for t in (3, 4, 11, 21) for k in (1, 2, 1002)]
    cases = [[shape] * g for shape in shapes for g in (1, 2, 6, 7)]
    cases += [[shapes[i] for i in rng.integers(len(shapes), size=rng.integers(2, 13))]
              for _ in range(12)]
    for case in cases:
        paths = [band_path(rng, t, k, BAND_KINDS[rng.integers(len(BAND_KINDS))])
                 for t, k in case]
        assert ou.band_fractions(paths) == per_path(paths), case
    assert ou.band_fractions([]) == []


def test_band_fractions_cover_every_column_kind():
    # Each kind on its own, so each reaches the flag and slope it is meant to.
    rng = np.random.default_rng(20)
    expect = {"constant": (True, False, math.nan), "underflow": (True, False, math.nan),
              "alternating": (True, False, -1.0), "unit": (False, True, 1.0),
              "expanding": (False, True, 1.5)}
    for kind in BAND_KINDS:
        paths = [band_path(rng, t, k, kind) for t in (3, 4, 11) for k in (1, 2, 1002)]
        assert ou.band_fractions(paths) == per_path(paths), kind
        for p in paths if kind in expect else ():
            fit = fit_ou_ls_columns(p, 1.0).columns(0)
            assert (fit.degenerate, fit.non_reverting) == expect[kind][:2], (kind, p.shape)
            np.testing.assert_equal(fit.a, expect[kind][2])


def spoil(path, bad):
    """Make path's column 1 non-finite (bad is the value) or, for
    "overflow", finite with regression sums that overflow."""
    if bad == "overflow":
        path[:, 1] = [(-1.0) ** t * 1e300 for t in range(len(path))]
    else:
        path[len(path) // 2, 1] = bad


def fit_error(path):
    with pytest.raises(ValueError) as info:
        fit_ou_ls_columns(path, 1.0)
    return str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "overflow"])
def test_band_fractions_reject_non_finite_paths_and_fits(monkeypatch, bad):
    # A path whose fit fails gets the ValueError that fitting it alone
    # raises; every other path gets its statistic.
    monkeypatch.setattr(ou, "_BLOCK_ELEMENTS", 2 * 10 * 1002)
    rng = np.random.default_rng(21)
    match = r"^lam and mu must be finite$" if bad == "overflow" else (
        r"^trajectory values must be finite$")
    for where in (0, 3, 4):  # in the first, second and last block
        paths = [band_path(rng, 11, 1002, "ar1") for _ in range(5)]
        spoil(paths[where], bad)
        with pytest.raises(ValueError, match=match):
            fit_ou_ls_columns(paths[where], 1.0)
        got = ou.band_fractions(paths)
        assert isinstance(got[where], ValueError)
        assert str(got[where]) == fit_error(paths[where])
        others = [i for i in range(5) if i != where]
        assert [got[i] for i in others] == per_path([paths[i] for i in others])
    # Two bad paths, in different blocks of different shape groups, each
    # with its own error.
    shapes = [(11, 1002), (21, 2), (11, 1002), (21, 2), (11, 1002)]
    paths = [band_path(rng, t, k, "ar1") for t, k in shapes]
    spoil(paths[0], bad)
    spoil(paths[3], math.nan if bad == "overflow" else "overflow")
    got = ou.band_fractions(paths)
    assert [str(got[i]) for i in (0, 3)] == [fit_error(paths[i]) for i in (0, 3)]
    assert str(got[0]) != str(got[3])
    assert [got[i] for i in (1, 2, 4)] == per_path([paths[i] for i in (1, 2, 4)])
    with pytest.raises(ValueError, match="at least 3 observations"):
        ou.band_fractions([np.zeros((2, 4))])
    with pytest.raises(ValueError, match=r"\(T, k\) array"):
        ou.band_fractions([np.zeros(5)])
    with pytest.raises(ValueError, match=r"^finals must be a non-empty vector$"):
        ou.band_fractions([np.zeros((5, 0))])


def test_fits_do_not_depend_on_memory_layout():
    # numpy sums a Fortran-ordered array's columns in another order; the
    # fit reads every layout as C order.
    values = band_path(np.random.default_rng(22), 40, 30, "ar1")
    layouts = [np.asfortranarray(values), np.ascontiguousarray(values.T).T,
               np.repeat(values, 2, axis=1)[:, ::2]]
    fit = fit_ou_ls_columns(values, 1.0)
    for other in layouts:
        assert not np.array_equal(other.strides, values.strides)
        again = fit_ou_ls_columns(other, 1.0)
        for name in ("a", "b", "resid_sd"):
            assert getattr(again, name).tobytes() == getattr(fit, name).tobytes(), name
        assert ou.band_fractions([other]) == ou.band_fractions([values])


# ---------------------------------------------------------------- bitwise pin

def test_fit_decode_band_bits_are_pinned():
    # sha256 recorded with the per-coordinate scalar implementation (one
    # parameter object per column, a Python loop in decode and
    # band_fraction). The
    # array code must reproduce every bit: numpy's vectorised log and exp
    # would not. Columns 0-4 are constant (degenerate); slopes in
    # (-0.5, 1.1) give clamped and non-reverting fits too.
    rng = np.random.default_rng(20261018)
    k = 2000
    slopes = rng.uniform(-0.5, 1.1, k)
    values = np.empty((15, k))
    values[0] = rng.standard_normal(k)
    for t in range(1, 15):
        values[t] = slopes * values[t - 1] + 0.3 + 0.1 * rng.standard_normal(k)
    values[:, :5] = 2.0

    fit = fit_ou_ls_columns(values, dt=0.5)
    live = ~fit.flagged
    sub = fit.columns(live)
    est = decode(values[-1][live], sub.lam, sub.mu, 1.0)
    band = band_fraction(values[-1], fit)
    assert (int(fit.degenerate.sum()), int(fit.non_reverting.sum()), est.size) == (679, 124, 1197)
    fields = np.stack([fit.a, fit.b, fit.resid_sd, fit.lam, fit.mu, fit.sigma])
    digest = hashlib.sha256(
        fields.tobytes() + fit.degenerate.tobytes() + fit.non_reverting.tobytes()
        + est.tobytes() + band.hex().encode()
    ).hexdigest()
    assert digest == "0dbee43f6bf7ae325cd6f670599c17acbcbb339d30e9884184a3a07d49c0b9a0"


# ---------------------------------------------------------------------- types

def test_fit_ou_ls_rejects_bad_paths():
    with pytest.raises(ValueError):
        fit_ou_ls(np.array([]), 1.0)
    with pytest.raises(ValueError):
        fit_ou_ls(np.array([1.0, math.inf]), 1.0)
    with pytest.raises(ValueError):
        fit_ou_ls(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError):
        fit_ou_ls(np.ones((4, 2)), 1.0)
