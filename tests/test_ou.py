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
    OUParams,
    Trajectory,
    band_fraction,
    decode,
    fit_ou_ls,
    fit_ou_ls_columns,
    simulate_ou,
)
from fedsample.ou import derive_path_rng


# ---------------------------------------------------------------- simulate_ou

def test_noiseless_decay_matches_closed_form():
    # lam = ln 2 makes the one-step multiplier exactly 0.5.
    t = simulate_ou(OUParams(math.log(2.0), 0.0, 0.0), 1.0, 1.0, 3, seed=0)
    np.testing.assert_allclose(t.values, [1.0, 0.5, 0.25, 0.125], rtol=1e-12)


def test_start_at_mean_stays_at_mean():
    t = simulate_ou(OUParams(3.7, 2.5, 0.0), 2.5, 0.5, 50, seed=0)
    np.testing.assert_allclose(t.values, 2.5, rtol=1e-12)


def test_stationary_moments_of_long_path():
    # N(mu, sigma^2 / (2 lam)) is the stationary law; the second half of a
    # long path should match it. Seeds frozen from a reference run.
    p = OUParams(1.0, 0.5, 0.2)
    for seed in (0, 1, 2):
        t = simulate_ou(p, 0.0, 0.01, 100_000, seed)
        half = t.values[50_000:]
        # 3 standard errors of the autocorrelated mean: sd * sqrt(2/(lam*T))
        se = 0.2 / math.sqrt(2.0) * math.sqrt(2.0 / (1.0 * 500.0))
        assert abs(half.mean() - 0.5) <= 3.0 * se
        assert abs(half.var() - 0.02) <= 0.1 * 0.02


def test_same_seed_same_path_bitwise():
    p = OUParams(0.8, -1.0, 0.3)
    a = simulate_ou(p, 0.2, 0.05, 1000, seed=42)
    b = simulate_ou(p, 0.2, 0.05, 1000, seed=42)
    assert np.array_equal(a.values, b.values)


def test_noisy_path_equals_explicit_recurrence_bitwise():
    for seed, (lam, mu, sigma, theta0, dt, steps) in enumerate([
        (0.8, -1.0, 0.3, 0.2, 0.05, 500),
        (25.0, 3.0, 2.0, -7.5, 0.3, 64),
        (1e-3, 0.5, 1e-4, 1.0, 1.0, 1),
    ]):
        a = math.exp(-lam * dt)
        noise_sd = sigma * math.sqrt((1.0 - a * a) / (2.0 * lam))
        z = derive_path_rng(seed).standard_normal(steps)
        drive = (1.0 - a) * mu + noise_sd * z
        expected = [theta0]
        for d in drive:
            expected.append(a * expected[-1] + float(d))
        got = simulate_ou(OUParams(lam, mu, sigma), theta0, dt, steps, seed=seed)
        assert got.values.tobytes() == np.array(expected).tobytes()


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
    p = OUParams(0.8, -1.0, 0.3)
    a = simulate_ou(p, 0.2, 0.05, 1000, seed=1)
    b = simulate_ou(p, 0.2, 0.05, 1000, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_zero_steps_returns_initial_point():
    t = simulate_ou(OUParams(1.0, 0.0, 0.1), 3.0, 1.0, 0, seed=0)
    assert len(t) == 1 and t.values[0] == 3.0


def test_simulate_rejects_bad_inputs():
    p = OUParams(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        simulate_ou(p, 0.0, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_ou(p, 0.0, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_ou(p, 0.0, 1.0, -1, seed=0)
    with pytest.raises(ValueError):
        simulate_ou(p, math.nan, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        # lam <= 0 leaves the transition noise scale undefined
        simulate_ou(OUParams(-1.0, 0.0, 0.1, non_reverting=True), 0.0, 1.0, 10, seed=0)


def test_negative_lam_allowed_when_noiseless():
    t = simulate_ou(OUParams(-math.log(2.0), 0.0, 0.0, non_reverting=True), 1.0, 1.0, 2, seed=0)
    np.testing.assert_allclose(t.values, [1.0, 2.0, 4.0], rtol=1e-12)


# ------------------------------------------------------------------ fit_ou_ls

def test_fit_noiseless_geometric_sequence():
    traj = Trajectory(np.array([1.0, 0.5, 0.25, 0.125, 0.0625]), dt=1.0)
    params, fit = fit_ou_ls(traj)
    assert fit.a == pytest.approx(0.5, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)
    assert fit.resid_sd == pytest.approx(0.0, abs=1e-12)
    assert fit.n_points == 4
    assert params.lam == pytest.approx(math.log(2.0), rel=1e-12)
    assert params.mu == pytest.approx(0.0, abs=1e-12)
    assert params.sigma == pytest.approx(0.0, abs=1e-12)
    assert not params.flagged


def test_fit_two_pairs_is_exact_with_zero_resid():
    params, fit = fit_ou_ls(Trajectory(np.array([0.0, 1.0, 1.5]), dt=1.0))
    assert fit.n_points == 2
    assert fit.a == pytest.approx(0.5)
    assert fit.b == pytest.approx(1.0)
    assert fit.resid_sd == 0.0
    assert params.mu == pytest.approx(2.0)


def test_fit_constant_sequence_is_degenerate():
    params, fit = fit_ou_ls(Trajectory(np.array([2.0, 2.0, 2.0, 2.0]), dt=1.0))
    assert fit.degenerate
    assert math.isnan(fit.a)
    assert params.degenerate
    assert math.isnan(params.lam) and math.isnan(params.mu) and math.isnan(params.sigma)


def test_fit_negative_slope_is_degenerate_with_clamped_rate():
    # Alternating path gives a = -1; the rate is taken from a floor of 1e-6
    # so decoding stays NaN-free, and the flag records the failure.
    params, fit = fit_ou_ls(Trajectory(np.array([1.0, -1.0, 1.0, -1.0, 1.0]), dt=1.0))
    assert fit.a == pytest.approx(-1.0)
    assert params.degenerate and not params.non_reverting
    assert params.lam == pytest.approx(-math.log(1e-6))
    assert math.isfinite(params.mu)


def test_fit_expanding_path_is_non_reverting():
    params, fit = fit_ou_ls(Trajectory(np.array([1.0, 2.0, 4.0, 8.0, 16.0]), dt=1.0))
    assert fit.a == pytest.approx(2.0)
    assert params.non_reverting and not params.degenerate
    assert math.isnan(params.lam) and math.isnan(params.sigma)


def test_fit_checks_lam_and_sigma_where_the_log_free_bound_fails():
    # At dt = 1e-306 the fit's log-free bound of sigma overflows, yet lam
    # and sigma are finite: the fit stands. Below, each overflows in turn
    # and the fit fails with the message OUParams gives.
    path = simulate_ou(OUParams(1.0, 0.5, 0.2), 0.0, 0.1, 50, seed=3).values[:, None]
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
        fit_ou_ls(Trajectory(np.array([1.0, 2.0]), dt=1.0))


def test_fit_roundtrip_recovers_parameters():
    # Frozen reference run: all 10 seeds recover within tolerance at this
    # sampling rate; the contract only demands 9.
    p = OUParams(1.0, 0.5, 0.2)
    passes = 0
    for seed in range(10):
        t = simulate_ou(p, 0.0, 0.01, 100_000, seed)
        est, _ = fit_ou_ls(t)
        passes += (
            abs(est.lam - 1.0) <= 0.10
            and abs(est.mu - 0.5) <= 0.02
            and abs(est.sigma - 0.2) / 0.2 <= 0.10
        )
    assert passes >= 9


def test_fit_is_affine_equivariant():
    p = OUParams(1.5, 0.0, 0.4)
    t = simulate_ou(p, 1.0, 0.05, 5000, seed=7)
    base, _ = fit_ou_ls(t)
    for c in (-3.0, 0.25, 10.0):
        shifted, _ = fit_ou_ls(Trajectory(t.values + c, t.dt))
        assert shifted.lam == pytest.approx(base.lam, rel=1e-9)
        assert shifted.sigma == pytest.approx(base.sigma, rel=1e-9)
        assert shifted.mu == pytest.approx(base.mu + c, abs=1e-9 * max(1.0, abs(c)))


def test_columns_fit_matches_scalar_fit():
    p = OUParams(2.0, -0.3, 0.5)
    cols = np.column_stack(
        [simulate_ou(p, 0.0, 0.1, 200, seed=s).values for s in range(4)]
    )
    results = fit_ou_ls_columns(cols, dt=0.1)
    assert len(results) == 4
    # Agreement up to summation order (2D-axis vs contiguous-1D reductions).
    for j, (params, fit) in enumerate(results):
        sp, sf = fit_ou_ls(Trajectory(cols[:, j], 0.1))
        assert params.lam == pytest.approx(sp.lam, rel=1e-12)
        assert params.mu == pytest.approx(sp.mu, rel=1e-12, abs=1e-12)
        assert params.sigma == pytest.approx(sp.sigma, rel=1e-12)
        assert fit.a == pytest.approx(sf.a, rel=1e-12)


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


# --------------------------------------------------------------------- decode

def test_decode_zero_elapsed_returns_reference():
    assert decode(1.7, OUParams(1.0, 0.0, 0.1), 0.0) == 1.7


def test_decode_long_horizon_approaches_mean():
    assert decode(1.0, OUParams(1.0, 0.25, 0.1), 1e6) == pytest.approx(0.25)


def test_decode_half_life():
    assert decode(1.0, OUParams(math.log(2.0), 0.0, 0.1), 1.0) == pytest.approx(0.5)


def test_decode_is_monotone_toward_mean():
    p = OUParams(0.7, 0.2, 0.1)
    gaps = [abs(decode(3.0, p, t) - p.mu) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_decode_rejects_unpopulated_params():
    nr = OUParams(math.nan, 0.0, math.nan, non_reverting=True)
    with pytest.raises(ValueError):
        decode(1.0, nr, 1.0)
    with pytest.raises(ValueError):
        decode(math.nan, OUParams(1.0, 0.0, 0.1), 1.0)
    with pytest.raises(ValueError):
        decode(1.0, OUParams(1.0, 0.0, 0.1), -1.0)


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


def test_band_all_far_outside_is_one():
    fit = fit_of([(0.5, 0.0, 0.2)] * 5)
    sd = fit.stationary_sd()[0]
    assert band_fraction(np.full(5, 10.0 * sd), fit) == 1.0


def test_band_counts_fractionally():
    fit = fit_of([(0.8, 0.0, 0.2)] * 4)
    sd = fit.stationary_sd()[0]
    finals = np.array([0.0, 0.5 * sd, -0.9 * sd, 5.0 * sd])
    assert band_fraction(finals, fit) == 0.25


def test_band_boundary_is_inside():
    # Strict inequalities: sitting exactly on the band edge does not count.
    fit = fit_of([(0.8, 0.0, 0.2)])
    assert band_fraction(fit.stationary_sd(), fit) == 0.0


def test_band_flag_conventions():
    deg = (math.nan, math.nan, math.nan)
    nr = (1.5, 0.0, 0.1)
    live = (0.5, 0.0, 0.2)
    finals = np.array([100.0, 0.0, 0.0])
    assert band_fraction(finals, fit_of([deg, nr, live])) == pytest.approx(1.0 / 3.0)


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
    np.testing.assert_allclose(fit.stationary_sd()[live], sd[live], rtol=1e-9, atol=0.0)

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


# ---------------------------------------------------------------- bitwise pin

def test_fit_decode_band_bits_are_pinned():
    # sha256 recorded with the per-coordinate scalar implementation (one
    # OUParams per column, a Python loop in decode and band_fraction). The
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
    est = decode(values[-1][live], fit.columns(live), 1.0)
    band = band_fraction(values[-1], fit)
    assert (int(fit.degenerate.sum()), int(fit.non_reverting.sum()), est.size) == (679, 124, 1197)
    fields = np.stack([fit.a, fit.b, fit.resid_sd, fit.lam, fit.mu, fit.sigma])
    digest = hashlib.sha256(
        fields.tobytes() + fit.degenerate.tobytes() + fit.non_reverting.tobytes()
        + est.tobytes() + band.hex().encode()
    ).hexdigest()
    assert digest == "0dbee43f6bf7ae325cd6f670599c17acbcbb339d30e9884184a3a07d49c0b9a0"


# ---------------------------------------------------------------------- types

def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([]), dt=1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0, math.inf]), dt=1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0, 2.0]), dt=0.0)


def test_ouparams_validation():
    with pytest.raises(ValueError):
        OUParams(math.nan, 0.0, 0.1)
    with pytest.raises(ValueError):
        OUParams(1.0, 0.0, -0.1)
    # Flagged instances may carry NaN without complaint.
    OUParams(math.nan, math.nan, math.nan, degenerate=True)


def test_stationary_sd():
    assert OUParams(2.0, 0.0, 0.2).stationary_sd() == pytest.approx(0.1)
    assert math.isnan(OUParams(math.nan, 0.0, math.nan, non_reverting=True).stationary_sd())
