"""Tests for participation rules and the adaptive threshold."""

import math

import numpy as np
import pytest

from fedsample.policies import (
    ClientStats,
    PolicyConfig,
    compute_adaptive_threshold,
    local_decide,
)
from fedsample.seeding import derive_rng


def decide_all(policy, scalars, threshold=None):
    key = "band_fraction" if policy.needs_band_fraction else "update_norm"
    return [
        local_decide(policy, ClientStats(**{key: float(s)}), threshold)
        for s in scalars
    ]


# ----------------------------------------------------- adaptive threshold

def test_threshold_small_cases():
    assert compute_adaptive_threshold(np.array([1.0, 2.0, 3.0])) == pytest.approx(
        2.0 - math.sqrt(2.0 / 3.0)
    )
    assert compute_adaptive_threshold(np.array([0.0, 2.0])) == pytest.approx(0.0)
    assert compute_adaptive_threshold(np.array([4.2, 4.2, 4.2])) == 4.2


def test_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_adaptive_threshold(np.array([]))
    with pytest.raises(ValueError):
        compute_adaptive_threshold(np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        compute_adaptive_threshold(np.zeros((2, 2)))


def test_threshold_can_be_negative():
    # Dispersion above the mean pushes the cutoff below zero; nonnegative
    # norms then all pass.
    scalars = np.array([0.0, 0.0, 0.0, 10.0])
    gamma = compute_adaptive_threshold(scalars)
    assert gamma < 0.0
    policy = PolicyConfig("at")
    assert all(decide_all(policy, scalars, gamma))


# ------------------------------------------------------------ local_decide

def test_full_always_sends():
    assert local_decide(PolicyConfig("full"), ClientStats()) is True


def test_random_edge_probabilities():
    rng = derive_rng(0, "decide")
    always = PolicyConfig("random", q=0.0)
    never = PolicyConfig("random", q=1.0)
    assert all(local_decide(always, ClientStats(), rng=rng) for _ in range(200))
    assert not any(local_decide(never, ClientStats(), rng=rng) for _ in range(200))


def test_random_rate_matches_q():
    policy = PolicyConfig("random", q=0.3)
    sends = sum(
        local_decide(policy, ClientStats(), rng=derive_rng(7, "decide", i))
        for i in range(4000)
    )
    assert sends / 4000 == pytest.approx(0.7, abs=0.03)


def test_ft_strict_boundary():
    policy = PolicyConfig("ft", gamma=0.5)
    assert local_decide(policy, ClientStats(update_norm=0.5)) is False
    assert local_decide(policy, ClientStats(update_norm=0.5 + 1e-9)) is True


def test_at_identical_norms_sends_nobody():
    scalars = np.full(8, 1.7)
    gamma = compute_adaptive_threshold(scalars)
    assert not any(decide_all(PolicyConfig("at"), scalars, gamma))


def test_ou_fraction_rule():
    policy = PolicyConfig("ou", r=0.25)
    assert local_decide(policy, ClientStats(band_fraction=0.25)) is False
    assert local_decide(policy, ClientStats(band_fraction=0.26)) is True


def test_aou_uses_broadcast_threshold():
    policy = PolicyConfig("aou")
    fractions = np.array([0.1, 0.2, 0.9])
    gamma = compute_adaptive_threshold(fractions)
    sends = decide_all(policy, fractions, gamma)
    assert sends == [(f > gamma) for f in fractions]


def test_missing_inputs_are_rejected():
    with pytest.raises(ValueError):
        local_decide(PolicyConfig("ft", gamma=0.5), ClientStats(band_fraction=0.1))
    with pytest.raises(ValueError):
        local_decide(PolicyConfig("ou", r=0.5), ClientStats(update_norm=0.1))
    with pytest.raises(ValueError):
        local_decide(PolicyConfig("at"), ClientStats(update_norm=0.1))
    with pytest.raises(ValueError):
        local_decide(PolicyConfig("random", q=0.5), ClientStats())


# ------------------------------------------------------------------ config

def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig("warmup")
    with pytest.raises(ValueError):
        PolicyConfig("random")  # q missing
    with pytest.raises(ValueError):
        PolicyConfig("random", q=1.5)
    with pytest.raises(ValueError):
        PolicyConfig("ft", gamma=-1.0)
    with pytest.raises(ValueError):
        PolicyConfig("at", gamma=0.5)  # stray parameter
    with pytest.raises(ValueError):
        PolicyConfig("ou", r=2.0)


def test_policy_labels():
    assert PolicyConfig("full").label == "full"
    assert PolicyConfig("random", q=0.3).label == "random_q0.3"
    assert PolicyConfig("ft", gamma=0.5).label == "ft_g0.5"
    assert PolicyConfig("at").label == "at"
    assert PolicyConfig("ou", r=0.1).label == "ou_r0.1"
    assert PolicyConfig("aou").label == "aou"


# -------------------------------------------------------------- properties

def test_property_scale_covariance_exact_1000():
    # Power-of-two factors scale every intermediate exactly, so equality
    # is bitwise; the AT sender set cannot move.
    policy = PolicyConfig("at")
    for case in range(1000):
        rng = derive_rng(100, "cov", case)
        scalars = rng.uniform(0.0, 5.0, size=rng.integers(2, 30))
        c = float(2.0 ** rng.integers(-8, 9))
        gamma = compute_adaptive_threshold(scalars)
        assert compute_adaptive_threshold(c * scalars) == c * gamma
        assert decide_all(policy, c * scalars, c * gamma) == decide_all(
            policy, scalars, gamma
        )


def test_property_scale_covariance_arbitrary_factor_1000():
    for case in range(1000):
        rng = derive_rng(101, "cov", case)
        scalars = rng.uniform(0.0, 5.0, size=rng.integers(2, 30))
        c = float(rng.uniform(0.01, 100.0))
        got = compute_adaptive_threshold(c * scalars)
        assert got == pytest.approx(c * compute_adaptive_threshold(scalars), rel=1e-12, abs=1e-12)


def test_property_monotone_senders_1000():
    # Whoever sends defines a floor: any strictly larger scalar sends too.
    for case in range(1000):
        rng = derive_rng(102, "mono", case)
        scalars = rng.uniform(0.0, 1.0, size=rng.integers(2, 40))
        if case % 2 == 0:
            policy = PolicyConfig("at")
            gamma = compute_adaptive_threshold(scalars)
        else:
            policy = PolicyConfig("ft", gamma=float(rng.uniform(0.0, 1.0)))
            gamma = None
        sends = decide_all(policy, scalars, gamma)
        for i in range(scalars.size):
            if not sends[i]:
                continue
            for j in range(scalars.size):
                if scalars[j] > scalars[i]:
                    assert sends[j]


def test_property_full_dominates_1000():
    full = PolicyConfig("full")
    for case in range(1000):
        rng = derive_rng(103, "dom", case)
        scalars = rng.uniform(0.0, 1.0, size=8)
        gamma = compute_adaptive_threshold(scalars)
        for policy, thr in [
            (PolicyConfig("at"), gamma),
            (PolicyConfig("ft", gamma=0.4), None),
            (PolicyConfig("ou", r=0.4), None),
        ]:
            sends = decide_all(policy, scalars, thr)
            alls = decide_all(full, scalars)
            assert all(not s or a for s, a in zip(sends, alls))
