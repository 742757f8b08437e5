"""Client participation rules, split into server and client halves.

Six rules decide which of the clients trained in a round actually upload
their update:

* ``full``: everyone sends.
* ``random``: each client independently sends with probability 1 - q.
* ``ft``: send iff the update norm strictly exceeds a fixed gamma.
* ``at``: the server turns the round's reported norms into an adaptive
  threshold (mean minus population sd); send iff norm strictly exceeds it.
* ``ou``: send iff the fraction of tracked coordinates still outside
  their fitted stationary band strictly exceeds a fixed r.
* ``aou``: the adaptive-threshold rule applied to those band fractions.

Thresholds use strict inequalities, so an all-equal adaptive round (sd 0,
threshold = the common value) has zero senders. A threshold may come out
negative when the sd exceeds the mean; norms are nonnegative, so that
round sends everything. Both behaviors are intended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POLICY_KINDS = ("full", "random", "ft", "at", "ou", "aou")
# The one parameter each parametrised rule takes; the other rules take none.
POLICY_PARAMS = {"random": "q", "ft": "gamma", "ou": "r"}

# Rules whose decision statistic is the update norm vs the band fraction.
NORM_POLICIES = ("ft", "at")
BAND_POLICIES = ("ou", "aou")
ADAPTIVE_POLICIES = ("at", "aou")


@dataclass(frozen=True)
class PolicyConfig:
    """A participation rule plus its parameter (q, gamma, or r)."""

    kind: str
    q: float | None = None
    gamma: float | None = None
    r: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; expected one of {', '.join(POLICY_KINDS)}"
            )
        needed = POLICY_PARAMS.get(self.kind)
        for name in POLICY_PARAMS.values():
            value = getattr(self, name)
            if name == needed:
                if value is None:
                    raise ValueError(f"policy {self.kind!r} requires {name}")
            elif value is not None:
                raise ValueError(f"policy {self.kind!r} does not take {name}")
        if self.q is not None and not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.gamma is not None and (math.isnan(self.gamma) or self.gamma < 0.0):
            # +inf allowed: it is the never-send probe.
            raise ValueError("gamma must be >= 0")
        if self.r is not None and not 0.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [0, 1]")

    @property
    def adaptive(self) -> bool:
        return self.kind in ADAPTIVE_POLICIES

    @property
    def needs_band_fraction(self) -> bool:
        return self.kind in BAND_POLICIES

    @property
    def label(self) -> str:
        """Compact run label used in ledger CSVs, e.g. ft_g0.5: the kind, then
        the parameter's initial and value."""
        name = POLICY_PARAMS.get(self.kind)
        if name is None:
            return self.kind
        return f"{self.kind}_{name[0]}{getattr(self, name):g}"


@dataclass(frozen=True)
class ClientStats:
    """Decision inputs computed during local training."""

    update_norm: float | None = None
    band_fraction: float | None = None


def compute_adaptive_threshold(scalars: np.ndarray) -> float:
    """Round threshold from the clients' reported scalars: mean minus
    population standard deviation."""
    scalars = np.asarray(scalars, dtype=np.float64)
    if scalars.ndim != 1 or scalars.size == 0:
        raise ValueError("need a non-empty vector of scalars")
    if not np.isfinite(scalars).all():
        raise ValueError("scalars must be finite")
    return float(scalars.mean() - scalars.std())


def local_decide(
    policy: PolicyConfig,
    stats: ClientStats,
    broadcast_threshold: float | None = None,
    rng: np.random.Generator | None = None,
) -> bool:
    """One client's send/suppress decision for the current round."""
    if policy.kind == "full":
        return True

    if policy.kind == "random":
        if rng is None:
            raise ValueError("random policy needs an rng stream")
        return float(rng.uniform()) < 1.0 - policy.q

    if policy.kind in NORM_POLICIES:
        if stats.update_norm is None:
            raise ValueError(f"{policy.kind} policy needs update_norm")
        value = stats.update_norm
        cutoff = policy.gamma
    else:
        if stats.band_fraction is None:
            raise ValueError(f"{policy.kind} policy needs band_fraction")
        value = stats.band_fraction
        cutoff = policy.r

    if policy.adaptive:
        if broadcast_threshold is None:
            raise ValueError(f"{policy.kind} policy needs the broadcast threshold")
        cutoff = broadcast_threshold

    return value > cutoff
