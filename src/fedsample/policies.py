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

``PolicyConfig.fixed_threshold`` holds ft's gamma and ou's r: the round's
reported threshold and ``local_decide``'s cutoff.

Thresholds use strict inequalities, so an all-equal adaptive round (sd 0,
threshold = the common value) has zero senders. A threshold may come out
negative when the sd exceeds the mean; norms are nonnegative, so that
round sends everything. Both behaviors are intended.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

POLICY_KINDS = ("full", "random", "ft", "at", "ou", "aou")
# The one parameter each parametrised rule takes; the other rules take none.
POLICY_PARAMS = {"random": "q", "ft": "gamma", "ou": "r"}

# Rules whose decision statistic is the update norm vs the band fraction.
NORM_POLICIES = ("ft", "at")
BAND_POLICIES = ("ou", "aou")
ADAPTIVE_POLICIES = ("at", "aou")


# kind: str; q, gamma, r: float | None
_PolicyConfig = namedtuple("_PolicyConfig", "kind q gamma r", defaults=(None, None, None))


class PolicyConfig(_PolicyConfig):
    """A participation rule plus its parameter (q, gamma, or r), checked
    whenever one is built (``_replace`` included)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks

    @property
    def adaptive(self) -> bool:
        return self.kind in ADAPTIVE_POLICIES

    @property
    def needs_band_fraction(self) -> bool:
        return self.kind in BAND_POLICIES

    @property
    def fixed_threshold(self) -> float | None:
        """The fixed cutoff: gamma under ft, r under ou, None otherwise."""
        return {"ft": self.gamma, "ou": self.r}.get(self.kind)

    @property
    def label(self) -> str:
        """Compact run label used in ledger CSVs, e.g. ft_g0.5: the kind, then
        the parameter's initial and value, in ``:g`` form where that reads
        back as the value and as its repr otherwise, so distinct parameters
        get distinct labels."""
        name = POLICY_PARAMS.get(self.kind)
        if name is None:
            return self.kind
        value = getattr(self, name)
        text = f"{value:g}"
        return f"{self.kind}_{name[0]}{text if float(text) == value else repr(value)}"


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
    value: float | None,
    broadcast_threshold: float | None = None,
    rng: np.random.Generator | None = None,
) -> bool:
    """One client's send/suppress decision for the current round. ``value``
    is the client's decision statistic: its update norm under ft/at, its
    band fraction under ou/aou, unused (None) otherwise."""
    if policy.kind == "full":
        return True

    if policy.kind == "random":
        if rng is None:
            raise ValueError("random policy needs an rng stream")
        return float(rng.uniform()) < 1.0 - policy.q

    if value is None:
        stat = "band_fraction" if policy.needs_band_fraction else "update_norm"
        raise ValueError(f"{policy.kind} policy needs {stat}")
    cutoff = policy.fixed_threshold
    if policy.adaptive:
        if broadcast_threshold is None:
            raise ValueError(f"{policy.kind} policy needs the broadcast threshold")
        cutoff = broadcast_threshold

    return value > cutoff
