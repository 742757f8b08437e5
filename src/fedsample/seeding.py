"""Deterministic RNG derivation shared by every stochastic component.

All randomness in the package flows through independent, named streams so
that client-local work can run in any order (or in parallel) and still
reproduce bit-identical results. A stream is addressed by a tuple of parts,
e.g. ``derive_rng(seed, "train", round_idx, client_id)``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def _part_to_int(part: int | str) -> int:
    """Map a stream-name part to a stable non-negative integer."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    return _label_to_int(part)


@functools.lru_cache(maxsize=256)
def _label_to_int(label: str) -> int:
    # Labels come from a small fixed vocabulary ("shuffle", "train", ...),
    # each hashed once per process instead of once per stream.
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    """Build a SeedSequence from a tuple of ints/labels; stable across runs."""
    if not parts:
        raise ValueError("seed_sequence requires at least one part")
    return np.random.SeedSequence([_part_to_int(p) for p in parts])


def derive_rng(*parts: int | str) -> np.random.Generator:
    """Return a Generator for the named stream.

    Identical parts always give an identical stream; distinct parts give
    statistically independent streams (PCG64 seeded via SeedSequence).
    """
    return np.random.default_rng(seed_sequence(*parts))
