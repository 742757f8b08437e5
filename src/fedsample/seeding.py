"""Deterministic RNG derivation shared by every stochastic component.

All randomness in the package flows through independent, named streams so
that client-local work can run in any order (or in parallel) and still
reproduce bit-identical results. A stream is addressed by a tuple of parts,
e.g. ``derive_rng(seed, "train", round_idx, client_id)``.

Each part stands for a 64-bit value: an int in [0, 2**64) for itself, a
label for the first 8 bytes of its sha256, little-endian (the digest of
the interpreter's built-in sha256 module, so importing the package loads
no OpenSSL). Ints outside that range are rejected, not wrapped, so
distinct seeds never share a stream. A stream is numpy's SeedSequence
(seeding PCG64) of the values' 32-bit words, low word first, one word for
a value below 2**32: the stream ``np.random.SeedSequence([value, ...])``
gives, fixed by numpy's stream policy (NEP 19).

Many streams at once (``_rngs``, ``_first_uint64s``) split that work:
numpy mixes each stream's words into its pool (``SeedSequence.pool``, in
C), the output hash that ``generate_state`` runs word by word in Python is
done here for every pool in one array pass, and numpy seeds each PCG64 from
the resulting words. Each stream is bit for bit the one ``derive_rng`` gives.

What the cells of one seed share is kept in their dataset's table
(``shared_table``): ``memoized`` keeps there what pure functions of streams
return, and the engine its all-send rounds, through ``store``.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections.abc import Iterable

import numpy as np

# The built-in module, as random.py takes sha512: hashlib would load
# OpenSSL's _hashlib (and _blake2) for a handful of label digests.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_WORD_MASK = 0xFFFFFFFF
_PART_LIMIT = 1 << 64


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise ValueError naming ``name`` unless ``seed`` is a valid int
    stream part, i.e. lies in [0, 2**64)."""
    if not 0 <= seed < _PART_LIMIT:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")


def _part_to_int(part: int | str) -> int:
    """Map a stream-name part to a stable integer in [0, 2**64)."""
    if isinstance(part, (int, np.integer)):
        value = int(part)
        check_seed(value, "stream part")
        return value
    return _label_to_int(part)


@functools.lru_cache(maxsize=256)
def _label_to_int(label: str) -> int:
    # Labels come from a small fixed vocabulary ("shuffle", "train", ...),
    # each hashed once per process instead of once per stream.
    digest = sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    """Build a SeedSequence from a tuple of ints/labels; stable across runs.

    The parts' 32-bit words go in as one uint32 array. numpy builds the
    same pool from the list of values, but its coercion of a list, int by
    int, costs more than the hash itself.
    """
    if not parts:
        raise ValueError("seed_sequence requires at least one part")
    words = []
    for part in parts:
        value = _part_to_int(part)
        words.append(value & _WORD_MASK)
        if value > _WORD_MASK:
            words.append(value >> 32)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def _first_uint64(stream: np.random.SeedSequence) -> int:
    """The stream's first uint64: its first two 32-bit words, low word first."""
    low, high = stream.generate_state(2).tolist()
    return low | high << 32


def derive_rng(*parts: int | str) -> np.random.Generator:
    """Return a Generator for the named stream.

    Identical parts always give an identical stream; distinct parts give
    statistically independent streams (PCG64 seeded via SeedSequence).
    """
    return np.random.default_rng(seed_sequence(*parts))


# SeedSequence's output hash: state word i is pool[i % 4] ^ h[i], times
# h[i + 1] mod 2**32, xorshifted right by 16, with h[0] = 0x8B51F9DD and
# h[i + 1] = h[i] * 0x58F38DED mod 2**32. The constants do not depend on the
# pool, so one pass hashes many pools. PCG64 takes 8 words.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _WORD_MASK for i in range(9)],
                 np.uint32)
_POOL_WORD = np.arange(8) % 4


def _state_words(streams: list[tuple], n: int) -> np.ndarray:
    """Each stream's first ``n`` uint64 state words, an (S, n) array: row s
    is ``seed_sequence(*streams[s]).generate_state(n, np.uint64)``."""
    pools = np.array([seed_sequence(*parts).pool for parts in streams], np.uint32)
    # Each pool's words in state order; reshape gives no streams a (0, 4) block.
    words = pools.reshape(-1, 4).take(_POOL_WORD[: 2 * n], axis=1)
    words ^= _HASH[: 2 * n]
    words *= _HASH[1 : 2 * n + 1]
    words ^= words >> 16
    # Low word first, as numpy pairs them, whatever the byte order.
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _first_uint64s(streams: list[tuple]) -> np.ndarray:
    """Each named stream's first uint64, as ``_first_uint64`` reads it."""
    return _state_words(streams, 1)[:, 0]


def _rngs(streams: list[tuple]) -> Iterable[np.random.Generator]:
    """A Generator for each named stream, drawing what ``derive_rng`` draws.
    Each is made as it is reached, so that one need not outlive its use."""
    if len(streams) == 1:  # numpy's own hash costs less than the array pass
        return [derive_rng(*streams[0])]
    return map(_seeded_generator(), _state_words(streams, 4))


@functools.cache
def _seeded_generator():
    """A function from a stream's four uint64 state words to its Generator,
    whose PCG64 numpy seeds from them. Made on first use, since importing
    the package loads no numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """Hands PCG64 the words its SeedSequence would generate."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("only PCG64's four uint64 seed words are precomputed")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


# The tables hold at most this many bytes (16 MiB) over every table still
# held. Once full they store nothing more and evict nothing: the first
# rounds, which the cells of a seed share, stay.
_TABLE_BYTES = 1 << 24
_TABLE_LOCK = threading.Lock()


class _Table(dict):
    """One dataset's shared entries, read-only; ``nbytes`` is their charge
    and ``owner`` a weak reference to the dataset."""

    nbytes = 0

    def __init__(self, owner) -> None:
        super().__init__()
        self.owner = weakref.ref(owner)


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # by live owner
# Every table made, by id, while anything holds it: a caller may keep one
# past its owner's life, and it still counts against the budget.
_MADE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def shared_table(owner) -> _Table:
    """The table of ``owner`` (a dataset, whose arrays must not change),
    made on first use; it dies with ``owner``, unless a caller keeps it."""
    with _TABLE_LOCK:
        table = _TABLES.get(owner)
        if table is None:
            table = _TABLES[owner] = _Table(owner)
            _MADE[id(table)] = table
        return table


def store(table: _Table, key, value, charge: int, was=None) -> None:
    """Set ``table[key] = value``, charged ``charge`` bytes more, if ``key``
    still holds ``was`` (None: nothing) and the charge of every table still
    held, the live owners' and those whose owner has died, stays within
    ``_TABLE_BYTES``."""
    with _TABLE_LOCK:
        held = (sum(t.nbytes for t in _TABLES.values())
                + sum(t.nbytes for t in _MADE.values() if t.owner() is None))
        if table.get(key) is was and held + charge <= _TABLE_BYTES:
            table[key] = value
            table.nbytes += charge


def _charge(key: tuple, value: np.ndarray) -> int:
    """An array entry's charge: its bytes, 64 per key part, 512 for the rest."""
    return value.nbytes + 64 * len(key) + 512


def memoized(table: _Table | None, build, *args) -> np.ndarray:
    """``build(*args)``, an array drawn from streams that ``args`` name, made
    read-only. Given a table, it is kept there under ``(build, *args)`` while
    the budget has room, and later calls with that table share it; an error
    is never kept."""
    key = (build, *args)
    value = None if table is None else table.get(key)
    if value is None:
        value = build(*args)
        value.flags.writeable = False
        if table is not None:
            store(table, key, value, _charge(key, value))
    return value
