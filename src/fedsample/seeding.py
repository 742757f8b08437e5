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

Many streams at once (``_state_words`` and ``_rngs``, over columns of
parts) are built in two array passes: numpy's ``SeedSequence.mix_entropy``,
re-implemented here with each of its steps one operation over every stream
(``_mix``), gives each stream's pool, and the output hash that
``generate_state`` runs word by word gives its state words; numpy seeds
each PCG64 from them. A pass has a fixed cost of about what 15 streams
take one by one, so the engine makes one per run window, not one per
round. Each stream is bit for bit the one ``derive_rng`` gives.

A dataset's table (``shared_table``) keeps only the engine's all-send
rounds, through ``store``, for later cells of their seed to replay; every
run builds its own streams.
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


@functools.cache
def _mix_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants numpy's ``SeedSequence.mix_entropy`` takes to mix
    ``n_words`` words into a pool of 4, none of them data: each hashmix
    call's xor and multiplier constants, as (calls, 1) uint32 columns. Call
    k xors with c[k] and multiplies by c[k + 1], where c[0] = 0x43B0D7E5 and
    c[k + 1] = c[k] * 0x931E8875 mod 2**32; there are 4 initial calls, 4 x 3
    cross-mixes and 4 per word after the fourth."""
    chain = [0x43B0D7E5]
    for _ in range(16 + 4 * max(n_words - 4, 0)):
        chain.append(chain[-1] * 0x931E8875 & _WORD_MASK)
    column = np.array(chain, np.uint32)[:, None]
    return column[:-1], column[1:]


def _mix(words: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence pool of each column of ``words``, a (W, S) uint32
    array, as a (4, S) array: column s is
    ``np.random.SeedSequence(words[:, s]).pool``. Each step of numpy's mix is
    one array operation over every column. hashmix(v) is v xor c[k], times
    c[k + 1], xorshifted right by 16; mix(x, y) is x * 0xCA01F9DD - y *
    0x4973F715, xorshifted the same way (all mod 2**32). Fewer than 4 words
    start as if padded with zeros, which is what numpy's hash(0) of a missing
    word is."""
    xor, mult = _mix_constants(len(words))
    pool = np.zeros((4, words.shape[1]), np.uint32)
    pool[: len(words)] = words[:4]
    pool ^= xor[:4]
    pool *= mult[:4]
    pool ^= pool >> 16
    # Each word mixes into the other three; its three hashmixes come first,
    # since none of them changes it.
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        k = 4 + 3 * src
        h = pool[src] ^ xor[k : k + 3]
        h *= mult[k : k + 3]
        h ^= h >> 16
        h *= 0x4973F715
        mixed = pool[dst] * 0xCA01F9DD
        mixed -= h
        mixed ^= mixed >> 16
        pool[dst] = mixed
    # Each later word is hashed four times, once into each pool word.
    if len(words) > 4:
        h = words[4:, None] ^ xor[16:].reshape(-1, 4, 1)
        h *= mult[16:].reshape(-1, 4, 1)
        h ^= h >> 16
        h *= 0x4973F715
        for row in h:
            pool *= 0xCA01F9DD
            pool -= row
            pool ^= pool >> 16
    return pool


def _values(part) -> np.ndarray:
    """A stream part's 64-bit values as a uint64 array: a label's or an
    int's (0-d), an int array's own, or a sequence's value by value. Ints
    outside [0, 2**64) raise ValueError."""
    if isinstance(part, str):
        return np.array(_label_to_int(part), np.uint64)
    if isinstance(part, (int, np.integer)):
        return np.array(_part_to_int(part), np.uint64)
    if isinstance(part, np.ndarray) and part.dtype.kind in "iu":
        if part.dtype.kind == "i" and part.size and part.min() < 0:
            check_seed(int(part.min()), "stream part")
        return part.astype(np.uint64, copy=False)
    # Python ints may exceed int64 (numpy would make such a list float64),
    # and a sequence may hold labels.
    return np.array(list(map(_part_to_int, part)), np.uint64)


def _pools(parts) -> np.ndarray:
    """The SeedSequence pool of each stream that ``parts`` name, a (4, S)
    uint32 array. Each part is a column: an int array gives each stream its
    own value, a label or an int every stream the same one. A value is its
    low 32-bit word, then its high word if it is 2**32 or more, so streams
    are mixed in groups that share that pattern of words."""
    columns = list(map(_values, parts))
    count = np.broadcast(*columns).size
    if not count:
        return np.empty((4, 0), np.uint32)
    words = np.empty((2 * len(columns), count), np.uint32)
    for i, column in enumerate(columns):
        words[2 * i] = column  # the low word: a cast to uint32 drops the high one
        words[2 * i + 1] = column >> 32
    high = words[1::2] != 0
    rows = np.ones(len(words), bool)
    if (high == high[:, :1]).all():  # the common case: one pattern
        rows[1::2] = high[:, 0]
        return _mix(words[rows])
    pools = np.empty((4, count), np.uint32)
    patterns, which = np.unique(high, axis=1, return_inverse=True)
    for i, pattern in enumerate(patterns.T):
        streams = which.reshape(-1) == i
        rows[1::2] = pattern
        pools[:, streams] = _mix(words[rows][:, streams])
    return pools


# SeedSequence's output hash: state word i is pool[i % 4] ^ h[i], times
# h[i + 1] mod 2**32, xorshifted right by 16, with h[0] = 0x8B51F9DD and
# h[i + 1] = h[i] * 0x58F38DED mod 2**32. The constants do not depend on the
# pool, so one pass hashes many pools. PCG64 takes 8 words.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _WORD_MASK for i in range(9)],
                 np.uint32)
_POOL_WORD = np.arange(8) % 4


def _state_words(parts, n: int) -> np.ndarray:
    """Each stream's first ``n`` uint64 state words, an (S, n) array: row s
    is ``seed_sequence(*stream_s).generate_state(n, np.uint64)``, where
    stream s takes element s of each int array in ``parts`` and each label
    or int whole (see ``_pools``). Pools and hash are one pass each."""
    words = _pools(parts).T.take(_POOL_WORD[: 2 * n], axis=1)
    words ^= _HASH[: 2 * n]
    words *= _HASH[1 : 2 * n + 1]
    words ^= words >> 16
    # Low word first, as numpy pairs them, whatever the byte order.
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _rngs(parts) -> Iterable[np.random.Generator]:
    """A Generator for each stream that ``parts`` name, as columns (see
    ``_pools``), drawing what ``derive_rng`` draws. Each is made as it is
    reached, so that one need not outlive its use."""
    columns = list(map(_values, parts))
    if np.broadcast(*columns).size == 1:  # numpy's own mix costs less than the array pass
        return [derive_rng(*(int(column.reshape(-1)[0]) for column in columns))]
    return map(_seeded_generator(), _state_words(columns, 4))


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
    """One dataset's all-send rounds, read-only; ``nbytes`` is their charge
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
    """The table of ``owner`` (a dataset, whose arrays are read-only),
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

