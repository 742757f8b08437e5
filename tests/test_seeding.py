"""Tests for the stream contract: a stream is numpy's SeedSequence of its
parts' 64-bit values, and int parts outside [0, 2**64) are rejected."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsample.cli import demo_train_seed
from fedsample import seeding
from fedsample.engine import RoundConfig, client_train_seed
from fedsample.policies import PolicyConfig
from fedsample.models import _shuffle_orders
from fedsample.seeding import (_first_uint64, _mix, _part_to_int, _pools, _rngs, _state_words,
                               derive_rng, seed_sequence)

EDGE_PARTS = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1,
    np.uint64(0), np.uint64(2**32), np.uint64(2**64 - 1), np.uint32(2**32 - 1),
    np.int64(0), np.int64(2**32 - 1), np.int64(2**63 - 1),
    "shuffle", "train", "", "ü",
]


def random_part(rng: np.random.Generator):
    kind = int(rng.integers(3))
    if kind == 0:
        return EDGE_PARTS[int(rng.integers(len(EDGE_PARTS)))]
    if kind == 1:
        # Every bit length from 0 to 64 turns up.
        return int(rng.integers(0, 2**64, dtype=np.uint64)) >> int(rng.integers(65))
    return f"label{int(rng.integers(100))}"


def test_streams_are_seed_sequences_of_the_part_values():
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        parts = [random_part(rng) for _ in range(int(rng.integers(1, 7)))]
        reference = np.random.SeedSequence([_part_to_int(p) for p in parts])
        assert np.array_equal(seed_sequence(*parts).generate_state(8),
                              reference.generate_state(8)), parts
        expected = np.random.Generator(np.random.PCG64(reference))
        got = derive_rng(*parts)
        assert np.array_equal(got.integers(0, 2**63, size=4), expected.integers(0, 2**63, size=4))
        assert np.array_equal(got.permutation(50), expected.permutation(50)), parts


def test_train_seeds_are_the_streams_first_uint64():
    train = int.from_bytes(hashlib.sha256(b"train").digest()[:8], "little")
    demo = int.from_bytes(hashlib.sha256(b"demo").digest()[:8], "little")
    for seed, t, k in [(0, 0, 0), (7, 3, 99), (2**32, 1, 2), (2**64 - 1, 2**40, 5)]:
        reference = np.random.SeedSequence([seed, train, t, k])
        assert client_train_seed(seed, t, k) == int(reference.generate_state(1, np.uint64)[0])
        reference = np.random.SeedSequence([seed, demo])
        assert demo_train_seed(seed) == int(reference.generate_state(1, np.uint64)[0])


def test_stream_builders_draw_what_derive_rng_draws_bitwise():
    rng = np.random.default_rng(20261020)
    streams = [tuple(random_part(rng) for _ in range(int(rng.integers(1, 7)))) for _ in range(200)]
    streams += [(value,) for value in (0, 2**32 - 1, 2**32, 2**64 - 1)]
    streams += [("shuffle",), (2**64 - 1, "train", 2**32, 2**32 - 1)]
    # The builders take parts as columns: streams of one length, part by part.
    for length in range(1, 7):
        same = [parts for parts in streams if len(parts) == length]
        for batch in (same, same[-6:], same[:2], same[:1], []):
            columns = [list(column) for column in zip(*batch)] if batch else [[]] * length
            firsts = _state_words(columns, 1)[:, 0]
            assert firsts.dtype == np.uint64
            assert firsts.tolist() == [_first_uint64(seed_sequence(*parts)) for parts in batch]
            generators = list(_rngs(columns))
            assert len(generators) == len(batch)
            for parts, got in zip(batch, generators):
                expected = derive_rng(*parts)
                assert np.array_equal(got.integers(0, 2**63, size=4),
                                      expected.integers(0, 2**63, size=4)), parts
                assert np.array_equal(got.permutation(50), expected.permutation(50)), parts
    # A label or an int stands for every stream; arrays give each its own.
    for got, k in zip(_rngs((7, "decide", 3, np.arange(5))), range(5)):
        assert np.array_equal(got.permutation(50), derive_rng(7, "decide", 3, k).permutation(50))
    cases = [(0, 0, 0), (7, 3, 99), (2**32, 1, 2), (2**64 - 1, 2**40, 5)]
    seeds, rounds, clients = (np.array(column, np.uint64) for column in zip(*cases))
    assert _state_words((seeds, "train", rounds, clients), 1)[:, 0].tolist() == [
        client_train_seed(*case) for case in cases]


@pytest.mark.parametrize("n", [1, 256, 257])
@pytest.mark.parametrize("epochs, seeds", [(0, [3, 4]), (1, [2**64 - 1]), (2, [0, 2**32, 9])])
def test_shuffle_orders_are_each_streams_permutation_bitwise(n, epochs, seeds):
    orders = _shuffle_orders(epochs, n, *seeds)
    assert orders.shape == (epochs, len(seeds), n)
    assert orders.dtype == (np.uint8 if n <= 256 else np.uint16)
    for e in range(epochs):
        for g, seed in enumerate(seeds):
            assert np.array_equal(orders[e, g], derive_rng(seed, "shuffle", e).permutation(n))


def words_of(values) -> list[int]:
    """A stream's 32-bit words: each value's low word, then its high word
    if the value is 2**32 or more."""
    return [w for v in values for w in ((v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,))]


def test_mixed_pools_are_numpys_seed_sequence_pools_bitwise():
    rng = np.random.default_rng(20261021)
    # Every word count from 1 to 11, one-word parts.
    for n_words in range(1, 12):
        words = rng.integers(0, 2**32, size=(n_words, 40), dtype=np.uint32)
        expected = [np.random.SeedSequence(words[:, s]).pool for s in range(40)]
        assert np.array_equal(_mix(words).T, expected), n_words
        assert np.array_equal(_pools(list(words)).T, expected), n_words
    # Edge values and the package's labels, one- and two-word values mixed
    # within a column, in batches of 0, 1, 2 and 800 streams.
    edges = [0, 2**32 - 1, 2**32, 2**64 - 1] + [_part_to_int(x) for x in PACKAGE_LABELS]
    for count in (0, 1, 2, 800):
        columns = [np.array([edges[i] for i in rng.integers(len(edges), size=count)], np.uint64)
                   for _ in range(3)]
        for label in PACKAGE_LABELS:
            parts = (columns[0], label, columns[1], 7, columns[2])
            expected = [np.random.SeedSequence(np.array(words_of(
                (int(a), _part_to_int(label), int(b), 7, int(c))), np.uint32))
                for a, b, c in zip(*columns)]
            assert _pools(parts).T.tolist() == [seq.pool.tolist() for seq in expected]
            got = _state_words(parts, 4)
            assert got.dtype == np.uint64 and got.shape == (count, 4)
            assert got.tolist() == [seq.generate_state(4, np.uint64).tolist()
                                    for seq in expected]


@pytest.mark.parametrize("bad", [2**64, -1, 2**70, np.int64(-1)])
def test_int_parts_outside_64_bits_are_rejected(bad):
    message = r"must be in \[0, 2\*\*64\)"
    with pytest.raises(ValueError, match=message):
        seed_sequence(bad)
    with pytest.raises(ValueError, match=message):
        derive_rng(0, "shuffle", bad)
    with pytest.raises(ValueError, match=message):
        client_train_seed(bad, 0, 0)
    with pytest.raises(ValueError, match=message):
        _rngs(([0, bad], "shuffle", 0))
    # The columnar builders: a part for every stream, a list or an array.
    for part in (bad, [0, bad], np.array([0, bad])):
        with pytest.raises(ValueError, match=message):
            _state_words((0, "shuffle", part), 4)
        with pytest.raises(ValueError, match=message):
            _rngs((0, "shuffle", part))
    with pytest.raises(ValueError, match="^seed " + message):
        RoundConfig(n_clients=4, client_fraction=0.5, epochs=1, batch_size=2, eta=0.1,
                    policy=PolicyConfig("full"), seed=bad)


def test_seeds_at_the_ends_of_the_range_are_distinct_streams():
    RoundConfig(n_clients=4, client_fraction=0.5, epochs=1, batch_size=2, eta=0.1,
                policy=PolicyConfig("full"), seed=2**64 - 1)
    draws = {seed: derive_rng(seed, "select", 0).permutation(20).tolist()
             for seed in (0, 1, 2**32, 2**64 - 1)}
    assert len({tuple(d) for d in draws.values()}) == len(draws)


# Every label the package passes to derive_rng, seed_sequence or the
# many-stream builders _rngs and _state_words.
PACKAGE_LABELS = ("deal", "decide", "demo", "init", "means", "ou_path", "samples",
                  "select", "shuffle", "test", "track", "train")
SRC = Path(__file__).resolve().parents[1] / "src"


def sha256_word(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


def run_fresh(code: str) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


def test_package_labels_are_listed():
    calls = re.findall(r"(?:derive_rng|seed_sequence|_rngs|_state_words)\([^)]*?\"(\w+)\"",
                       "".join(p.read_text() for p in (SRC / "fedsample").glob("*.py")))
    assert sorted(set(calls)) == list(PACKAGE_LABELS)


def test_package_labels_hash_to_hashlib_words():
    assert [_part_to_int(label) for label in PACKAGE_LABELS] == [
        sha256_word(label) for label in PACKAGE_LABELS]


def test_hashlib_fallback_gives_the_same_words():
    # With neither built-in module importable, seeding takes hashlib's sha256.
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from fedsample.seeding import _part_to_int\n"
        f"print('hashlib' in sys.modules, [_part_to_int(l) for l in {PACKAGE_LABELS!r}])\n"
    )
    expected = [sha256_word(label) for label in PACKAGE_LABELS]
    assert run_fresh(code).strip() == f"True {expected}"


# ------------------------------------------------ the dataset's table budget

# Each test entry stands in for an all-send round: one read-only array, stored
# through seeding.store at a fixed charge.
ENTRY_CHARGE = 100


def entry(i: int) -> np.ndarray:
    value = derive_rng(i, "shuffle", 0).permutation(8).astype(np.uint8)
    value.flags.writeable = False
    return value


def kept(table, key: int) -> np.ndarray:
    """``table[key]``, or ``entry(key)``, stored if the budget has room, as
    the engine stores a computed all-send round that its table lacks."""
    value = table.get(key)
    if value is None:
        value = entry(key)
        seeding.store(table, key, value, ENTRY_CHARGE)
    return value


class Owner:  # stands in for a dataset
    pass


def fresh_tables(monkeypatch, entries: int) -> None:
    """No table held yet, and a budget of ``entries`` entries."""
    import weakref

    monkeypatch.setattr(seeding, "_TABLES", weakref.WeakKeyDictionary())
    monkeypatch.setattr(seeding, "_MADE", weakref.WeakValueDictionary())
    monkeypatch.setattr(seeding, "_TABLE_BYTES", entries * ENTRY_CHARGE)


def test_memo_stays_consistent_under_threads(monkeypatch):
    # Threads share a table. With room for 8 of 24 keys, every call returns
    # its key's array and the first 8 stored stay. With room for all, six
    # threads that miss the same 1000 keys together store each key once, so
    # the table's charge is exactly its entries': a store without its lock
    # charges some twice.
    import threading

    def in_threads(work):
        errors = []

        def run(offset):
            try:
                work(offset)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(7 * k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    fresh_tables(monkeypatch, 8)
    owner = Owner()  # the budget counts the tables of live owners
    table = seeding.shared_table(owner)
    stored = []

    def bounded(offset):
        for i in range(400):
            key = (offset + i) % 24
            value = kept(table, key)
            assert np.array_equal(value, entry(key)) and not value.flags.writeable
        stored.append(sorted(table))

    in_threads(bounded)
    assert len(table) == 8 and stored == [sorted(table)] * 6
    assert table.nbytes == seeding._TABLE_BYTES == len(table) * ENTRY_CHARGE

    fresh_tables(monkeypatch, 1000)
    owner = Owner()
    table = seeding.shared_table(owner)
    step = threading.Barrier(6, timeout=30)

    def together(_):
        for key in range(1000):
            step.wait()  # so that every thread misses each key
            kept(table, key)

    in_threads(together)
    assert len(table) == 1000 and table.nbytes == 1000 * ENTRY_CHARGE


def test_a_table_whose_owner_died_stays_within_the_budget(monkeypatch):
    # A table held past its owner's life is no longer among the live ones;
    # it still counts itself, and the live tables, against the budget.
    import gc

    fresh_tables(monkeypatch, 8)
    owner = Owner()
    live = seeding.shared_table(owner)
    for key in range(5):
        kept(live, key)
    orphan = seeding.shared_table(Owner())
    gc.collect()
    assert list(seeding._TABLES.values()) == [live]
    for key in range(24):
        assert np.array_equal(kept(orphan, key), entry(key))
    assert sorted(orphan) == [0, 1, 2]
    assert live.nbytes + orphan.nbytes == seeding._TABLE_BYTES


def test_tables_kept_past_their_owners_share_the_budget_with_live_ones(monkeypatch):
    # Three tables kept after their owners died and one live table hold at
    # most the budget between them; a table that is let go frees its share.
    import gc

    fresh_tables(monkeypatch, 8)
    owner = Owner()
    live = seeding.shared_table(owner)
    for key in range(2):
        kept(live, key)
    orphans = [seeding.shared_table(Owner()) for _ in range(3)]
    gc.collect()
    for table in [*orphans, live]:
        for key in range(24):
            assert np.array_equal(kept(table, key), entry(key))
    assert [len(table) for table in [*orphans, live]] == [6, 0, 0, 2]
    assert sum(table.nbytes for table in [*orphans, live]) == seeding._TABLE_BYTES
    del orphans, table
    gc.collect()
    for key in range(24):
        kept(live, key)
    assert len(live) == 8 and live.nbytes == seeding._TABLE_BYTES


def test_a_store_replaces_only_what_it_was_given(monkeypatch):
    # A key that no longer holds ``was`` keeps its value and its charge, as
    # when two cells append to one round's all-send entries at once.
    fresh_tables(monkeypatch, 8)
    owner = Owner()
    table = seeding.shared_table(owner)
    seeding.store(table, "round", (entry(0),), ENTRY_CHARGE)
    seeding.store(table, "round", (entry(1),), ENTRY_CHARGE)  # expects no entry
    first = table["round"]
    seeding.store(table, "round", (*first, entry(2)), ENTRY_CHARGE, was=(entry(0),))
    assert table["round"] is first and table.nbytes == ENTRY_CHARGE
    seeding.store(table, "round", (*first, entry(2)), ENTRY_CHARGE, was=first)
    assert len(table["round"]) == 2 and table.nbytes == 2 * ENTRY_CHARGE
