"""Tests for synthetic federated data and CSV persistence."""

import math

import numpy as np
import pytest

from fedsample.data import (
    FederatedDataset,
    export_csv,
    load_csv,
    synth_blobs,
)
from fedsample.errors import ParseError


# ---------------------------------------------------------------- synth_blobs

def test_sample_conservation_and_shapes():
    ds = synth_blobs(n_classes=5, dim=7, n_clients=12, samples_per_client=20,
                     shards_per_client=2, seed=0)
    assert ds.n_clients == 12
    assert int(ds.client_sizes().sum()) == 12 * 20
    assert all(x.shape == (20, 7) for x, _ in ds.clients)
    assert ds.test_set[0].shape == (5 * 100, 7)


def test_distinct_labels_bounded_by_shards():
    for spc in (1, 2, 3):
        ds = synth_blobs(n_classes=6, dim=4, n_clients=30, samples_per_client=15,
                         shards_per_client=spc, seed=3)
        for _, y in ds.clients:
            assert len(np.unique(y)) <= spc


def test_single_shard_clients_are_single_class():
    ds = synth_blobs(n_classes=4, dim=3, n_clients=20, samples_per_client=10,
                     shards_per_client=1, seed=1)
    for _, y in ds.clients:
        assert len(np.unique(y)) == 1


def test_same_seed_reproduces_different_seed_changes():
    a = synth_blobs(3, 4, 8, 10, 2, seed=5)
    b = synth_blobs(3, 4, 8, 10, 2, seed=5)
    c = synth_blobs(3, 4, 8, 10, 2, seed=6)
    for (xa, ya), (xb, yb) in zip(a.clients, b.clients):
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert np.array_equal(a.test_set[0], b.test_set[0])
    assert any(
        not np.array_equal(ya, yc) or not np.array_equal(xa, xc)
        for (xa, ya), (xc, yc) in zip(a.clients, c.clients)
    )


def test_class_means_on_radius_three_sphere():
    ds = synth_blobs(n_classes=4, dim=6, n_clients=40, samples_per_client=50,
                     shards_per_client=4, seed=2)
    # Per-class empirical means of the test set approach the true means.
    tx, ty = ds.test_set
    for c in range(4):
        m = tx[ty == c].mean(axis=0)
        assert np.linalg.norm(m) == pytest.approx(3.0, abs=0.5)


def test_label_entropy_grows_with_shards():
    # Statistical check over 10 seeds: the non-iid knob orders mean
    # per-client label entropy.
    def mean_entropy(spc: int, seed: int) -> float:
        ds = synth_blobs(n_classes=5, dim=3, n_clients=20, samples_per_client=30,
                         shards_per_client=spc, seed=seed)
        ents = []
        for _, y in ds.clients:
            freq = np.bincount(y, minlength=5) / y.size
            nz = freq[freq > 0]
            ents.append(float(-(nz * np.log(nz)).sum()))
        return float(np.mean(ents))

    curves = np.array([[mean_entropy(spc, s) for spc in (1, 2, 3, 5)] for s in range(10)])
    avg = curves.mean(axis=0)
    assert all(b >= a for a, b in zip(avg, avg[1:]))


def test_synth_blobs_rejects_bad_knobs():
    with pytest.raises(ValueError):
        synth_blobs(3, 4, 8, 10, shards_per_client=4, seed=0)
    with pytest.raises(ValueError):
        synth_blobs(0, 4, 8, 10, 1, seed=0)
    with pytest.raises(ValueError):
        synth_blobs(3, 4, 0, 10, 1, seed=0)


# ------------------------------------------------------------------ CSV round

def test_export_load_roundtrip_exact(tmp_path):
    ds = synth_blobs(3, 5, 6, 8, 2, seed=9)
    path = tmp_path / "ds.csv"
    export_csv(ds, str(path))
    back = load_csv(str(path), n_classes=3)
    assert back.n_clients == ds.n_clients
    assert back.dim == ds.dim
    for (xa, ya), (xb, yb) in zip(ds.clients, back.clients):
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)
    assert np.array_equal(ds.test_set[0], back.test_set[0])
    assert np.array_equal(ds.test_set[1], back.test_set[1])


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    # Spreadsheet tools write UTF-8 CSVs that start with a byte-order mark.
    ds = synth_blobs(3, 5, 6, 8, 2, seed=9)
    plain, bom = tmp_path / "ds.csv", tmp_path / "bom.csv"
    export_csv(ds, str(plain))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_csv(str(plain), n_classes=3), load_csv(str(bom), n_classes=3)
    assert (a.n_clients, a.dim) == (b.n_clients, b.dim)
    for (xa, ya), (xb, yb) in zip(a.clients + (a.test_set,), b.clients + (b.test_set,)):
        assert xa.tobytes() == xb.tobytes() and ya.tobytes() == yb.tobytes()


def test_load_groups_by_first_appearance(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(
        "client_id,label,f_0\n"
        "b,1,0.5\n"
        "a,0,1.5\n"
        "b,0,2.5\n",
        encoding="utf-8",
    )
    ds = load_csv(str(path), n_classes=2)
    assert ds.n_clients == 2
    # client "b" first: two samples; then "a" with one
    assert ds.clients[0][0].shape == (2, 1)
    assert ds.clients[1][0].shape == (1, 1)
    # no test rows: pooled fallback
    assert ds.test_set[0].shape == (3, 1)


def test_load_errors_carry_line_numbers(tmp_path):
    cases = [
        ("client_id,label,f_0\na,2,0.5\n", "label 2 outside"),      # range
        ("client_id,label,f_0\na,x,0.5\n", "not an integer"),       # label parse
        ("client_id,label,f_0\na,0,zz\n", "non-numeric"),           # feature parse
        ("client_id,label,f_0\na,0,0.5,9\n", "expected 3 fields"),  # width
        ("client_id,label,f_0\na,0,inf\n", "non-finite"),           # finiteness
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=fragment) as err:
            load_csv(str(path), n_classes=2)
        assert "line 2" in str(err.value)


def test_load_rejects_bad_header_and_empty(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("who,label,f_0\na,0,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(str(path), n_classes=2)

    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_csv(str(path), n_classes=2)

    path.write_text("client_id,label,f_0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(str(path), n_classes=2)

    path.write_text("client_id,label,f_0\ntest,0,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no client rows"):
        load_csv(str(path), n_classes=2)


def test_load_respects_schema_dim(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("client_id,label,f_0,f_1\na,0,0.5,1.0\n", encoding="utf-8")
    ds = load_csv(str(path), n_classes=1, dim=2)
    assert ds.dim == 2
    with pytest.raises(ParseError, match="expected 3 feature columns"):
        load_csv(str(path), n_classes=1, dim=3)


def test_two_row_file_two_clients(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "client_id,label,f_0,f_1\nu1,0,0.1,0.2\nu2,1,0.3,0.4\n", encoding="utf-8"
    )
    ds = load_csv(str(path), n_classes=2)
    assert ds.n_clients == 2
    assert all(x.shape[0] == 1 for x, _ in ds.clients)


# --------------------------------------------------------------------- types

def test_datasets_compare_and_hash_by_identity():
    import gc
    import weakref

    a, b = (synth_blobs(n_classes=3, dim=2, n_clients=4, samples_per_client=5,
                        shards_per_client=1, seed=0) for _ in range(2))
    # Same bits, two objects: unequal, where comparing the arrays raised.
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and len({a, b}) == 2
    table = weakref.WeakKeyDictionary({a: "a", b: "b"})
    assert table[a] == "a" and table[b] == "b"
    del a
    gc.collect()
    assert list(table.values()) == ["b"]


def test_a_dataset_keeps_read_only_views_of_its_arrays():
    # Writes through the dataset raise; the given arrays are not copied and
    # stay the caller's to write.
    x, y = np.zeros((2, 3)), np.zeros(2, dtype=np.int64)
    tx, ty = np.ones((4, 3)), np.ones(4, dtype=np.int64)
    ds = FederatedDataset(clients=((x, y),), test_set=(tx, ty), n_classes=2, dim=3)
    for mine, view in zip([x, y, tx, ty], [*ds.clients[0], *ds.test_set]):
        assert np.shares_memory(mine, view) and mine.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1
    x *= 2.0
    assert ds.clients[0][0] is not x and ds.test_set[0].sum() == 12.0


def test_dataset_validation():
    x = np.zeros((2, 3))
    y = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError):
        FederatedDataset(clients=(), test_set=(x, y), n_classes=2, dim=3)
    with pytest.raises(ValueError):
        FederatedDataset(
            clients=((x, y), (np.zeros((2, 4)), y)), test_set=(x, y), n_classes=2, dim=3
        )
    with pytest.raises(ValueError):
        FederatedDataset(
            clients=((x, np.array([0, 5])),), test_set=(x, y), n_classes=2, dim=3
        )
    with pytest.raises(ValueError, match="one label per sample"):
        FederatedDataset(clients=((x, np.zeros(3, np.int64)),), test_set=(x, y), n_classes=2,
                         dim=3)
    with pytest.raises(ValueError, match="clients must be non-empty"):
        FederatedDataset(clients=((x, y), (x[:0], y[:0])), test_set=(x, y), n_classes=2, dim=3)
    # load_csv checks its ints before it opens the (missing) file
    with pytest.raises(ValueError, match="n_classes must be >= 1"):
        load_csv("missing.csv", n_classes=0)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        load_csv("missing.csv", n_classes=2, dim=0)
