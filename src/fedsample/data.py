"""Federated dataset construction, CSV persistence, and non-iid control.

``synth_blobs`` builds class-conditional Gaussian clusters and deals them
to clients shard-wise: the label pool is sorted, cut into
``n_clients * shards_per_client`` single-class shards, and the shards are
dealt uniformly at random without replacement. Holding each shard to one
class keeps the per-client distinct-label count at most
``shards_per_client`` no matter how the cuts land; fewer shards per client
means more skew.

The CSV format is one row per sample: ``client_id,label,f_0,...,f_{d-1}``
with a header row, UTF-8. Rows with the reserved client id ``test`` form
the held-out test set. Clients appear in the dataset in order of first
appearance in the file.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParseError
from .seeding import _rngs, derive_rng

TEST_CLIENT_ID = "test"


class FederatedDataset:
    """Per-client labelled samples plus a shared held-out test set, checked
    when built. Its fields, and the views of the given arrays that it keeps
    (nothing is copied), are read-only: the engine replays rounds computed
    on them. Two datasets are equal only if they are one object, which
    hashes by identity and can key a ``weakref.WeakKeyDictionary``."""

    def __init__(self, clients: tuple[tuple[np.ndarray, np.ndarray], ...],
                 test_set: tuple[np.ndarray, np.ndarray], n_classes: int, dim: int) -> None:
        views = [(x.view(), y.view()) for x, y in [*clients, test_set]]
        vars(self).update(clients=tuple(views[:-1]), test_set=views[-1], n_classes=n_classes,
                          dim=dim)
        if len(self.clients) < 1:
            raise ValueError("need at least one client")
        for x, y in views:
            x.flags.writeable = y.flags.writeable = False
            if x.ndim != 2 or x.shape[1] != self.dim:
                raise ValueError("feature dimension must be uniform")
            if y.shape != (x.shape[0],):
                raise ValueError("one label per sample required")
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError("label outside [0, n_classes)")
        for x, _ in self.clients:
            if x.shape[0] == 0:
                raise ValueError("clients must be non-empty")

    def __setattr__(self, name, *_):
        raise AttributeError(f"FederatedDataset is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def client_sizes(self) -> np.ndarray:
        return np.array([x.shape[0] for x, _ in self.clients], dtype=np.int64)


def synth_blobs(
    n_classes: int,
    dim: int,
    n_clients: int,
    samples_per_client: int,
    shards_per_client: int,
    seed: int,
) -> FederatedDataset:
    """Synthetic non-iid federated classification data.

    Class means sit on a sphere of radius 3 with unit-variance Gaussian
    samples around them. Each client receives ``shards_per_client``
    single-class shards (classes spread evenly over the shard pool), so
    ``shards_per_client = 1`` gives fully pathological skew and
    ``shards_per_client = n_classes`` approaches iid. The balanced test
    set holds 100 samples per class.
    """
    if min(n_classes, dim, n_clients, samples_per_client, shards_per_client) < 1:
        raise ValueError("all counts must be >= 1")
    if shards_per_client > n_classes:
        raise ValueError("shards_per_client must not exceed n_classes")

    means_rng = derive_rng(seed, "means")
    raw = means_rng.standard_normal((n_classes, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    means = 3.0 * raw / np.maximum(norms, 1e-12)

    n_shards = n_clients * shards_per_client
    shard_class = np.sort(np.arange(n_shards) % n_classes)
    dealt = derive_rng(seed, "deal").permutation(n_shards)

    base = samples_per_client // shards_per_client
    rem = samples_per_client % shards_per_client

    clients: list[tuple[np.ndarray, np.ndarray]] = []
    rngs = _rngs((seed, "samples", np.arange(n_clients)))
    for k, rng in enumerate(rngs):
        own = dealt[k * shards_per_client : (k + 1) * shards_per_client]
        sizes = [base + (1 if j < rem else 0) for j in range(shards_per_client)]
        xs, ys = [], []
        for shard, size in zip(own, sizes):
            if size == 0:
                continue
            c = int(shard_class[shard])
            xs.append(means[c] + rng.standard_normal((size, dim)))
            ys.append(np.full(size, c, dtype=np.int64))
        clients.append((np.vstack(xs), np.concatenate(ys)))

    per_class_test = 100
    test_y = np.repeat(np.arange(n_classes, dtype=np.int64), per_class_test)
    test_rng = derive_rng(seed, "test")
    test_x = means[test_y] + test_rng.standard_normal((test_y.size, dim))

    return FederatedDataset(
        clients=tuple(clients),
        test_set=(test_x, test_y),
        n_classes=n_classes,
        dim=dim,
    )


def export_csv(ds: FederatedDataset, path: str) -> None:
    """Write the dataset (clients then test rows) in the documented format.

    Floats use shortest round-trip repr, so load_csv reproduces the arrays
    exactly.
    """
    import csv  # here, so that `import fedsample` loads no csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "label"] + [f"f_{j}" for j in range(ds.dim)])
        for k, (x, y) in enumerate(ds.clients):
            for i in range(x.shape[0]):
                writer.writerow([k, int(y[i])] + [repr(float(v)) for v in x[i]])
        tx, ty = ds.test_set
        for i in range(tx.shape[0]):
            writer.writerow([TEST_CLIENT_ID, int(ty[i])] + [repr(float(v)) for v in tx[i]])


def load_csv(path: str, n_classes: int, dim: int | None = None) -> FederatedDataset:
    """Load a dataset of ``n_classes`` classes from the documented CSV format.

    ``dim``, when given, is the required feature count; otherwise the header
    sets it. Clients are grouped by client_id in order of first appearance;
    rows with client_id ``test`` become the held-out set. A file without
    test rows falls back to the pooled client samples as its test set.
    """
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if dim is not None and dim < 1:
        raise ValueError("dim must be >= 1")
    import csv

    groups: dict[str, list[tuple[int, list[float]]]] = {}
    parse_error = functools.partial(ParseError, path=path)

    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if len(header) < 3 or header[:2] != ["client_id", "label"]:
            raise parse_error("header must be client_id,label,f_0,...", line=1)
        file_dim = len(header) - 2
        expected_features = [f"f_{j}" for j in range(file_dim)]
        if header[2:] != expected_features:
            raise parse_error("feature columns must be f_0..f_{d-1} in order", line=1)
        if dim is None:
            dim = file_dim
        elif dim != file_dim:
            raise parse_error(f"expected {dim} feature columns, found {file_dim}", line=1)

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + dim:
                raise parse_error(f"expected {2 + dim} fields, got {len(row)}", line=lineno)
            cid = row[0].strip()
            if not cid:
                raise parse_error("empty client_id", line=lineno)
            try:
                label = int(row[1])
            except ValueError:
                raise parse_error(f"label {row[1]!r} is not an integer", line=lineno) from None
            if not 0 <= label < n_classes:
                raise parse_error(f"label {label} outside [0, {n_classes})", line=lineno)
            try:
                feats = [float(tok) for tok in row[2:]]
            except ValueError:
                raise parse_error("non-numeric feature value", line=lineno) from None
            if not all(math.isfinite(v) for v in feats):
                raise parse_error("non-finite feature value", line=lineno)
            groups.setdefault(cid, []).append((label, feats))

    if not groups:
        raise ValueError(f"{path}: no data rows")

    def to_arrays(rows: list[tuple[int, list[float]]]) -> tuple[np.ndarray, np.ndarray]:
        x = np.array([feats for _, feats in rows], dtype=np.float64)
        y = np.array([label for label, _ in rows], dtype=np.int64)
        return x, y

    clients = tuple(to_arrays(rows) for cid, rows in groups.items() if cid != TEST_CLIENT_ID)
    if not clients:
        raise ValueError(f"{path}: no client rows")
    if TEST_CLIENT_ID in groups:
        test_set = to_arrays(groups[TEST_CLIENT_ID])
    else:
        test_set = (
            np.vstack([x for x, _ in clients]),
            np.concatenate([y for _, y in clients]),
        )

    return FederatedDataset(clients=clients, test_set=test_set, n_classes=n_classes, dim=dim)
