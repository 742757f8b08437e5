"""The benchmark's workloads and the experiment pools they draw inputs from.

Every workload trains mlp1 20-32-10 (1002 parameters) on synth_blobs with
10 classes, dim 20, K=100 clients x 50 samples, 2 label shards per client,
at C=0.2, E=2, B=10, eta=0.1: the gate-5 comparison configuration.

Inputs come from a fixed pool of experiment seeds whose outputs are
recorded in ``reference/``, so every pass can be checked. ``--seed``
picks the order in which a run walks the pool; the same seed always gives
the same sequence of passes.

This module imports nothing from fedsample, so the runner can start (and
fail cleanly) without it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DATASET = {"n_classes": 10, "dim": 20, "samples_per_client": 50, "shards_per_client": 2}
N_CLIENTS = 100
HIDDEN_DIM = 32
CLIENT_FRACTION = 0.2
EPOCHS = 2
BATCH_SIZE = 10
ETA = 0.1

# The keyword each parameterised policy token sets, as in ``fedsample sweep``.
POLICY_PARAMS = {"ft": "gamma", "random": "q", "ou": "r"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "inproc": a pass trains every policy in ``policies`` for
    ``rounds`` rounds on one pool seed's data; each fresh process runs
    ``passes_per_process`` passes back to back.
    kind "sweep": each pass is a fresh ``fedsample sweep`` process over
    ``policies`` x one pool entry's seeds, ``rounds`` rounds per cell.
    ``cli_probe``: the --trace 1 run also traces one cli-sweep process,
    for the cli and config layers.
    """

    name: str
    kind: str
    policies: tuple[str, ...]
    nack_mode: str
    track: str | None
    rounds: int
    pool: tuple
    passes_per_process: int = 1
    cli_probe: bool = False

    def order(self, seed: int) -> list:
        """The pool in the order a run with this workload seed visits it."""
        entries = list(self.pool)
        random.Random(seed).shuffle(entries)
        return entries

    def experiments(self, entry) -> list[tuple[str, str, int]]:
        """(experiment id, policy token, seed) for every run in one pass."""
        seeds = entry if isinstance(entry, tuple) else (entry,)
        return [
            (f"s{seed}-{token}", token, seed)
            for token in self.policies
            for seed in seeds
        ]

    def updates_per_pass(self, entry) -> int:
        """Selected-client updates one pass performs."""
        per_round = max(int(CLIENT_FRACTION * N_CLIENTS), 1)
        return len(self.experiments(entry)) * self.rounds * per_round


# Why each workload exists is recorded in BENCHMARK.json. cli-sweep is not
# listed there (README.md says why): it runs by hand, and as the cli probe.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fedavg-norm",
            kind="inproc",
            policies=("full", "ft:0.6", "at"),
            nack_mode="carry_forward",
            track=None,
            rounds=20,
            pool=tuple(range(8)),
            passes_per_process=2,
            cli_probe=True,
        ),
        Workload(
            name="ou-decode",
            kind="inproc",
            policies=("aou",),
            nack_mode="ou_decode",
            track="auto",
            rounds=20,
            pool=tuple(range(8)),
        ),
        Workload(
            name="cli-sweep",
            kind="sweep",
            policies=("full", "ft:0.6", "random:0.3", "at"),
            nack_mode="carry_forward",
            track=None,
            rounds=5,
            pool=tuple((2 * i, 2 * i + 1) for i in range(8)),
        ),
    )
}


def sweep_config(workload: Workload) -> dict:
    """The JSON config a sweep workload hands to ``fedsample sweep``. The
    dataset has no seed of its own, so each cell's seed drives its data."""
    return {
        "dataset": {"kind": "synth_blobs", **DATASET},
        "model": {"kind": "mlp1", "hidden_dim": HIDDEN_DIM},
        "K": N_CLIENTS,
        "C": CLIENT_FRACTION,
        "E": EPOCHS,
        "B": BATCH_SIZE,
        "eta": ETA,
        "rounds": workload.rounds,
        "policy": {"kind": "full"},
        "nack_estimate_mode": workload.nack_mode,
        "seed": 0,
        "track_coordinates": workload.track,
    }
