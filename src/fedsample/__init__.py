"""Deterministic federated-learning simulator with OU-based client sampling.

The pieces, bottom up:

* ``ou``: scalar mean-reverting process simulation, AR(1) least-squares
  estimation, conditional-mean decoding, stationary-band statistics.
* ``models``: small differentiable models with exact gradients and a
  deterministic local SGD trainer that steps a round's equal-size clients
  in lockstep and can record per-step trajectories.
* ``data``: synthetic non-iid federated datasets and CSV persistence.
* ``policies``: the client participation rules (full, random drop, fixed
  and adaptive norm thresholds, band-fraction rules).
* ``engine``: the round protocol with ACK/NACK messaging, server-side
  estimation of silent clients, weighted aggregation, byte accounting.
* ``cli``: run / sweep / ou-demo commands over JSON configs.
"""

from .data import CSVSchema, FederatedDataset, export_csv, load_csv, synth_blobs
from .engine import (
    METRICS_HEADER,
    CommLedger,
    RoundConfig,
    RoundReport,
    ServerState,
    UpdateMessage,
    aggregate,
    broadcast_bytes,
    client_train_seed,
    format_metrics_row,
    iter_rounds,
    message_bytes,
    run_experiment,
    run_round,
    select_clients,
    server_estimate,
)
from .errors import ConfigError, NumericError, ParseError
from .models import (
    LocalTrainReport,
    ModelSpec,
    evaluate,
    init_params,
    local_train,
    loss_and_grad,
    train_clients,
)
from .ou import (
    OUFit,
    OUParams,
    Trajectory,
    band_fraction,
    decode,
    fit_ou_ls,
    fit_ou_ls_columns,
    simulate_ou,
)
from .policies import (
    PolicyConfig,
    compute_adaptive_threshold,
    local_decide,
)
from .seeding import derive_rng, seed_sequence

__all__ = [
    "CSVSchema",
    "CommLedger",
    "ConfigError",
    "FederatedDataset",
    "LocalTrainReport",
    "METRICS_HEADER",
    "ModelSpec",
    "NumericError",
    "OUFit",
    "OUParams",
    "ParseError",
    "PolicyConfig",
    "RoundConfig",
    "RoundReport",
    "ServerState",
    "Trajectory",
    "UpdateMessage",
    "aggregate",
    "band_fraction",
    "broadcast_bytes",
    "client_train_seed",
    "compute_adaptive_threshold",
    "decode",
    "derive_rng",
    "evaluate",
    "export_csv",
    "fit_ou_ls",
    "fit_ou_ls_columns",
    "format_metrics_row",
    "init_params",
    "iter_rounds",
    "load_csv",
    "local_decide",
    "local_train",
    "loss_and_grad",
    "train_clients",
    "message_bytes",
    "run_experiment",
    "run_round",
    "seed_sequence",
    "select_clients",
    "server_estimate",
    "simulate_ou",
    "synth_blobs",
]

__version__ = "0.1.0"
