"""JSON run configuration: parsing, strict validation, and materialization.

A run config is one JSON object:

    {
      "dataset": {"kind": "synth_blobs", "n_classes": 10, "dim": 20,
                  "samples_per_client": 50, "shards_per_client": 2},
      "model":   {"kind": "mlp1", "hidden_dim": 32},
      "K": 100, "C": 0.2, "E": 2, "B": 10, "eta": 0.1,
      "rounds": 100,
      "policy": {"kind": "ft", "gamma": 0.5},
      "nack_estimate_mode": "carry_forward",
      "seed": 0,
      "track_coordinates": "auto"
    }

``K`` doubles as the dataset's client count. A dataset may instead be
``{"kind": "csv", "path": ..., "n_classes": ...}``; the file's client
count must then equal K. The model's input dimension and class count come
from the dataset. Unknown keys anywhere are rejected.

``parse_config`` checks what JSON input needs: unknown and missing keys,
and integer, number and finiteness types. The round knobs (K, C, E, B,
eta, policy, nack_estimate_mode, seed, track_coordinates) become the
engine's ``RoundConfig``, which checks their ranges; its ValueError, like
``PolicyConfig``'s, surfaces as a ConfigError naming the key.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .data import FederatedDataset, load_csv, synth_blobs
from .engine import RoundConfig, _check_client_count
from .errors import ConfigError
from .models import MODEL_KINDS, ModelSpec
from .policies import POLICY_PARAMS, PolicyConfig
from .seeding import check_seed

_TOP_KEYS = {
    "dataset", "model", "K", "C", "E", "B", "eta", "rounds", "policy",
    "nack_estimate_mode", "seed", "track_coordinates",
}
_DATASET_KEYS = {
    "synth_blobs": {"kind", "n_classes", "dim", "samples_per_client",
                    "shards_per_client", "seed"},
    "csv": {"kind", "path", "n_classes", "dim"},
}
_MODEL_KEYS = {"kind", "hidden_dim"}
_POLICY_KEYS = {"kind", *POLICY_PARAMS.values()}


# dataset, model: dict; rounds: int; round: RoundConfig
class RunSettings(namedtuple("RunSettings", "dataset model rounds round")):
    """A validated config, not yet materialized into arrays: the dataset
    and model sections as parsed, the horizon, and the round knobs at the
    config's seed."""

    __slots__ = ()


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _as_seed(value, where: str) -> int:
    value = _as_int(value, where)
    try:
        check_seed(value, where)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{where}: must be finite")
    return float(value)


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _parse_policy(obj: dict) -> PolicyConfig:
    _check_keys(obj, _POLICY_KEYS, "policy")
    kind = _require(obj, "kind", "policy")
    kwargs = {
        name: _as_number(value, f"policy.{name}")
        for name, value in obj.items() if name != "kind"
    }
    try:
        return PolicyConfig(kind, **kwargs)
    except ValueError as err:
        raise ConfigError(f"policy: {err}") from None


def parse_config(doc: dict) -> RunSettings:
    """Validate a decoded JSON document into RunSettings."""
    _check_keys(doc, _TOP_KEYS, "config")

    dataset = _require(doc, "dataset", "config")
    if not isinstance(dataset, dict):
        raise ConfigError("dataset: expected an object")
    ds_kind = _require(dataset, "kind", "dataset")
    if not isinstance(ds_kind, str) or ds_kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind: unknown kind {ds_kind!r}")
    _check_keys(dataset, _DATASET_KEYS[ds_kind], "dataset")
    if ds_kind == "synth_blobs":
        _as_int(_require(dataset, "n_classes", "dataset"), "dataset.n_classes", 1)
        _as_int(_require(dataset, "dim", "dataset"), "dataset.dim", 1)
        _as_int(_require(dataset, "samples_per_client", "dataset"),
                "dataset.samples_per_client", 1)
        _as_int(_require(dataset, "shards_per_client", "dataset"),
                "dataset.shards_per_client", 1)
        if "seed" in dataset:
            _as_seed(dataset["seed"], "dataset.seed")
    else:
        path = _require(dataset, "path", "dataset")
        if not isinstance(path, str) or not path:
            raise ConfigError("dataset.path: expected a non-empty string")
        _as_int(_require(dataset, "n_classes", "dataset"), "dataset.n_classes", 1)
        if "dim" in dataset:
            _as_int(dataset["dim"], "dataset.dim", 1)

    model = _require(doc, "model", "config")
    _check_keys(model, _MODEL_KEYS, "model")
    m_kind = _require(model, "kind", "model")
    if m_kind not in MODEL_KINDS:
        raise ConfigError(
            f"model.kind: {m_kind!r} is not one of {', '.join(MODEL_KINDS)}"
        )
    if m_kind == "mlp1":
        _as_int(_require(model, "hidden_dim", "model"), "model.hidden_dim", 1)
    elif "hidden_dim" in model:
        raise ConfigError(f"model.hidden_dim: not a {m_kind} parameter")

    rounds = _as_int(_require(doc, "rounds", "config"), "rounds", 1)
    try:
        round_config = RoundConfig(
            n_clients=_as_int(_require(doc, "K", "config"), "K"),
            client_fraction=_as_number(_require(doc, "C", "config"), "C"),
            epochs=_as_int(_require(doc, "E", "config"), "E"),
            batch_size=_as_int(_require(doc, "B", "config"), "B"),
            eta=_as_number(_require(doc, "eta", "config"), "eta"),
            policy=_parse_policy(_require(doc, "policy", "config")),
            nack_estimate_mode=doc.get("nack_estimate_mode", "carry_forward"),
            seed=_as_int(doc.get("seed", 0), "seed"),
            track=doc.get("track_coordinates", "auto"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunSettings(dataset=dataset, model=model, rounds=rounds, round=round_config)


def load_config(path: str) -> RunSettings:
    """Read and validate a JSON config file (UTF-8, with or without a BOM)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: byte {err.start}: {err.reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno}: {err.msg}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(doc)


def build_experiment(
    settings: RunSettings, seed: int
) -> tuple[FederatedDataset, ModelSpec, RoundConfig]:
    """The dataset, model and round config of one run at ``seed``.

    An explicit ``dataset.seed`` pins synthetic data across seeds; without
    one, ``seed`` drives it too, so that per-seed comparisons across
    policies stay paired. A seed outside [0, 2**64) is a ConfigError
    naming ``seed``; whatever the data or the model rejects is a
    ConfigError prefixed ``dataset:`` or ``model:``.
    """
    try:
        round_config = settings.round._replace(seed=seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    ds, m = settings.dataset, settings.model
    try:
        if ds["kind"] == "csv":
            dataset = load_csv(ds["path"], ds["n_classes"], ds.get("dim"))
        else:
            dataset = synth_blobs(
                n_classes=ds["n_classes"],
                dim=ds["dim"],
                n_clients=round_config.n_clients,
                samples_per_client=ds["samples_per_client"],
                shards_per_client=ds["shards_per_client"],
                seed=ds.get("seed", seed),
            )
        _check_client_count(round_config.n_clients, dataset)
    except (ValueError, OSError) as err:
        raise ConfigError(f"dataset: {err}") from None

    kwargs = {"input_dim": dataset.dim}
    if m["kind"] != "quadratic-diagnostic":
        kwargs["n_classes"] = dataset.n_classes
    if m["kind"] == "mlp1":
        kwargs["hidden_dim"] = m["hidden_dim"]
    try:
        model = ModelSpec(m["kind"], **kwargs)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from None

    return dataset, model, round_config
