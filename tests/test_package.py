"""The package's public names, its record types, and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsample
from fedsample.config import RunSettings

# hashlib would load OpenSSL (_hashlib) and _blake2 for the stream labels'
# sha256, csv only serves the two CSV dataset functions, the package
# defines no dataclass, and numpy.random loads on the first stream built.
UNUSED = ("hashlib", "_hashlib", "_blake2", "csv", "_csv", "dataclasses", "numpy.random")


def test_all_names_resolve_without_duplicates():
    names = fedsample.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fedsample, n)] == []


def loaded_after(statement: str) -> dict:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps({{'unused': [m for m in {UNUSED!r} if m in sys.modules],"
        " 'own': sorted(m for m in sys.modules if m.split('.')[0] == 'fedsample')}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout)


def test_cold_import_loads_no_openssl_or_csv():
    loaded = loaded_after("import fedsample")
    assert loaded["unused"] == []
    # Every submodule still loads at import: nothing is deferred to first use.
    assert loaded["own"] == ["fedsample"] + [
        f"fedsample.{m}" for m in ("data", "engine", "errors", "models", "ou", "policies", "seeding")]
    loaded = loaded_after("import fedsample.cli")
    assert loaded["unused"] == []
    assert "fedsample.config" in loaded["own"]


def read_only_instances() -> dict:
    x, y = np.zeros((2, 3)), np.zeros(2, np.int64)
    policy = fedsample.PolicyConfig("ft", gamma=0.5)
    round_config = fedsample.RoundConfig(4, 0.5, 1, 2, 0.1, policy)
    return {
        "ModelSpec": fedsample.ModelSpec("logistic", 3, 2),
        "PolicyConfig": policy,
        "RoundConfig": round_config,
        "UpdateMessage": fedsample.UpdateMessage(0, 2, np.zeros(3)),
        "RoundReport": fedsample.RoundReport(0, (0,), (), None, 8, 8, 8, 0.5, 1.0),
        "LocalTrainReport": fedsample.LocalTrainReport(np.zeros(3), 0.0, 2, 1),
        "RunSettings": RunSettings({}, {}, 1, round_config),
        "FederatedDataset": fedsample.FederatedDataset(((x, y),), (x, y), 2, 3),
        "OUFit": fedsample.fit_ou_ls_columns(np.arange(8.0).reshape(4, 2) ** 2, dt=1.0),
    }


@pytest.mark.parametrize("name", sorted(read_only_instances()))
def test_read_only_types_reject_assigning_a_field(name):
    obj = read_only_instances()[name]
    fields = getattr(obj, "_fields", None) or list(vars(obj))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_equal_values_compare_and_hash_equal():
    model = fedsample.ModelSpec("mlp1", 4, 3, 5)
    assert model.param_count == 43  # its cached layout takes no part in equality
    round_config = fedsample.RoundConfig(4, 0.5, 1, 2, 0.1, fedsample.PolicyConfig("at"))
    pairs = [
        (model, fedsample.ModelSpec("mlp1", input_dim=4, n_classes=3, hidden_dim=5)),
        (fedsample.PolicyConfig("ft", gamma=0.5), fedsample.PolicyConfig("ft", None, 0.5)),
        (round_config, fedsample.RoundConfig(4, 0.5, 1, 2, 0.1, fedsample.PolicyConfig("at"))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert model != fedsample.ModelSpec("mlp1", 4, 3, 6)
    assert round_config != fedsample.RoundConfig(4, 0.5, 1, 2, 0.2, fedsample.PolicyConfig("at"))
