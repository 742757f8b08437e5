"""The benchmark's tracer (bench/tracer.py) still fits the engine it wraps.

The tracer replaces module globals of ``fedsample.engine`` with recording
wrappers, so it runs in a subprocess: the wrappers must not leak into the
other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import fedsample, tracer
from fedsample import CommLedger, ModelSpec, PolicyConfig, RoundConfig, synth_blobs

t = tracer.Tracer()
tracer.install(t, fedsample)
steps = []
traced_train = fedsample.engine.local_train

def local_train(*args, **kwargs):
    report = traced_train(*args, **kwargs)
    steps.append(report.steps_taken)
    return report

fedsample.engine.local_train = local_train
ds = synth_blobs(n_classes=4, dim=6, n_clients=10, samples_per_client=12,
                 shards_per_client=2, seed=0)
model = ModelSpec("mlp1", input_dim=6, n_classes=4, hidden_dim=4)
cfg = RoundConfig(n_clients=10, client_fraction=0.5, epochs=3, batch_size=2, eta=0.1,
                  policy=PolicyConfig("aou"), nack_estimate_mode="ou_decode", track="all")
reports, _ = fedsample.engine.run_experiment(model, cfg, ds, rounds=5)
summary = t.summary()
calls = lambda name: summary["spans"].get(name, [0])[0]
print(json.dumps({
    "rounds": len(reports),
    "params": model.param_count,
    "nacks": sum(len(r.selected) - len(r.senders) for r in reports),
    "selected": sum(len(r.selected) for r in reports),
    "steps": sum(steps),
    "fit_calls": calls("ou.fit_ou_ls_columns"),
    "train_calls": calls("models.local_train"),
    "grad_calls": calls("models.loss_and_grad"),
    "counters": summary["counters"],
}))
"""


def test_tracer_wraps_the_ou_decode_path():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    got = json.loads(out.stdout)
    counters = got["counters"]
    assert got["rounds"] == counters["engine.rounds"] == 5
    assert got["nacks"] == counters["engine.nacks"] > 0
    assert 1 <= counters["ou.decode_calls"] <= got["rounds"]
    assert counters["ou.columns_fitted"] == got["params"] * got["fit_calls"]
    # The per-layer models metrics assume one traced gradient call per SGD
    # step and one traced local_train call per selected client.
    assert got["grad_calls"] == got["steps"] > 0
    assert got["train_calls"] == got["selected"] == counters["engine.selected"]
