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
train_calls = []
train_clients = fedsample.engine.train_clients

def counted_train_clients(spec, start, clients, seeds, *args, **kwargs):
    reports = train_clients(spec, start, clients, seeds, *args, **kwargs)
    # Clients of one size step in lockstep: one gradient call per step of
    # each size group.
    group_steps = {len(y): rep.steps_taken for (_, y), rep in zip(clients, reports)}
    ids = [next(k for k, c in enumerate(ds.clients) if c is data) for data in clients]
    train_calls.append([ids, sum(group_steps.values())])
    return reports

fedsample.engine.train_clients = counted_train_clients
ds = synth_blobs(n_classes=4, dim=6, n_clients=10, samples_per_client=12,
                 shards_per_client=2, seed=0)
model = ModelSpec("mlp1", input_dim=6, n_classes=4, hidden_dim=4)
cfg = RoundConfig(n_clients=10, client_fraction=0.5, epochs=3, batch_size=2, eta=0.1,
                  policy=PolicyConfig("aou"), nack_estimate_mode="ou_decode", track="all")
reports, _ = fedsample.engine.run_experiment(model, cfg, ds, rounds=5)
summary = t.summary()
calls = lambda name: summary["spans"].get(name, [0])[0]

# Two equal-size clients, the second of which diverges (its features are
# scaled by 1e200): the lockstep group still makes one traced gradient call
# per step, the diverging row leaving it before the step it would fail.
lr = ModelSpec("logistic", input_dim=6, n_classes=4)
x, y = ds.clients[0]
before = calls("models.loss_and_grad")
group = fedsample.models.train_clients(
    lr, fedsample.init_params(lr, 0), [(x, y), (x * 1e200, y)], [1, 2],
    epochs=2, batch_size=5, eta=1.0)
after = t.summary()["spans"]["models.loss_and_grad"][0]
print(json.dumps({
    "diverging_group": {"grad_calls": after - before, "steps": group[0].steps_taken,
                        "outcomes": [type(r).__name__ for r in group],
                        "error": str(group[1])},
    "rounds": len(reports),
    "params": model.param_count,
    "nacks": sum(len(r.selected) - len(r.senders) for r in reports),
    "selected": sum(len(r.selected) for r in reports),
    "selected_per_round": [list(r.selected) for r in reports],
    "train_calls": train_calls,
    "fit_calls": calls("ou.fit_ou_ls_columns"),
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
    # One traced gradient call per lockstep step of each group of equal-size
    # clients, and one train_clients call per round that trains every
    # selected client once.
    clients_per_call = [ids for ids, _ in got["train_calls"]]
    assert clients_per_call == got["selected_per_round"]
    assert sum(map(len, clients_per_call)) == got["selected"] == counters["engine.selected"]
    assert got["grad_calls"] == sum(steps for _, steps in got["train_calls"]) > 0
    div = got["diverging_group"]
    assert div["outcomes"] == ["LocalTrainReport", "NumericError"]
    assert div["error"] == "non-finite parameters"
    assert div["grad_calls"] == div["steps"] == 2 * 3
