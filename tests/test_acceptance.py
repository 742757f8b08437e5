"""Release gate: eight end-to-end checks, one printed verdict line each.

Each test prints "[gate k/8] PASS/FAIL: ..." directly to the terminal
(bypassing capture) so a full run always shows the eight verdicts.
Tolerances here are contractual; do not loosen them to make a run green.
"""

import csv
import json
import time

import numpy as np
import pytest

from helpers import fd_check
from test_engine import reference_fedavg

from fedsample.cli import main as cli_main
from fedsample.data import synth_blobs
from fedsample.engine import (
    CommLedger,
    RoundConfig,
    ServerState,
    iter_rounds,
    run_experiment,
)
from fedsample.models import ModelSpec, init_params
from fedsample.ou import fit_ou_ls, simulate_ou
from fedsample.policies import (
    PolicyConfig,
    compute_adaptive_threshold,
    local_decide,
)


def verdict(capsys, num, ok, detail):
    line = f"[gate {num}/8] {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


# ------------------------------------------------- 1. OU round-trip recovery

def test_gate_1_ou_roundtrip(capsys):
    # dt well inside the identifiable regime for the slowest cell (lam=0.5)
    dt, steps, mu = 0.1, 100_000, 0.5
    t0 = time.time()
    cells = []
    for lam in (0.5, 1.0, 2.0):
        for sigma in (0.1, 0.5):
            hits = 0
            for seed in range(10):
                traj = simulate_ou(lam, mu, sigma, theta0=0.0, dt=dt, steps=steps, seed=seed)
                est = fit_ou_ls(traj, dt)
                ok = (
                    not est.flagged
                    and abs(est.lam - lam) <= 0.10 * lam
                    and abs(est.mu - mu) <= 0.05
                    and abs(est.sigma - sigma) <= 0.10 * sigma
                )
                hits += bool(ok)
            cells.append((lam, sigma, hits))
    elapsed = time.time() - t0
    worst = min(h for _, _, h in cells)
    ok = worst >= 9 and elapsed < 10.0
    verdict(
        capsys, 1, ok,
        f"ou round-trip {[h for _, _, h in cells]}/10 per cell "
        f"(need >=9), {elapsed:.2f}s (need <10s)",
    )


# --------------------------------------------------- 2. gradient correctness

def test_gate_2_gradient_oracle(capsys):
    specs = [
        ModelSpec("logistic", input_dim=6, n_classes=4),
        ModelSpec("mlp1", input_dim=6, hidden_dim=5, n_classes=4),
        ModelSpec("quadratic-diagnostic", input_dim=6),
    ]
    t0 = time.time()
    worst = 0.0
    for kind_idx, spec in enumerate(specs):
        for i in range(100):
            rng = np.random.default_rng((kind_idx, i))
            params = rng.standard_normal(spec.param_count) * 0.5
            x = rng.standard_normal((3, 6))
            y = rng.integers(0, 4, size=3)
            worst = max(worst, fd_check(spec, params, (x, y)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    verdict(
        capsys, 2, ok,
        f"300 finite-difference checks, worst rel err {worst:.3e} "
        f"(need <=1e-6), {elapsed:.1f}s (need <30s)",
    )


# ---------------------------------------- 3. baseline protocol equivalence

def test_gate_3_fedavg_bitwise(capsys):
    t0 = time.time()
    ds = synth_blobs(
        n_classes=5, dim=10, n_clients=50,
        samples_per_client=20, shards_per_client=2, seed=3,
    )
    model = ModelSpec("logistic", input_dim=10, n_classes=5)
    cfg = RoundConfig(
        n_clients=50, client_fraction=0.2, epochs=2, batch_size=10,
        eta=0.1, policy=PolicyConfig("full"),
        nack_estimate_mode="carry_forward", seed=5, track=None,
    )
    rounds = 20
    ref = reference_fedavg(
        model, ds, cfg.n_clients, cfg.client_fraction,
        cfg.epochs, cfg.batch_size, cfg.eta, cfg.seed, rounds,
    )
    state = ServerState(global_params=init_params(model, cfg.seed))
    ledger = CommLedger()
    identical = 0
    for t, _ in enumerate(iter_rounds(model, cfg, ds, rounds, ledger, state=state)):
        identical += np.array_equal(state.global_params, ref[t])
    elapsed = time.time() - t0
    ok = identical == rounds and elapsed < 60.0
    verdict(
        capsys, 3, ok,
        f"engine vs independent reference bitwise {identical}/{rounds} rounds, "
        f"{elapsed:.1f}s (need <60s)",
    )


# ------------------------------------------------------- 4. ledger exactness

def test_gate_4_ledger_exactness(capsys):
    # Scripted run, frozen by hand: P=15 so ACK costs 4*15+8=68, NACK 8, m=3.
    ds = synth_blobs(
        n_classes=3, dim=4, n_clients=10,
        samples_per_client=20, shards_per_client=2, seed=7,
    )
    model = ModelSpec("logistic", input_dim=4, n_classes=3)
    cfg = RoundConfig(
        n_clients=10, client_fraction=0.3, epochs=1, batch_size=5,
        eta=0.1, policy=PolicyConfig("ft", gamma=0.5),
        nack_estimate_mode="carry_forward", seed=11, track=None,
    )
    reports, ledger = run_experiment(model, cfg, ds, 5)

    senders = [len(r.senders) for r in reports]
    uplink = [r.uplink_bytes for r in reports]
    hand_senders = [3, 2, 1, 1, 0]
    hand_uplink = [204, 144, 84, 84, 24]  # s*68 + (3-s)*8
    formula = [s * 68 + (3 - s) * 8 for s in senders]
    ok = (
        senders == hand_senders
        and uplink == hand_uplink
        and uplink == formula
        and all(r.downlink_bytes == 180 for r in reports)  # 3 * 4P
        and ledger.total_uplink == sum(hand_uplink)
    )
    verdict(
        capsys, 4, ok,
        f"scripted ft run senders={senders} uplink={uplink} "
        f"== hand computation {hand_uplink}",
    )


# ------------------------------------- 5/6. directional comparison at scale

SEEDS = (0, 1, 2, 3, 4)
TUNED_GAMMA = 0.6  # chosen by one sweep over {0.05..1.2} on seed 0
ETA = 0.1


def _comparison_run(policy, seed, dataset):
    cfg = RoundConfig(
        n_clients=100, client_fraction=0.2, epochs=2, batch_size=10,
        eta=ETA, policy=policy, nack_estimate_mode="carry_forward",
        seed=seed, track=None,
    )
    model = ModelSpec("mlp1", input_dim=20, hidden_dim=32, n_classes=10)
    reports, ledger = run_experiment(model, cfg, dataset, 100)
    return {
        "final_acc": reports[-1].test_acc,
        "uplink": ledger.total_uplink,
        "senders": [len(r.senders) for r in reports],
    }


@pytest.fixture(scope="module")
def comparison():
    t0 = time.time()
    datasets = {
        s: synth_blobs(
            n_classes=10, dim=20, n_clients=100,
            samples_per_client=50, shards_per_client=2, seed=s,
        )
        for s in SEEDS
    }
    runs = {}
    for name, pol in (
        ("full", PolicyConfig("full")),
        ("at", PolicyConfig("at")),
        ("ft", PolicyConfig("ft", gamma=TUNED_GAMMA)),
    ):
        runs[name] = [_comparison_run(pol, s, datasets[s]) for s in SEEDS]
    # Random participation matched to ft's observed mean sender fraction.
    participation = float(
        np.mean([np.mean(r["senders"]) for r in runs["ft"]])
    ) / 20.0
    runs["random"] = [
        _comparison_run(PolicyConfig("random", q=1.0 - participation), s, datasets[s])
        for s in SEEDS
    ]
    return {"runs": runs, "participation": participation, "elapsed": time.time() - t0}


def test_gate_5_directional_comparison(capsys, comparison):
    runs = comparison["runs"]
    mean = lambda name, key: float(np.mean([r[key] for r in runs[name]]))
    acc_full, acc_at = mean("full", "final_acc"), mean("at", "final_acc")
    acc_rand = mean("random", "final_acc")
    up_full, up_at, up_ft = mean("full", "uplink"), mean("at", "uplink"), mean("ft", "uplink")

    a_ok = abs(acc_at - acc_full) <= 0.015 and up_at <= 0.95 * up_full
    b_ok = up_ft <= 0.70 * up_full
    c_ok = acc_rand <= acc_at
    t_ok = comparison["elapsed"] < 600.0
    ok = a_ok and b_ok and c_ok and t_ok
    verdict(
        capsys, 5, ok,
        f"(a) |at-full|={abs(acc_at - acc_full) * 100:.2f}pts<=1.5 "
        f"at/full uplink={up_at / up_full:.3f}<=0.95 [{a_ok}]; "
        f"(b) ft/full uplink={up_ft / up_full:.3f}<=0.70 [{b_ok}]; "
        f"(c) random {acc_rand:.4f} <= at {acc_at:.4f} [{c_ok}]; "
        f"{comparison['elapsed']:.0f}s<600s [{t_ok}]",
    )


def test_gate_6_ft_sender_decay(capsys, comparison):
    pairs = [
        (float(np.mean(r["senders"][:10])), float(np.mean(r["senders"][-10:])))
        for r in comparison["runs"]["ft"]
    ]
    ok = all(last < first for first, last in pairs)
    verdict(
        capsys, 6, ok,
        "ft mean senders first10 -> last10 per seed: "
        + ", ".join(f"{f:.1f}->{l:.1f}" for f, l in pairs),
    )


# ------------------------------------------------------ 7. policy invariants

def test_gate_7_policy_invariants(capsys):
    rng = np.random.default_rng(20260819)
    at = PolicyConfig("at")

    def at_set(norms, gamma):
        return {
            i
            for i, v in enumerate(norms)
            if local_decide(at, float(v), broadcast_threshold=gamma)
        }

    # Scale covariance: power-of-two factors make c*x representable, so
    # "exactly" is checkable without tolerance; ties resolve identically.
    cov_bad = set_bad = 0
    for case in range(1000):
        n = int(rng.integers(1, 50))
        norms = rng.uniform(0.0, 10.0, size=n)
        if n > 3 and case % 3 == 0:
            norms[1] = norms[0]  # exercise tie handling
        c = 2.0 ** int(rng.integers(-30, 31))
        g, gc = compute_adaptive_threshold(norms), compute_adaptive_threshold(norms * c)
        cov_bad += gc != c * g
        set_bad += at_set(norms, g) != at_set(norms * c, gc)

    # Monotonicity: a sender's scalar being exceeded forces sending.
    mono_bad = 0
    for case in range(1000):
        n = int(rng.integers(2, 40))
        norms = rng.uniform(0.0, 5.0, size=n)
        gamma = (
            compute_adaptive_threshold(norms)
            if case % 2
            else float(rng.uniform(0.0, 5.0))
        )
        senders = at_set(norms, gamma)
        for i in senders:
            if any(norms[j] > norms[i] and j not in senders for j in range(n)):
                mono_bad += 1
                break

    # Fixed-threshold nesting: raising gamma never adds a sender.
    incl_bad = 0
    for case in range(1000):
        n = int(rng.integers(1, 40))
        norms = rng.uniform(0.0, 5.0, size=n)
        g1, g2 = sorted(rng.uniform(0.0, 5.0, size=2))
        lo = {i for i, v in enumerate(norms) if float(v) > g1}
        hi = {i for i, v in enumerate(norms) if float(v) > g2}
        incl_bad += not hi.issubset(lo)

    ok = cov_bad == set_bad == mono_bad == incl_bad == 0
    verdict(
        capsys, 7, ok,
        f"1000-case properties: covariance {cov_bad} bad, sender-set "
        f"{set_bad} bad, monotonicity {mono_bad} bad, nesting {incl_bad} bad",
    )


# ----------------------------------------------------- 8. ou-demo closed form

def test_gate_8_ou_demo_closed_form(capsys, tmp_path):
    worst = 0.0
    for eta in (0.1, 0.37):
        cfg = {
            "dataset": {
                "kind": "synth_blobs", "n_classes": 3, "dim": 5,
                "samples_per_client": 12, "shards_per_client": 2,
            },
            "model": {"kind": "quadratic-diagnostic"},
            "K": 8, "C": 0.5, "E": 3, "B": 24,
            "eta": eta, "rounds": 1,
            "policy": {"kind": "full"}, "seed": 0,
        }
        path = tmp_path / f"demo_{eta}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / f"out_{eta}"
        code = cli_main(
            ["ou-demo", "--config", str(path), "--out", str(out), "--quiet"]
        )
        assert code == 0
        with open(out / "fits.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row in rows:
            worst = max(worst, abs(float(row["a"]) - (1.0 - eta)))
    ok = worst < 5e-7
    verdict(
        capsys, 8, ok,
        f"ou-demo fitted slope vs 1-eta, worst |diff|={worst:.2e} "
        f"(need <5e-7, 6 decimal places)",
    )
