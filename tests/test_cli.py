"""Tests for config parsing and the command-line front end."""

import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fedsample.cli import main
from fedsample.config import load_config, parse_config
from fedsample.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]

BASE_CONFIG = {
    "dataset": {
        "kind": "synth_blobs",
        "n_classes": 3,
        "dim": 5,
        "samples_per_client": 12,
        "shards_per_client": 2,
    },
    "model": {"kind": "logistic"},
    "K": 8,
    "C": 0.5,
    "E": 1,
    "B": 4,
    "eta": 0.1,
    "rounds": 3,
    "policy": {"kind": "full"},
    "seed": 0,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


# -------------------------------------------------------------------- config

def test_parse_minimal_config():
    settings = parse_config(json.loads(json.dumps(BASE_CONFIG)))
    assert settings.round.n_clients == 8
    assert settings.round.policy.kind == "full"
    assert settings.round.nack_estimate_mode == "carry_forward"
    assert settings.round.track == "auto"


def test_unknown_keys_rejected():
    for patch in (
        {"momentum": 0.9},
        {"policy": {"kind": "full", "warmup": 1}},
        {"model": {"kind": "logistic", "depth": 2}},
        {"dataset": {**BASE_CONFIG["dataset"], "noise": 0.1}},
    ):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(patch)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)


def test_config_field_errors_name_the_field():
    cases = [
        ({"C": 1.5}, "C"),
        ({"C": "half"}, "C"),
        ({"B": 0}, "B"),
        ({"rounds": 0}, "rounds"),
        ({"eta": -0.1}, "eta"),
        ({"policy": {"kind": "ft"}}, "policy"),
        ({"policy": {"kind": "warp"}}, "policy.kind"),
        ({"nack_estimate_mode": "drop"}, "nack_estimate_mode"),
        ({"model": {"kind": "mlp1"}}, "model"),
        ({"K": None}, "K"),
        ({"E": -1}, "E"),
        ({"K": 0}, "K"),
        ({"track_coordinates": 0}, "track_coordinates"),
        ({"track_coordinates": "some"}, "track_coordinates"),
        ({"track_coordinates": True}, "track_coordinates"),
        ({"dataset": {"kind": ["csv"], "path": "d.csv", "n_classes": 2}}, "dataset.kind"),
        ({"dataset": {"kind": {"csv": 1}, "path": "d.csv", "n_classes": 2}}, "dataset.kind"),
        # Python's json reads NaN and Infinity.
        (json.loads('{"eta": NaN}'), "eta: must be finite"),
        (json.loads('{"C": Infinity}'), "C: must be finite"),
        ({"dataset": {**BASE_CONFIG["dataset"], "seed": 1.5}}, "dataset.seed"),
        ({"model": {"kind": "cnn"}}, "model.kind"),
        ({"model": {"kind": "logistic", "hidden_dim": 8}}, "model.hidden_dim"),
    ]
    for patch, field in cases:
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(patch)
        with pytest.raises(ConfigError, match=field):
            parse_config(doc)


def test_missing_required_key():
    doc = json.loads(json.dumps(BASE_CONFIG))
    del doc["rounds"]
    with pytest.raises(ConfigError, match="rounds"):
        parse_config(doc)


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "K": 5,\n "C": \n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 4"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------- run

def test_run_writes_csv_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    rows = read_csv(out / "metrics.csv")
    assert rows[0] == "round,policy,selected,senders,threshold,uplink_bytes,cum_uplink_bytes,downlink_bytes,test_acc,test_loss,seed".split(",")
    assert len(rows) == 1 + 3
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(r[1] == "full" for r in rows[1:])

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["status"] == "ok"
    assert len(manifest["run_id"]) == 12


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_id_stable_for_identical_config_bytes(tmp_path):
    cfg = write_config(tmp_path)
    ids = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["run", "--config", cfg, "--out", str(out), "--quiet"])
        ids.append(json.loads((out / "manifest.json").read_text())["run_id"])
    assert ids[0] == ids[1]

    out = tmp_path / "c"
    main(["run", "--config", cfg, "--out", str(out), "--seed-override", "7", "--quiet"])
    assert json.loads((out / "manifest.json").read_text())["run_id"] != ids[0]


def test_seed_override_changes_rows(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out_a), "--quiet"])
    main(["run", "--config", cfg, "--out", str(out_b), "--seed-override", "9", "--quiet"])
    rows_a = read_csv(out_a / "metrics.csv")
    rows_b = read_csv(out_b / "metrics.csv")
    assert rows_a != rows_b
    assert all(r[-1] == "9" for r in rows_b[1:])


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"momentum": 0.9})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    cfg2 = write_config(tmp_path, {"K": 5}, name="mismatch.json")
    # synth dataset adopts K, so force a CSV mismatch instead
    data_cfg = {
        "kind": "csv", "path": str(tmp_path / "nope.csv"), "n_classes": 3,
    }
    cfg3 = write_config(tmp_path, {"dataset": data_cfg}, name="csvless.json")
    assert main(["run", "--config", cfg3, "--out", str(tmp_path / "o3"), "--quiet"]) == 2
    # The output directory exists by then, so the failure is recorded there.
    manifest = json.loads((tmp_path / "o3" / "manifest.json").read_text())
    assert manifest["status"].startswith("error: dataset")
    # Valid on its own, rejected by the engine before round 0: a band
    # policy whose clients take a single local step.
    one_step = {"policy": {"kind": "ou", "r": 0.5}, "E": 1, "B": 10,
                "dataset": {**BASE_CONFIG["dataset"], "samples_per_client": 10}}
    cfg4 = write_config(tmp_path, one_step, name="one_step.json")
    capsys.readouterr()
    assert main(["run", "--config", cfg4, "--out", str(tmp_path / "o4"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: band policies")
    manifest = json.loads((tmp_path / "o4" / "manifest.json").read_text())
    assert manifest["status"].startswith("error: band policies")


UNREADABLE_CONFIGS = {
    "not_utf8": b'{"K": 5, "policy": "\xe9"}',
    "nested_too_deeply": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("case", list(UNREADABLE_CONFIGS))
def test_unreadable_config_exits_2_without_traceback(tmp_path, case):
    cfg = tmp_path / f"{case}.json"
    cfg.write_bytes(UNREADABLE_CONFIGS[case])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "fedsample.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"config error: {cfg}: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_config_with_a_byte_order_mark_runs(tmp_path):
    plain = Path(write_config(tmp_path))
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = {cfg: tmp_path / f"out_{cfg.stem}" for cfg in (plain, bom)}
    for cfg, out in outs.items():
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (outs[bom] / "metrics.csv").read_bytes() == (outs[plain] / "metrics.csv").read_bytes()
    # run_id hashes the raw config bytes, the mark included.
    run_ids = {json.loads((out / "manifest.json").read_text())["run_id"] for out in outs.values()}
    assert len(run_ids) == 2


# Each blowup's last metrics.csv row and the sha256 of the whole file: the
# TRUNCATED marker carries the text of the NumericError the failing round
# raised, which names the lowest-id failing client and the kind of failure.
@pytest.mark.parametrize(
    "overrides, min_completed, last_row, csv_sha256",
    [
        # The parameters themselves overflow in round 1.
        ({"model": {"kind": "quadratic-diagnostic"}, "eta": 1e18, "E": 3,
          "rounds": 10}, 1,
         "TRUNCATED,parameters diverged during local training,,,,,,,,,",
         "2389b769dd38a23f49b769da5e62bdead9dbef7468da9c2eb9604231de244f9d"),
        # Finite parameters whose update norm overflows in round 0, the
        # input of the adaptive threshold.
        ({"model": {"kind": "quadratic-diagnostic"}, "K": 4, "C": 1, "E": 40,
          "B": 1, "eta": 5.0, "policy": {"kind": "at"}, "rounds": 30}, 0,
         "TRUNCATED,update norm of client 0 non-finite at round 0 (policy at),,,,,,,,,",
         "108e5ad2e9e61fe0491e5ad524b3f669e469d7a6456b5a56ad9e8cb318672142"),
        # The same run under band policies: finite trajectories whose AR(1)
        # fit overflows, on the clients and in the server's decode fit.
        ({"model": {"kind": "quadratic-diagnostic"}, "K": 4, "C": 1, "E": 40,
          "B": 1, "eta": 5.0, "policy": {"kind": "ou", "r": 0.5}, "rounds": 30}, 0,
         "TRUNCATED,OU fit of client 0 at round 0 (policy ou_r0.5) non-finite: "
         "lam and mu must be finite,,,,,,,,,",
         "29f29d8358319c8f75b802363120bb9b2dbed452fa138e4d3e3d211dd31c63c3"),
        ({"model": {"kind": "quadratic-diagnostic"}, "K": 4, "C": 1, "E": 40,
          "B": 1, "eta": 5.0, "policy": {"kind": "aou"},
          "nack_estimate_mode": "ou_decode", "rounds": 30}, 0,
         "TRUNCATED,OU fit of client 0 at round 0 (policy aou) non-finite: "
         "lam and mu must be finite,,,,,,,,,",
         "3304e2a84afbb0e1e5e01b8e08d05838cc81b4f74e3e78b80dc89567124aabcd"),
    ],
    ids=["params_overflow", "update_norm_overflow", "band_fit_overflow_ou",
         "band_fit_overflow_aou_ou_decode"],
)
def test_numeric_blowup_truncates_and_exits_3(tmp_path, overrides, min_completed,
                                              last_row, csv_sha256):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    rows = read_csv(out / "metrics.csv")
    assert rows[-1][0] == "TRUNCATED"
    assert len(rows[-1]) == len(rows[0])
    assert min_completed <= len(rows) - 2 < overrides["rounds"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "truncated"
    data = (out / "metrics.csv").read_bytes()
    assert data.decode().splitlines()[-1] == last_row
    assert hashlib.sha256(data).hexdigest() == csv_sha256


# Values that reach every outcome: E=0 or B=12 leave band policies fewer
# than 2 local steps (a config error), and eta=1e300 diverges (truncation).
EXIT_GRID = {
    "model": [{"kind": "logistic"}, {"kind": "mlp1", "hidden_dim": 3},
              {"kind": "quadratic-diagnostic"}],
    "eta": [0.0, 0.1, 5.0, 1e300],
    "E": [0, 1, 3],
    "B": [1, 4, 12],
    "policy": [{"kind": "full"}, {"kind": "random", "q": 0.5},
               {"kind": "ft", "gamma": 0.5}, {"kind": "at"},
               {"kind": "ou", "r": 0.5}, {"kind": "aou"}],
    "nack_estimate_mode": ["carry_forward", "ou_decode"],
}


def run_outcome(cfg, out):
    """(exit code, manifest status, metrics.csv bytes or None) of one run."""
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    status = json.loads((out / "manifest.json").read_text())["status"]
    csv_path = out / "metrics.csv"
    return code, status, csv_path.read_bytes() if csv_path.exists() else None


# sha256 over every grid cell's (exit code, manifest status, sha256 of
# metrics.csv or None), recorded with clients trained one at a time.
EXIT_GRID_DIGEST = "83354feae5ccbf7b23bdb8f84c62ce1f913680abbd44868c03921b1b82290e95"


def test_run_exit_contract_over_seeded_grid(tmp_path):
    """Every cell of a seeded sample of the grid ends in exactly one of the
    documented outcomes, never in an exception, and reruns byte for byte."""
    rng = random.Random(4)
    rounds = 4
    outcomes = set()
    pinned = []
    for i in range(48):
        overrides = {key: rng.choice(values) for key, values in EXIT_GRID.items()}
        overrides["rounds"] = rounds
        cfg = write_config(tmp_path, overrides, name=f"cell{i}.json")
        try:
            first = run_outcome(cfg, tmp_path / f"cell{i}a")
            again = run_outcome(cfg, tmp_path / f"cell{i}b")
        except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
            pytest.fail(f"{overrides}: {exc!r}")
        assert first == again, overrides
        code, status, data = first
        pinned.append((code, status, None if data is None else hashlib.sha256(data).hexdigest()))
        rows = None if data is None else list(csv.reader(data.decode().splitlines()))
        if code == 0:
            assert status == "ok" and len(rows) == rounds + 1, overrides
        elif code == 2:
            assert status.startswith("error: "), overrides
        elif code == 3:
            assert status == "truncated" and rows[-1][0] == "TRUNCATED", overrides
        else:
            pytest.fail(f"{overrides}: exit {code}")
        outcomes.add(code)
    assert outcomes == {0, 2, 3}
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == EXIT_GRID_DIGEST


# --------------------------------------------------------------------- sweep

def test_sweep_grid_csvs_and_summary(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", cfg, "--out", str(out),
        "--gammas", "0.2,0.5,0.8", "--quiet",
    ])
    assert code == 0
    files = sorted(os.listdir(out / "runs"))
    assert files == ["ft_g0.2_s0.csv", "ft_g0.5_s0.csv", "ft_g0.8_s0.csv"]

    rows = read_csv(out / "summary.csv")
    assert rows[0] == "policy,seed,rounds_completed,final_acc,final_loss,total_uplink_bytes,total_downlink_bytes,acc_per_byte,status".split(",")
    assert len(rows) == 4
    for row in rows[1:]:
        run_rows = read_csv(out / "runs" / f"{row[0]}_s{row[1]}.csv")
        uplinks = [int(r[5]) for r in run_rows[1:]]
        assert int(row[5]) == sum(uplinks)                      # exact totals
        # summary floats carry 6 significant digits
        assert float(row[7]) == pytest.approx(
            float(row[3]) / int(row[5]), rel=1e-5
        )
        assert row[8] == "ok"


def test_sweep_policy_tokens_and_inclusion(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep2"
    code = main([
        "sweep", "--config", cfg, "--out", str(out),
        "--policies", "full,ft:0.3,at", "--seeds", "0,1", "--quiet",
    ])
    assert code == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 1 + 3 * 2
    by_cell = {(r[0], r[1]): r for r in rows[1:]}
    for seed in ("0", "1"):
        full_up = int(by_cell[("full", seed)][5])
        ft_up = int(by_cell[("ft_g0.3", seed)][5])
        assert ft_up <= full_up


def test_sweep_empty_grid_rejected(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 2
    # A --seeds list that names no seed is empty too, not the config's seed.
    for i, seeds in enumerate([",", " "]):
        out = tmp_path / f"seeds{i}"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--policies", "full",
                     "--seeds", seeds, "--quiet"])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status"].startswith("error: sweep:")
        assert not (out / "summary.csv").exists()


def test_sweep_continues_past_failed_cell(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "quadratic-diagnostic"},
            "eta": 1e18,
            "E": 3,
            "rounds": 6,
        },
    )
    out = tmp_path / "sweep3"
    code = main([
        "sweep", "--config", cfg, "--out", str(out),
        "--policies", "full", "--quiet",
    ])
    assert code == 0
    rows = read_csv(out / "summary.csv")
    assert rows[1][8] == "truncated"
    # The summary's totals cover exactly the rounds before the truncation.
    completed = read_csv(out / "runs" / "full_s0.csv")[1:-1]
    assert completed and completed[-1][0] == str(len(completed) - 1)
    assert rows[1][2] == str(len(completed))
    assert rows[1][5] == completed[-1][6]
    assert int(rows[1][6]) == sum(int(r[7]) for r in completed)


FINGERPRINT_CONFIG = {
    "model": {"kind": "mlp1", "hidden_dim": 4},
    "rounds": 8,
    "nack_estimate_mode": "ou_decode",
}

# sha256 of every CSV an ou_decode sweep writes. Any change to a sender set,
# a byte count, or an accuracy or loss at the 6 significant digits the CSVs
# keep shows up here.
SWEEP_FINGERPRINT = {
    "summary.csv":
        "0a3c10bd8069a7e8480efa9adafa7a18bdfc15465cd048cddcc1145bb09469a9",
    "runs/aou_s0.csv":
        "65cd31c1fcff75ed3e81f503829893c165682f21cee31becea38f75eecdebd02",
    "runs/aou_s1.csv":
        "55955b33150001dda0faab2a4f5bf452c4849dfb3d997a921fd4a7982242f5d8",
    "runs/at_s0.csv":
        "0527284f22fe224241e5a49b9492863ee3a1d89d267d97f6f030fae87630e941",
    "runs/at_s1.csv":
        "a9c8f42721149a48755955ac9b3f10c3b07776c2f611b3e11dd32d694c4b13d3",
    "runs/ft_g0.25_s0.csv":
        "0ec45e22d0222c0231625b122d3f3f6d4ad8d64da9a1f4f0ab367138316fbc7c",
    "runs/ft_g0.25_s1.csv":
        "0871218c9b89a71c4653a908cfd7c2795799b8d07c80e7681582d6bbecc3f33d",
    "runs/full_s0.csv":
        "386f586cf3c8ac03c099b3fc3a3a72c2280ff7e9cc193f5873af0fb67cf22c38",
    "runs/full_s1.csv":
        "f26c82799fbac3b6da5dfaf42e3713050ebcc46b7803a0ac99878b5fbb9c0699",
}


def sweep_fingerprint(out):
    paths = ["summary.csv"] + sorted(
        os.path.join("runs", name) for name in os.listdir(out / "runs")
    )
    return {p: hashlib.sha256((out / p).read_bytes()).hexdigest() for p in paths}


def test_sweep_output_fingerprint(tmp_path):
    cfg = write_config(tmp_path, FINGERPRINT_CONFIG)
    out = tmp_path / "fp"
    assert main([
        "sweep", "--config", cfg, "--out", str(out),
        "--policies", "full,ft:0.25,at,aou", "--seeds", "0,1", "--quiet",
    ]) == 0
    assert sweep_fingerprint(out) == SWEEP_FINGERPRINT


def test_sweep_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {**FINGERPRINT_CONFIG, "rounds": 4})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--policies", "full,ft:0.25,aou", "--seeds", "0,3", "--quiet"]) == 0
        files = ["summary.csv"] + [f"runs/{f}" for f in sorted(os.listdir(out / "runs"))]
        outs.append({f: (out / f).read_bytes() for f in files})
    assert len(outs[0]) == 1 + 3 * 2
    assert outs[0] == outs[1]


def test_sweep_bad_policy_tokens_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for token in ("ft", "full:1", "warp:1", "ft:x"):
        out = tmp_path / token.replace(":", "_")
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--policies", token, "--quiet"]) == 2
    # --gammas goes through the same token parser as --policies.
    for i, (grid, message) in enumerate([
        ("--gammas=-1", "policy grid: gamma must be >= 0"),
        ("--gammas=nan", "policy grid: gamma must be >= 0"),
        ("--gammas=x", "--gammas: expected comma-separated numbers"),
        ("--policies=ft:0.5,ft:0.50", "sweep: duplicate grid cells"),
    ]):
        capsys.readouterr()
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / f"grid{i}"), grid,
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"config error: {message}"), (grid, err)


# ------------------------------------------------------------------- ou-demo

def test_ou_demo_quadratic_closed_form(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "quadratic-diagnostic"},
            "eta": 0.1,
            "E": 2,
            "B": 96,  # full batch: 8 clients x 12 samples pooled
            "rounds": 1,
        },
    )
    out = tmp_path / "demo"
    assert main(["ou-demo", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    rows = read_csv(out / "fits.csv")
    assert rows[0][:2] == ["coord", "a"]
    assert len(rows) == 1 + 5  # one per parameter coordinate
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(0.9, abs=1e-9)
        assert row[7] == "ok"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["fraction_a_in_unit_interval"] == 1.0
    assert summary["n_coordinates"] == 5
    assert (out / "trajectories.csv").exists()
    assert (out / "increments.csv").exists()


def test_ou_demo_zero_eta_all_degenerate(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "quadratic-diagnostic"}, "eta": 0.0, "E": 2, "B": 96},
    )
    out = tmp_path / "demo0"
    assert main(["ou-demo", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fraction_a_in_unit_interval"] == 0.0
    assert summary["degenerate"] == summary["n_coordinates"]


def test_ou_demo_too_few_steps_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "quadratic-diagnostic"}, "E": 1, "B": 96},
    )
    assert main(["ou-demo", "--config", cfg, "--out", str(tmp_path / "d"), "--quiet"]) == 2


# sha256 over fits.csv, trajectories.csv, increments.csv and summary.json,
# in that order. eta 0 gives degenerate and non-reverting fits, eta 2.5
# clamped slopes (degenerate with derived lam/mu/sigma).
OU_DEMO_BYTES = {
    ("logistic", 0.0): {
        "fits.csv": "3d7e5768ec45f2d8dc32ad9c6986bb543aee553d54fc9ee41a07dd9c214d12c1",
        "trajectories.csv": "452abd88b51b547764015b88e90a06e91f97cff7654d20cfb5271712c50c8803",
        "increments.csv": "e0f3eb41db85fded1eb2863f6cf25f40e3b2c510c1d9855ea877a5b4b1221f00",
        "summary.json": "330fbcdf9a869bd98a9772003001f7cd54690747cfed8d8b77d23728f292650c",
    },
    ("logistic", 0.3): {
        "fits.csv": "b9dd2af353cdabbabcad20bd1a88ffc4d8f26d38df9dcdb34847899b9fb06f76",
        "trajectories.csv": "23d048fb7ddfa5dde667acbc8b72c6cfbadad94acad62bdbc6171f30700f822e",
        "increments.csv": "9d1083e6e856d1c1405be82b6356394f0b7fc110127496bd3b7d12ee497a5a03",
        "summary.json": "bc1955b3aec9fe932bc24933fbd46fff8fa5de296da3916de9d86f3b4f0c4808",
    },
    ("logistic", 2.5): {
        "fits.csv": "378ffef938d359ae889f7d77de6aaa24aca8d2d13121f3fda3b8d6e03b2195a6",
        "trajectories.csv": "13c3ba9545dcf4a90e8ada8d8eb0be924f5d190f1bdff8c8120fc9530ac1bff7",
        "increments.csv": "2282c75c1e34af13adce4138c35431831fbd6735c24e939319699b1b6d0346fd",
        "summary.json": "a7199828384bfe030e823f894649da443db6e1b4b8c2a8349713285c5191192c",
    },
    ("mlp1", 0.0): {
        "fits.csv": "17e6b7eef145d62e7208c92a8746e6e923d158e918ac207ce04f58ae25ba70e3",
        "trajectories.csv": "e33ef5a3e5f521bbe3f732a9f68e850133f0e4a0002f3cd6ffbbb35d61784010",
        "increments.csv": "96d8e1fc49f05a654deae0f767c61c8729ae260e2bafb953ccf371e895b23905",
        "summary.json": "7d50ef8dc1a907967fc9a716a444e19822862f38a4573f4ca5cee2c5acbfc4c8",
    },
    ("mlp1", 0.3): {
        "fits.csv": "6ae2abb6b424600ca08c6e766faf06ba9be258f4beb3387290e8d871e42393e9",
        "trajectories.csv": "824839a851114eddcbff8776d940030a8130f47a874f0bdab396a4b120df7f9a",
        "increments.csv": "10683a31e34e90b5811b6c39bef6c01425d7eb2a681a8986d8506881f7998524",
        "summary.json": "c009df865d42af73a3279105400afb6f0c1ea073dd5a00be95e398543b37e9f5",
    },
    ("mlp1", 2.5): {
        "fits.csv": "960ce05dd5793ad59876a90879f9f12955b924d54b17a68c840101834f27e4f8",
        "trajectories.csv": "9f00d7806677a80e0736cb233f217e5dbb64e9b7723b5dbfb591ff0913f51972",
        "increments.csv": "b61109c127a7d2f4e2f183840657ba78e415dff91caf7dd288ee5ce48e552434",
        "summary.json": "4d953c22fa42b564976a184c37df1c404bdda439cdbc76d973ca4cad60eb4965",
    },
    ("quadratic-diagnostic", 0.0): {
        "fits.csv": "46aad4a536ed1069dd16ef02bc978307446b9901f6e35cb7f82602ca25da1646",
        "trajectories.csv": "d0121b3fc054e671a35cb586ca8b69f0e3c042f7fb139b7ba47d810cc5f0dc55",
        "increments.csv": "5450110fb06e6fb9f300779d2a12007ddeac6b2b5112fe7912683f46bcc4af12",
        "summary.json": "95d765aaa06a894a6ec4d9847019540b9eae579f95b69d5cdbe843f8c36af657",
    },
    ("quadratic-diagnostic", 0.3): {
        "fits.csv": "9a1cf7944b44f57b9543c3a7e1fc4c7698dbe74b176b26f445b6c28012d543de",
        "trajectories.csv": "612eece51a64777041963e57080ea9a2b24e1b8a6957f8df50d587e495ac555a",
        "increments.csv": "d59c257a838babf8b6f4480ca1aecf908e1ea993202a3ceff1a7404b48509a11",
        "summary.json": "48521b44503e0002c1e55f10ddaeab7bf082608ef3fee02daa3c22970e67f770",
    },
    ("quadratic-diagnostic", 2.5): {
        "fits.csv": "a5dfc9495f0eb28ecfbd2b35c98bdc2affd21e5bb743985b87f563e0b0c8621e",
        "trajectories.csv": "5ffeb4042e7db83ad90e5de5876fc854c1eca234d061b65e7d32127756d6d6aa",
        "increments.csv": "268afe06c8a9c9d4cc0268ed92c30b1377339c17e80fdf8d6de48d0a1a1223f1",
        "summary.json": "ec27fe788ab425db63d3a4437538456d6dba7098894d8c6e9b2bd8ffa9dae4a0",
    },
}


@pytest.mark.parametrize("kind,eta", list(OU_DEMO_BYTES))
def test_ou_demo_output_bytes_are_pinned(tmp_path, kind, eta):
    model = {"kind": kind, "hidden_dim": 4} if kind == "mlp1" else {"kind": kind}
    cfg = write_config(tmp_path, {"model": model, "eta": eta})
    out = tmp_path / "demo"
    assert main(["ou-demo", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    pinned = OU_DEMO_BYTES[kind, eta]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned


def test_ou_demo_trajectory_file_shape(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "quadratic-diagnostic"}, "eta": 0.1, "E": 2, "B": 48},
    )
    out = tmp_path / "demoT"
    assert main(["ou-demo", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = read_csv(out / "trajectories.csv")
    # 5 coords x (4 steps + 1) points
    assert rows[0] == ["coord", "step", "value"]
    assert len(rows) == 1 + 5 * 5


# Columns that hold text, and the float columns written as shortest
# round-trip decimals.
TEXT_COLUMNS = {"policy", "status", "flag"}
EXACT_COLUMNS = {"trajectories.csv": {"value"}, "increments.csv": {"bin_left", "bin_right"}}

NUMERIC_CSV_CASES = {
    "run_ft": (["run"], {"policy": {"kind": "ft", "gamma": 0.5}}, 0),
    "run_truncated": (["run"], {"model": {"kind": "quadratic-diagnostic"}, "eta": 1e18,
                                "E": 3, "rounds": 10}, 3),
    "sweep": (["sweep", "--policies", "full,at,aou,random:0.5,ou:0.5,ft:0.3",
               "--seeds", "0,1"], {}, 0),
    "ou_demo_logistic": (["ou-demo"], {"eta": 0.3}, 0),
    "ou_demo_mlp1": (["ou-demo"], {"model": {"kind": "mlp1", "hidden_dim": 4}}, 0),
    "ou_demo_quadratic": (["ou-demo"], {"model": {"kind": "quadratic-diagnostic"},
                                        "eta": 0.0}, 0),
}


@pytest.mark.parametrize("case", list(NUMERIC_CSV_CASES))
def test_every_numeric_csv_field_parses_as_a_float(tmp_path, case):
    argv, overrides, code = NUMERIC_CSV_CASES[case]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, overrides)
    assert main([argv[0], "--config", cfg, "--out", str(out), "--quiet", *argv[1:]]) == code
    paths = sorted(out.rglob("*.csv"))
    assert paths
    for path in paths:
        header, *rows = read_csv(path)
        assert rows, path.name
        for row in rows:
            if row[0] == "TRUNCATED":
                continue
            for name, field in zip(header, row, strict=True):
                if name in TEXT_COLUMNS or (name == "threshold" and field == ""):
                    continue
                value = float(field)
                if name in EXACT_COLUMNS.get(path.name, ()):
                    assert repr(value) == field, (path.name, name, field)


# ------------------------------------------------------------- every command

COMMANDS = {
    "run": [],
    "sweep": ["--policies", "full"],
    "ou-demo": [],
}

CSV_HEADER = "client_id,label,f_0,f_1\n"
CSV_ROWS = "0,0,1.0,2.0\n0,1,0.5,0.25\n"

# Each builds a config the parser accepts and the data rejects.
DATASET_ERRORS = {
    "shards_over_classes": {"dataset": {**BASE_CONFIG["dataset"], "shards_per_client": 4}},
    "csv_non_numeric_feature": CSV_HEADER + CSV_ROWS + "0,2,1.0,x\n",
    "csv_label_out_of_range": CSV_HEADER + CSV_ROWS + "0,3,1.0,2.0\n",
    "csv_empty": "",
}


def csv_config(tmp_path, text, n_classes=3):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    dataset = {"kind": "csv", "path": str(path), "n_classes": n_classes}
    return write_config(tmp_path, {"dataset": dataset, "K": 1})


def command_outcome(command, cfg, out, capsys):
    """(exit code, stderr, manifest status) of one command."""
    capsys.readouterr()
    code = main([command, "--config", cfg, "--out", str(out), "--quiet", *COMMANDS[command]])
    status = json.loads((out / "manifest.json").read_text())["status"]
    return code, capsys.readouterr().err, status


@pytest.mark.parametrize("error", list(DATASET_ERRORS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_dataset_errors_exit_2_with_manifest(tmp_path, capsys, command, error):
    case = DATASET_ERRORS[error]
    cfg = csv_config(tmp_path, case) if isinstance(case, str) else write_config(tmp_path, case)
    code, err, status = command_outcome(command, cfg, tmp_path / "out", capsys)
    assert code == 2
    assert err.startswith("config error: dataset")
    assert status.startswith("error: dataset")
    if isinstance(case, str):
        assert err.startswith(f"config error: dataset: {tmp_path / 'data.csv'}: ")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_model_errors_exit_2_with_manifest(tmp_path, capsys, command):
    # A one-class CSV loads, but a classifier needs two classes.
    cfg = csv_config(tmp_path, CSV_HEADER + "0,0,1.0,2.0\n0,0,0.5,0.25\n", n_classes=1)
    out = tmp_path / "out"
    code, err, status = command_outcome(command, cfg, out, capsys)
    assert code == 2
    assert err.startswith("config error: model: logistic needs n_classes >= 2")
    assert status.startswith("error: model")
    # The sweep stops before any cell runs.
    assert not (out / "runs").exists() and not (out / "summary.csv").exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_client_count_mismatch_exits_2_with_manifest(tmp_path, capsys, command):
    # A 2-client CSV under K = 3.
    path = tmp_path / "data.csv"
    path.write_text(CSV_HEADER + "0,0,1.0,2.0\n1,1,0.5,0.25\n", encoding="utf-8")
    dataset = {"kind": "csv", "path": str(path), "n_classes": 3}
    cfg = write_config(tmp_path, {"dataset": dataset, "K": 3})
    out = tmp_path / "out"
    code, err, status = command_outcome(command, cfg, out, capsys)
    assert code == 2
    assert err.startswith("config error: dataset:")
    assert status.startswith("error: dataset:")
    assert not (out / "runs").exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_out_that_is_a_file_exits_2_without_manifest(tmp_path, capsys, command):
    # No directory, so no manifest: one config error line names --out.
    out = tmp_path / "taken"
    out.write_text("a file\n", encoding="utf-8")
    capsys.readouterr()
    code = main([command, "--config", write_config(tmp_path), "--out", str(out), "--quiet",
                 *COMMANDS[command]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: --out: cannot create directory {str(out)!r}: ")
    assert err.count("\n") == 1
    assert out.read_text(encoding="utf-8") == "a file\n"


def test_sweep_runs_path_that_is_a_file_exits_2_with_manifest(tmp_path, capsys):
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "runs").write_text("", encoding="utf-8")
    code, err, status = command_outcome("sweep", write_config(tmp_path), out, capsys)
    assert code == 2
    runs = str(out / "runs")
    assert err.startswith(f"config error: sweep: cannot create directory {runs!r}: ")
    assert err.count("\n") == 1
    assert status.startswith(f"error: sweep: cannot create directory {runs!r}: ")
    assert not (out / "summary.csv").exists()


# What each command writes besides manifest.json.
OUTPUT_FILES = {
    "run": ["metrics.csv"],
    "sweep": ["summary.csv"],
    "ou-demo": ["trajectories.csv", "increments.csv", "fits.csv", "summary.json"],
}


@pytest.mark.parametrize(
    "command, name", [(c, name) for c, names in OUTPUT_FILES.items() for name in names]
)
def test_output_file_that_cannot_be_opened_exits_2_with_manifest(tmp_path, capsys, command,
                                                                 name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code, err, status = command_outcome(command, write_config(tmp_path), out, capsys)
    path = str(out / name)
    assert code == 2
    assert err.startswith(f"config error: cannot write {path!r}: ")
    assert err.count("\n") == 1
    assert status.startswith(f"error: cannot write {path!r}: ")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_that_cannot_be_opened_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    capsys.readouterr()
    code = main([command, "--config", write_config(tmp_path), "--out", str(out), "--quiet",
                 *COMMANDS[command]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: cannot write {str(out / 'manifest.json')!r}: ")
    assert err.count("\n") == 1
    assert (out / "manifest.json").is_dir()


def test_sweep_cell_csv_that_cannot_be_opened_is_an_error_row(tmp_path, capsys):
    out = tmp_path / "sweep"
    (out / "runs" / "full_s0.csv").mkdir(parents=True)
    capsys.readouterr()
    code = main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                 "--policies", "full,at", "--quiet"])
    assert (code, capsys.readouterr().err) == (0, "")
    rows = read_csv(out / "summary.csv")
    assert [r[0] for r in rows[1:]] == ["full", "at"]
    path = str(out / "runs" / "full_s0.csv")
    assert rows[1][-1].startswith(f"error: cannot write {path!r}: ")
    assert rows[2][-1] == "ok"
    assert json.loads((out / "manifest.json").read_text())["status"] == "1 cell(s) failed"


NULL_TRACK_ERROR = "band policies need tracked coordinates; track_coordinates must not be null"


def null_track_config(tmp_path):
    """A band policy with tracking off. write_config drops None overrides,
    so the null is written here."""
    path = tmp_path / "null_track.json"
    doc = {**BASE_CONFIG, "policy": {"kind": "ou", "r": 0.5}, "track_coordinates": None}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_rejects_band_policy_without_tracking(tmp_path, capsys):
    code, err, status = command_outcome("run", null_track_config(tmp_path), tmp_path / "out",
                                        capsys)
    assert (code, err, status) == (2, f"config error: {NULL_TRACK_ERROR}\n",
                                   f"error: {NULL_TRACK_ERROR}")


def test_sweep_rejects_band_policy_without_tracking_per_cell(tmp_path, capsys):
    out = tmp_path / "sweep"
    capsys.readouterr()
    code = main(["sweep", "--config", null_track_config(tmp_path), "--out", str(out),
                 "--policies", "full,aou", "--quiet"])
    assert (code, capsys.readouterr().err) == (0, "")
    rows = read_csv(out / "summary.csv")
    assert [(r[0], r[-1]) for r in rows[1:]] == [
        ("full", "ok"), ("aou", f"error: {NULL_TRACK_ERROR}".replace(",", ";")),
    ]
    assert json.loads((out / "manifest.json").read_text())["status"] == "1 cell(s) failed"


@pytest.mark.parametrize(
    "overrides, message",
    [
        # The parameters themselves overflow.
        ({"model": {"kind": "quadratic-diagnostic"}, "eta": 1e18, "E": 3},
         "non-finite parameters"),
        # Finite parameters whose AR(1) fit overflows.
        ({"eta": 1e300, "E": 3},
         "OU fit of the pooled training path non-finite: lam and mu must be finite"),
    ],
    ids=["params_overflow", "fit_overflow"],
)
def test_ou_demo_numeric_failure_exits_3_with_manifest(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "demo"
    code, err, status = command_outcome("ou-demo", cfg, out, capsys)
    assert (code, err, status) == (3, f"numeric error: {message}\n", f"error: {message}")
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_failed_sweep_manifest_records_the_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: sweep: empty grid; pass --gammas and/or --policies\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["status"] == "error: sweep: empty grid; pass --gammas and/or --policies"
