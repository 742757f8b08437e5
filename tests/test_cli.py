"""Tests for config parsing and the command-line front end."""

import csv
import hashlib
import json
import math
import os
import random

import pytest

from fedsample.cli import main
from fedsample.config import load_config, parse_config
from fedsample.errors import ConfigError

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
    assert settings.n_clients == 8
    assert settings.policy.kind == "full"
    assert settings.nack_estimate_mode == "carry_forward"
    assert settings.track == "auto"


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


def test_sweep_bad_policy_tokens_exit_2(tmp_path):
    cfg = write_config(tmp_path)
    for token in ("ft", "full:1", "warp:1", "ft:x"):
        out = tmp_path / token.replace(":", "_")
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--policies", token, "--quiet"]) == 2


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
    ("logistic", 0.0): "ef0149a52ffb5aa58159139ccecafef29175ddbad681a5a6226d9c855dc5eefa",
    ("logistic", 0.3): "9cc0f14a6a322654825e0fdfbd25a5ac319d8053b7d286f64fc23eb9b957feeb",
    ("logistic", 2.5): "d0a7f4f43ef6335dec45ccc8724b8396af1b453d67197a0e1906b9955b8962f8",
    ("mlp1", 0.0): "9d8e6da9271529e3b15be19f3da481dae79fb10d1581c1fc1fb6ae0c977e9812",
    ("mlp1", 0.3): "67d032176af12301c05b3f2b10de35533f696675c066387644e7a61e5b15ea6b",
    ("mlp1", 2.5): "304972486cfa73b6d0013be64cac29662fd769c4007c6b3ad6e66a71f61e85df",
    ("quadratic-diagnostic", 0.0): "3e407b04fdafc8de68c6aab21a382913b5cfd5a19bb952b892318b085d7a1738",
    ("quadratic-diagnostic", 0.3): "a2bbd621538b96fc391068027a24bbeb23e71e5458a759bf6a2d9727f208df6c",
    ("quadratic-diagnostic", 2.5): "8fadc49fb8a5fa3248fe3a500f5bc0602b9a0c416825b904be373074911b713c",
}


@pytest.mark.parametrize("kind,eta", list(OU_DEMO_BYTES))
def test_ou_demo_output_bytes_are_pinned(tmp_path, kind, eta):
    model = {"kind": kind, "hidden_dim": 4} if kind == "mlp1" else {"kind": kind}
    cfg = write_config(tmp_path, {"model": model, "eta": eta})
    out = tmp_path / "demo"
    assert main(["ou-demo", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    digest = hashlib.sha256()
    for name in ("fits.csv", "trajectories.csv", "increments.csv", "summary.json"):
        digest.update((out / name).read_bytes())
    assert digest.hexdigest() == OU_DEMO_BYTES[kind, eta]


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
