"""Command-line front end: run experiments, sweep policies, probe SGD drift.

Subcommands:

* ``run``: one experiment from a JSON config; writes ``metrics.csv`` and
  ``manifest.json`` into the output directory.
* ``sweep``: a policy grid (an FT gamma grid and/or explicit policy
  tokens) crossed with seeds; one metrics CSV per cell under ``runs/``
  plus ``summary.csv``. Cells run one after another in grid order.
* ``ou-demo``: central (single-worker) training with every-step
  trajectory tracking; writes per-coordinate trajectories, an increment
  histogram, and the per-coordinate AR(1)/process fits.

Exit codes: 0 success, 2 configuration problem, 3 numeric failure
mid-run (partial CSV keeps a TRUNCATED marker row). Commands write only
inside their output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .config import (
    RunSettings,
    build_dataset,
    build_model,
    build_round_config,
    load_config,
)
from .engine import METRICS_HEADER, CommLedger, format_metrics_row, iter_rounds
from .errors import ConfigError, NumericError
from .models import init_params, local_train
from .ou import fit_ou_ls_columns
from .policies import POLICY_KINDS, POLICY_PARAMS, PolicyConfig
from .seeding import seed_sequence

TRUNCATION_MARKER = "TRUNCATED"

SUMMARY_HEADER = (
    "policy,seed,rounds_completed,final_acc,final_loss,"
    "total_uplink_bytes,total_downlink_bytes,acc_per_byte,status"
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _run_id(config_path: str, seed: int) -> str:
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read() + b"|seed=" + str(seed).encode())
    return digest.hexdigest()[:12]


def _write_manifest(out_dir: str, fields: dict) -> None:
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fields, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _truncation_row(err: Exception) -> str:
    reason = str(err).replace(",", ";").replace("\n", " ")
    n_fields = METRICS_HEADER.count(",") + 1
    return ",".join([TRUNCATION_MARKER, reason] + [""] * (n_fields - 2))


def _stream_run(
    settings: RunSettings, seed: int, csv_path: str, dataset=None
) -> tuple[str, dict]:
    """Run one experiment, streaming rows to csv_path.

    Returns (status, stats). status is "ok" or "truncated"; stats carries
    the summary fields. The CSV keeps whatever completed, with a marker
    row appended on a numeric abort.
    """
    if dataset is None:
        dataset = build_dataset_for_seed(settings, seed)
    model = build_model(settings, dataset)
    round_config = build_round_config(settings, seed=seed)
    ledger = CommLedger()
    label = settings.policy.label
    last = None
    status = "ok"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        try:
            for report in iter_rounds(model, round_config, dataset, settings.rounds, ledger):
                fh.write(format_metrics_row(report, label, seed) + "\n")
                last = report
        except NumericError as err:
            fh.write(_truncation_row(err) + "\n")
            status = "truncated"
    stats = {
        "policy": label,
        "seed": seed,
        "rounds_completed": ledger.rounds,
        "final_acc": None if last is None else last.test_acc,
        "final_loss": None if last is None else last.test_loss,
        "total_uplink_bytes": ledger.total_uplink,
        "total_downlink_bytes": ledger.total_downlink,
        "status": status,
    }
    return status, stats


def build_dataset_for_seed(settings: RunSettings, seed: int):
    """Dataset for one sweep cell: an explicit dataset seed pins the data
    across cells; otherwise the cell seed drives it so that per-seed
    comparisons across policies stay paired."""
    ds = settings.dataset
    if ds["kind"] == "synth_blobs" and "seed" not in ds:
        settings = dataclasses.replace(settings, dataset={**ds, "seed": seed})
    return build_dataset(settings)


def cmd_run(args) -> int:
    settings = load_config(args.config)
    seed = settings.seed if args.seed_override is None else args.seed_override
    os.makedirs(args.out, exist_ok=True)
    started = _now()
    csv_path = os.path.join(args.out, "metrics.csv")
    status = "error"
    try:
        status, stats = _stream_run(settings, seed, csv_path)
    except ConfigError as err:
        status = f"error: {err}"
        raise
    finally:
        _write_manifest(
            args.out,
            {
                "run_id": _run_id(args.config, seed),
                "command": "run",
                "config_path": os.path.abspath(args.config),
                "seed": seed,
                "started_at": started,
                "finished_at": _now(),
                "status": status,
                "outputs": ["metrics.csv"],
            },
        )
    if not args.quiet:
        acc = stats["final_acc"]
        acc_txt = "n/a" if acc is None or (isinstance(acc, float) and math.isnan(acc)) else f"{acc:.4f}"
        print(
            f"run {settings.policy.label} seed={seed}: "
            f"{stats['rounds_completed']}/{settings.rounds} rounds, "
            f"final_acc={acc_txt}, uplink={stats['total_uplink_bytes']} B"
            + (" [TRUNCATED]" if status == "truncated" else "")
        )
    return 0 if status == "ok" else 3


def _parse_policy_token(token: str) -> PolicyConfig:
    """Grid tokens: full, at, aou, ft:0.5, random:0.3, ou:0.1."""
    kind, sep, arg = token.partition(":")
    kind = kind.strip()
    name = POLICY_PARAMS.get(kind)
    try:
        if sep and name is None and kind in POLICY_KINDS:
            raise ValueError(f"policy {kind!r} takes no parameter")
        return PolicyConfig(kind, **({name: float(arg)} if sep and name else {}))
    except ValueError as err:
        raise ConfigError(f"policy grid: {err}") from None


def _parse_float_list(raw: str, where: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {raw!r}") from None


def _parse_int_list(raw: str, where: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated integers, got {raw!r}") from None


def _summary_row(stats: dict) -> str:
    acc = stats["final_acc"]
    loss = stats["final_loss"]
    uplink = stats["total_uplink_bytes"]
    if stats["status"] == "ok" and acc is not None:
        acc_txt = format(acc, ".6g")
        loss_txt = format(loss, ".6g")
        apb = format(acc / uplink, ".6g") if uplink > 0 and not math.isnan(acc) else "nan"
    else:
        acc_txt = loss_txt = apb = ""
    return ",".join(
        [
            stats["policy"],
            str(stats["seed"]),
            str(stats["rounds_completed"]),
            acc_txt,
            loss_txt,
            str(uplink),
            str(stats["total_downlink_bytes"]),
            apb,
            stats["status"],
        ]
    )


def cmd_sweep(args) -> int:
    settings = load_config(args.config)
    base_seed = settings.seed if args.seed_override is None else args.seed_override

    policies: list[PolicyConfig] = []
    if args.gammas:
        policies.extend(
            PolicyConfig("ft", gamma=g) for g in _parse_float_list(args.gammas, "--gammas")
        )
    if args.policies:
        policies.extend(
            _parse_policy_token(tok) for tok in args.policies.split(",") if tok.strip()
        )
    if not policies:
        raise ConfigError("sweep: empty grid; pass --gammas and/or --policies")
    seeds = _parse_int_list(args.seeds, "--seeds") if args.seeds else [base_seed]

    labels = [p.label for p in policies]
    if len(set(labels)) != len(labels) or len(set(seeds)) != len(seeds):
        raise ConfigError("sweep: duplicate grid cells")

    runs_dir = os.path.join(args.out, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    started = _now()

    datasets = {seed: build_dataset_for_seed(settings, seed) for seed in seeds}
    cells = [(policy, seed) for policy in policies for seed in seeds]
    results: list[dict] = []
    for policy, seed in cells:
        cell_settings = dataclasses.replace(settings, policy=policy)
        csv_path = os.path.join(runs_dir, f"{policy.label}_s{seed}.csv")
        try:
            _, stats = _stream_run(cell_settings, seed, csv_path, dataset=datasets[seed])
        except (ConfigError, ValueError) as err:
            stats = {
                "policy": policy.label, "seed": seed, "rounds_completed": 0,
                "final_acc": None, "final_loss": None, "total_uplink_bytes": 0,
                "total_downlink_bytes": 0, "status": f"error: {err}".replace(",", ";"),
            }
        results.append(stats)

    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for stats in results:
            fh.write(_summary_row(stats) + "\n")

    n_failed = sum(1 for r in results if r["status"] != "ok")
    _write_manifest(
        args.out,
        {
            "run_id": _run_id(args.config, base_seed),
            "command": "sweep",
            "config_path": os.path.abspath(args.config),
            "seed": base_seed,
            "seeds": seeds,
            "grid": [p.label for p in policies],
            "started_at": started,
            "finished_at": _now(),
            "status": "ok" if n_failed == 0 else f"{n_failed} cell(s) failed",
            "outputs": ["summary.csv", "runs/"],
        },
    )
    if not args.quiet:
        print(
            f"sweep: {len(cells)} cells ({len(policies)} policies x {len(seeds)} seeds), "
            f"{n_failed} failed; summary at {summary_path}"
        )
    return 0


def demo_train_seed(seed: int) -> int:
    """Seed stream for the central demo trainer."""
    return int(seed_sequence(seed, "demo").generate_state(1, np.uint64)[0])


def cmd_ou_demo(args) -> int:
    settings = load_config(args.config)
    seed = settings.seed if args.seed_override is None else args.seed_override
    dataset = build_dataset_for_seed(settings, seed)
    model = build_model(settings, dataset)

    pooled_x = np.vstack([x for x, _ in dataset.clients])
    pooled_y = np.concatenate([y for _, y in dataset.clients])
    steps = settings.epochs * math.ceil(pooled_x.shape[0] / settings.batch_size)
    if steps < 2:
        raise ConfigError(
            "ou-demo: needs at least 2 SGD steps (raise E or lower B)"
        )

    os.makedirs(args.out, exist_ok=True)
    started = _now()
    track = settings.track if settings.track is not None else "auto"
    report = local_train(
        model,
        init_params(model, seed),
        (pooled_x, pooled_y),
        epochs=settings.epochs,
        batch_size=settings.batch_size,
        eta=settings.eta,
        seed=demo_train_seed(seed),
        track=track,
    )
    traj = report.trajectory
    fits = fit_ou_ls_columns(traj.values, dt=1.0)

    with open(os.path.join(args.out, "trajectories.csv"), "w", encoding="utf-8") as fh:
        fh.write("coord,step,value\n")
        for j, coord in enumerate(traj.indices):
            col = traj.values[:, j]
            for step in range(col.size):
                fh.write(f"{int(coord)},{step},{col[step]!r}\n")

    diffs = np.diff(traj.values, axis=0).ravel()
    counts, edges = np.histogram(diffs, bins=50)
    with open(os.path.join(args.out, "increments.csv"), "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(c)}\n")

    n_ok = 0
    n_degenerate = 0
    n_non_reverting = 0
    with open(os.path.join(args.out, "fits.csv"), "w", encoding="utf-8") as fh:
        fh.write("coord,a,b,resid_sd,lam,mu,sigma,flag\n")
        for j, (params, fit) in enumerate(fits):
            if params.non_reverting:
                flag = "non_reverting"
                n_non_reverting += 1
            elif params.degenerate:
                flag = "degenerate"
                n_degenerate += 1
            else:
                flag = "ok"
            if not math.isnan(fit.a) and 0.0 < fit.a < 1.0:
                n_ok += 1
            fh.write(
                ",".join(
                    [str(int(traj.indices[j]))]
                    + [format(v, ".12g") for v in (fit.a, fit.b, fit.resid_sd,
                                                   params.lam, params.mu, params.sigma)]
                    + [flag]
                )
                + "\n"
            )

    n_coords = traj.n_tracked
    fraction = n_ok / n_coords
    summary = {
        "n_coordinates": n_coords,
        "steps": report.steps_taken,
        "eta": settings.eta,
        "fraction_a_in_unit_interval": fraction,
        "degenerate": n_degenerate,
        "non_reverting": n_non_reverting,
    }
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_manifest(
        args.out,
        {
            "run_id": _run_id(args.config, seed),
            "command": "ou-demo",
            "config_path": os.path.abspath(args.config),
            "seed": seed,
            "started_at": started,
            "finished_at": _now(),
            "status": "ok",
            "outputs": ["trajectories.csv", "increments.csv", "fits.csv", "summary.json"],
        },
    )
    if not args.quiet:
        print(
            f"ou-demo: {n_coords} coordinates over {report.steps_taken} steps; "
            f"fraction with a in (0,1): {fraction:.4f} "
            f"(degenerate {n_degenerate}, non_reverting {n_non_reverting})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsample",
        description="Deterministic federated-averaging simulator with "
                    "communication-aware client sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config's seed")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a policy/seed grid")
    common(p_sweep)
    p_sweep.add_argument("--gammas", default="",
                         help="comma-separated FT gamma grid, e.g. 0.2,0.5,0.8")
    p_sweep.add_argument("--policies", default="",
                         help="comma-separated policy tokens: full, at, aou, "
                              "ft:G, random:Q, ou:R")
    p_sweep.add_argument("--seeds", default="",
                         help="comma-separated seeds (default: the config's)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("ou-demo", help="central SGD drift probe")
    common(p_demo)
    p_demo.set_defaults(func=cmd_ou_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
