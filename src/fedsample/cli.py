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

Exit codes: 0 success; 2 configuration problem, whether in the config
itself, the dataset or model it builds, the sweep grid, or an output
directory or file that cannot be opened; 3 numeric failure (run's partial
CSV keeps a TRUNCATED marker row). A sweep exits 0 when only some of its
cells failed: each cell's status is in summary.csv. Once the config has
loaded and the output directory exists, every command writes
``manifest.json`` on every exit (unless that file cannot be opened), with
status ``ok``, ``truncated``, ``N cell(s) failed`` or ``error:
<message>``. Commands write only inside their output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import _as_seed, build_experiment, load_config
from .engine import METRICS_HEADER, CommLedger, _ou_fit, format_metrics_row, iter_rounds
from .errors import ConfigError, NumericError
from .models import init_params, local_train
from .policies import POLICY_KINDS, POLICY_PARAMS, PolicyConfig
from .seeding import _first_uint64, seed_sequence, sha256

TRUNCATION_MARKER = "TRUNCATED"

SUMMARY_HEADER = (
    "policy,seed,rounds_completed,final_acc,final_loss,"
    "total_uplink_bytes,total_downlink_bytes,acc_per_byte,status"
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _run_id(config_path: str, seed: int) -> str:
    with open(config_path, "rb") as fh:
        digest = sha256(fh.read() + b"|seed=" + str(seed).encode())
    return digest.hexdigest()[:12]


def _make_dir(path: str, where: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{where}: cannot create directory {path!r}: {err.strerror}") from None


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror}") from None


def _blas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS selected at run time (it sets the
    order of matmul's sums), or None where that library cannot be read."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _numpy_cpu_features() -> list[str] | None:
    """The CPU features numpy's SIMD dispatch enabled (numpy >= 2.0), or None
    where numpy does not expose them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return None
    return sorted(name for name, on in __cpu_features__.items() if on)


@contextlib.contextmanager
def _command(args, outputs: list[str]):
    """Load the config, then record the command in ``manifest.json``.

    Yields (settings, seed, manifest). The output directory is created
    once the config has loaded (a ConfigError naming ``--out`` if it
    cannot be), and the manifest is written on every exit from then on:
    with the status the command sets in it, or ``error: <message>`` when
    the command raises.
    """
    settings = load_config(args.config)
    seed = (settings.round.seed if args.seed_override is None
            else _as_seed(args.seed_override, "--seed-override"))
    _make_dir(args.out, "--out")
    manifest = {
        "run_id": _run_id(args.config, seed),
        "command": args.command,
        "config_path": os.path.abspath(args.config),
        "seed": seed,
        "started_at": _now(),
        "status": "error",
        "outputs": outputs,
        "blas_core": _blas_core(),
        "fedsample_version": __version__,
        "numpy_version": np.__version__,
        "numpy_cpu_features": _numpy_cpu_features(),
    }
    try:
        yield settings, seed, manifest
    except Exception as err:
        manifest["status"] = f"error: {err}"
        raise
    finally:
        manifest["finished_at"] = _now()
        with _open_out(os.path.join(args.out, "manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _truncation_row(err: Exception) -> str:
    reason = str(err).replace(",", ";").replace("\n", " ")
    n_fields = METRICS_HEADER.count(",") + 1
    return ",".join([TRUNCATION_MARKER, reason] + [""] * (n_fields - 2))


def _stream_run(experiment: tuple, rounds: int, seed: int, csv_path: str) -> tuple:
    """Run a built (dataset, model, round_config), streaming rows to csv_path.

    Returns ``(ledger, last, status)``: the run's ``CommLedger``, its last
    ``RoundReport`` (None if no round completed) and ``"ok"`` or
    ``"truncated"``. The CSV keeps whatever completed, with a marker row
    appended on a numeric abort.
    """
    dataset, model, round_config = experiment
    ledger = CommLedger()
    try:
        reports = iter_rounds(model, round_config, dataset, rounds, ledger)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    label = round_config.policy.label
    last = None
    status = "ok"
    with _open_out(csv_path) as fh:
        fh.write(METRICS_HEADER + "\n")
        try:
            for report in reports:
                fh.write(format_metrics_row(report, label, seed) + "\n")
                last = report
        except NumericError as err:
            fh.write(_truncation_row(err) + "\n")
            status = "truncated"
    return ledger, last, status


def cmd_run(args) -> int:
    with _command(args, ["metrics.csv"]) as (settings, seed, manifest):
        csv_path = os.path.join(args.out, "metrics.csv")
        experiment = build_experiment(settings, seed)
        ledger, last, status = _stream_run(experiment, settings.rounds, seed, csv_path)
        manifest["status"] = status
    if not args.quiet:
        acc_txt = "n/a" if last is None or math.isnan(last.test_acc) else f"{last.test_acc:.4f}"
        print(
            f"run {settings.round.policy.label} seed={seed}: "
            f"{ledger.rounds}/{settings.rounds} rounds, "
            f"final_acc={acc_txt}, uplink={ledger.total_uplink} B"
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


def _parse_list(raw: str, kind: type, where: str) -> list:
    try:
        return [kind(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"{where}: expected comma-separated {what}, got {raw!r}") from None


def _summary_row(label: str, seed: int, ledger: CommLedger, last, status: str) -> str:
    """One summary.csv row; status "ok" means every round (at least 1) ran, so ``last`` is set."""
    if status == "ok":
        acc = last.test_acc
        acc_txt = format(acc, ".6g")
        loss_txt = format(last.test_loss, ".6g")
        uplink = ledger.total_uplink
        apb = format(acc / uplink, ".6g") if uplink > 0 and not math.isnan(acc) else "nan"
    else:
        acc_txt = loss_txt = apb = ""
    return ",".join(
        [
            label,
            str(seed),
            str(ledger.rounds),
            acc_txt,
            loss_txt,
            str(ledger.total_uplink),
            str(ledger.total_downlink),
            apb,
            status,
        ]
    )


def cmd_sweep(args) -> int:
    with _command(args, ["summary.csv", "runs/"]) as (settings, base_seed, manifest):
        policies: list[PolicyConfig] = []
        if args.gammas:
            gammas = _parse_list(args.gammas, float, "--gammas")
            policies.extend(_parse_policy_token(f"ft:{g!r}") for g in gammas)
        if args.policies:
            policies.extend(
                _parse_policy_token(tok) for tok in args.policies.split(",") if tok.strip()
            )
        if not policies:
            raise ConfigError("sweep: empty grid; pass --gammas and/or --policies")
        seeds = ([_as_seed(seed, "--seeds") for seed in _parse_list(args.seeds, int, "--seeds")]
                 if args.seeds else [base_seed])
        if not seeds:
            raise ConfigError(f"sweep: empty seed list {args.seeds!r}; name seeds or omit --seeds")

        labels = [p.label for p in policies]
        if len(set(labels)) != len(labels) or len(set(seeds)) != len(seeds):
            raise ConfigError("sweep: duplicate grid cells")
        manifest.update(seeds=seeds, grid=labels)

        # Each seed's dataset, model and round config, shared by its cells; a
        # dataset or model error ends the sweep here, before any cell runs.
        built = {seed: build_experiment(settings, seed) for seed in seeds}
        runs_dir = os.path.join(args.out, "runs")
        _make_dir(runs_dir, "sweep")
        cells = [(policy, seed) for policy in policies for seed in seeds]
        summary_path = os.path.join(args.out, "summary.csv")
        n_failed = 0
        with _open_out(summary_path) as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for policy, seed in cells:
                dataset, model, round_config = built[seed]
                cell = (dataset, model, round_config._replace(policy=policy))
                csv_path = os.path.join(runs_dir, f"{policy.label}_s{seed}.csv")
                try:
                    ledger, last, status = _stream_run(cell, settings.rounds, seed, csv_path)
                except ConfigError as err:
                    ledger, last, status = CommLedger(), None, f"error: {err}".replace(",", ";")
                n_failed += status != "ok"
                fh.write(_summary_row(policy.label, seed, ledger, last, status) + "\n")
        manifest["status"] = "ok" if n_failed == 0 else f"{n_failed} cell(s) failed"
    if not args.quiet:
        print(
            f"sweep: {len(cells)} cells ({len(policies)} policies x {len(seeds)} seeds), "
            f"{n_failed} failed; summary at {summary_path}"
        )
    return 0


def demo_train_seed(seed: int) -> int:
    """Seed for the central demo trainer: its stream's first uint64, as
    ``engine.client_train_seed`` takes its own."""
    return _first_uint64(seed_sequence(seed, "demo"))


def cmd_ou_demo(args) -> int:
    """Central SGD with every-step tracking; the path and histogram values are
    written as shortest round-trip decimals (``repr`` of a Python float)."""
    outputs = ["trajectories.csv", "increments.csv", "fits.csv", "summary.json"]
    with _command(args, outputs) as (settings, seed, manifest):
        dataset, model, config = build_experiment(settings, seed)
        pooled_x = np.vstack([x for x, _ in dataset.clients])
        pooled_y = np.concatenate([y for _, y in dataset.clients])
        steps = config.epochs * math.ceil(pooled_x.shape[0] / config.batch_size)
        if steps < 2:
            raise ConfigError("ou-demo: needs at least 2 SGD steps (raise E or lower B)")

        report = local_train(
            model,
            init_params(model, seed),
            (pooled_x, pooled_y),
            epochs=config.epochs,
            batch_size=config.batch_size,
            eta=config.eta,
            seed=demo_train_seed(seed),
            track="auto" if config.track is None else config.track,
        )
        path = report.path
        fits = _ou_fit(path, 1.0, "the pooled training path")
        tracked = report.tracked.tolist()

        with _open_out(os.path.join(args.out, "trajectories.csv")) as fh:
            fh.write("coord,step,value\n")
            for coord, values in zip(tracked, path.T.tolist()):
                for step, value in enumerate(values):
                    fh.write(f"{coord},{step},{value!r}\n")

        counts, edges = np.histogram(np.diff(path, axis=0).ravel(), bins=50)
        with _open_out(os.path.join(args.out, "increments.csv")) as fh:
            fh.write("bin_left,bin_right,count\n")
            for left, right, count in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                          counts.tolist()):
                fh.write(f"{left!r},{right!r},{count}\n")

        flags = np.where(fits.non_reverting, "non_reverting",
                         np.where(fits.degenerate, "degenerate", "ok"))
        columns = [fits.a, fits.b, fits.resid_sd, fits.lam, fits.mu, fits.sigma, flags]
        with _open_out(os.path.join(args.out, "fits.csv")) as fh:
            fh.write("coord,a,b,resid_sd,lam,mu,sigma,flag\n")
            for coord, *values, flag in zip(tracked, *(c.tolist() for c in columns)):
                fh.write(",".join([str(coord)] + [format(v, ".12g") for v in values]
                                  + [flag]) + "\n")

        in_unit = (fits.a > 0.0) & (fits.a < 1.0)  # NaN slopes compare False
        summary = {
            "n_coordinates": len(tracked),
            "steps": report.steps_taken,
            "eta": config.eta,
            "fraction_a_in_unit_interval": int(np.count_nonzero(in_unit)) / len(tracked),
            "degenerate": int(np.count_nonzero(fits.degenerate)),
            "non_reverting": int(np.count_nonzero(fits.non_reverting)),
        }
        with _open_out(os.path.join(args.out, "summary.json")) as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest["status"] = "ok"
    if not args.quiet:
        print(
            "ou-demo: {n_coordinates} coordinates over {steps} steps; "
            "fraction with a in (0,1): {fraction_a_in_unit_interval:.4f} "
            "(degenerate {degenerate}, non_reverting {non_reverting})".format(**summary)
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
