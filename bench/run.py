"""fedsample benchmark: host time of the simulator, end to end and per layer.

    python3 bench/run.py --workload fedavg-norm --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Workloads are defined in workloads.py and
listed in BENCHMARK.json. Every number is host time (how long the
simulator takes); simulated quantities such as uplink bytes and accuracy
are outputs, checked against reference/ by reference.py.

--trace 0 prints the end-to-end metrics, measured in fresh processes with
no tracing. --trace 1 runs the same passes twice, untraced then traced, for
the per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Run files
go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import hostspeed
import reference
from environment import pinned_env, provenance
from tracer import BENCH_SPANS, COORDINATOR_SPANS
from workloads import WORKLOADS, Workload, sweep_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")

MIN_PROCESSES = 5     # fresh interpreters per --trace 0 run: set-up samples
MIN_ROUNDS = 100      # so round_ms_p90 has at least ten samples beyond it
DEADLINE_S = 170.0    # every child is stopped by then
LAYERS = ("seeding", "data", "models", "ou", "policies", "engine", "config", "cli")


class Run:
    """Paths, environment and the deadline shared by one benchmark run."""

    def __init__(self, root: str, workload: Workload, seed: int, trace: int) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.env = pinned_env(self.src)
        self.out = os.path.join(root, ".bench_out", f"{workload.name}-s{seed}-t{trace}")
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self._n = 0
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.out, f"{self._n:03d}-{stem}")

    def spawn(self, args: list[str]) -> tuple[int, float, float, str]:
        """Run a fresh interpreter to completion or the deadline. Returns
        (exit code, monotonic spawn time, wall seconds, stderr)."""
        spawn_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return -1, spawn_at, time.monotonic() - spawn_at, "timed out"
        wall = time.monotonic() - spawn_at
        return proc.returncode, spawn_at, wall, proc.stderr

    def child(self, mode: str, *extra: str) -> tuple[dict | None, float, float]:
        """Run child.py; returns (its result or None, spawn time, wall)."""
        result_path = self.path(f"{mode}.json")
        code, spawn_at, wall, err = self.spawn(
            [CHILD, mode, "--workload", self.workload.name, "--result", result_path, *extra]
        )
        if code != 0 or not os.path.exists(result_path):
            self.problems.append(f"child {mode} exited {code}: {err.strip()[-400:]}")
            return None, spawn_at, wall
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), spawn_at, wall

    def sweep_config_path(self) -> str:
        path = os.path.join(self.out, "sweep-config.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sweep_config(self.workload), fh, indent=1)
        return path


# -- phases -------------------------------------------------------------------


def new_phase() -> dict:
    # In-process workloads' times are scaled to the nominal host speed
    # (hostspeed.py), except raw_walls and the traces, which are compared
    # with each other only.
    return {
        "pass_walls": [], "raw_walls": [], "compare_walls": [], "pass_updates": [],
        "round_s": [], "setup": [], "imports": [], "rss": [], "covered": [],
        "traces": [], "kernel_s": [], "paused": 0.0, "processes": 0,
    }


def record_process(ph: dict, result: dict, spawn_at: float, scale: float) -> None:
    ph["setup"].append((result["ready_monotonic"] - spawn_at) * scale)
    ph["imports"].append(result["import_s"] * scale)
    ph["rss"].append(result["peak_rss_mb"])
    if "trace" in result:
        ph["traces"].append(result["trace"])


def inproc_process(run: Run, ph: dict, trace: int, start: int, ref: dict) -> None:
    """One workload process running passes start, start+1, ...; every
    experiment is checked against the reference."""
    wl = run.workload
    result, spawn_at, _ = run.child(
        "inproc", "--seed", str(run.seed), "--start", str(start),
        "--passes", str(wl.passes_per_process), "--trace", str(trace),
    )
    if result is None:
        lost = wl.passes_per_process * len(wl.policies) * wl.rounds
        run.attempted += lost
        run.failed += lost
        return
    kernel_s: list[float] = []
    for p in result["passes"]:
        wall = 0.0
        for exp in p["experiments"]:
            failed, problems = reference.check_experiment(exp, ref, wl.rounds)
            run.attempted += wl.rounds
            run.failed += failed
            run.problems.extend(problems)
            # The kernel is timed after every round: a round is scaled by
            # the timings just before and after it, an experiment by all
            # of its timings.
            k = exp["kernel_s"]
            wall += exp["wall_s"] * (hostspeed.factor(k) if k else 1.0)
            ph["round_s"].extend(
                t * hostspeed.factor(k[max(i - 1, 0):i + 1])
                for i, t in enumerate(exp["round_s"]))
            kernel_s.extend(k)
            ph["paused"] += exp["paused_s"]
        ph["pass_walls"].append(wall)
        ph["raw_walls"].append(p["wall_s"])
        ph["compare_walls"].append(wall)
        ph["pass_updates"].append(wl.updates_per_pass(p["entry"]))
    ph["kernel_s"].extend(kernel_s)
    record_process(ph, result, spawn_at, hostspeed.factor(kernel_s) if kernel_s else 1.0)


def sweep_process(run: Run, ph: dict, trace: int, start: int, ref: dict) -> None:
    """One fresh ``fedsample sweep`` process; its CSVs are checked against
    the reference and then deleted. Its times are not scaled to the host
    speed (README.md says why)."""
    wl = run.workload
    entry = wl.order(run.seed)[start % len(wl.pool)]
    key = ",".join(map(str, entry))
    out_dir = run.path(f"sweep-t{trace}")
    result, spawn_at, wall = run.child(
        "sweep", "--entry", key, "--config", run.sweep_config_path(),
        "--out-dir", out_dir, "--trace", str(trace),
    )
    n_cells = len(wl.experiments(entry))
    outputs = reference.sweep_outputs(out_dir)
    code = -1 if result is None else result["exit_code"]
    failed, problems = reference.check_sweep(outputs, code, key, n_cells, ref)
    run.attempted += n_cells
    run.failed += failed
    run.problems.extend(problems)
    shutil.rmtree(out_dir, ignore_errors=True)
    if result is None:
        return
    # Until the sweep returns: process exit and span writing excluded.
    main_wall = result["main_end_monotonic"] - spawn_at
    ph["pass_walls"].append(wall)
    ph["raw_walls"].append(wall)
    ph["compare_walls"].append(main_wall)
    ph["pass_updates"].append(wl.updates_per_pass(entry))
    ph["round_s"].extend(result["round_s"])
    ph["covered"].append((result["import_s"] + result["main_s"]) / main_wall)
    record_process(ph, result, spawn_at, 1.0)


def phase(run: Run, trace: int, ref: dict, seconds: float = 0.0, min_rounds: int = 0,
          min_processes: int = 1, processes: int | None = None) -> dict:
    """Fresh workload processes back to back: a fixed number of them, or
    until ``seconds`` have passed and ``min_rounds``/``min_processes`` are
    reached. Spreading a run over many processes also spreads its set-up
    samples over the run, not just its start."""
    wl = run.workload
    sweep = wl.kind == "sweep"
    ph = new_phase()
    begin = time.monotonic()
    for n in itertools.count():
        if processes is not None:
            if n == processes:
                break
        elif (n >= min_processes and time.monotonic() - begin >= seconds
              and len(ph["round_s"]) >= min_rounds):
            break
        if run.remaining() < 30:
            run.problems.append("phase stopped early at the deadline")
            break
        (sweep_process if sweep else inproc_process)(
            run, ph, trace, n * wl.passes_per_process, ref)
        ph["processes"] = n + 1
    ph["trace"] = merge_traces(ph["traces"])
    return ph


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    for t in traces:
        for name, (calls, total, self_s) in t["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def import_scipy_s(run: Run) -> float:
    """Import time ``python -X importtime`` charges to scipy: the cumulative
    time of every scipy module imported by a module outside scipy."""
    code, _, _, err = run.spawn(["-X", "importtime", "-c", "import fedsample"])
    if code != 0:
        run.problems.append(f"import fedsample exited {code}")
        return 0.0
    lines = [ln for ln in err.splitlines() if ln.startswith("import time:") and "|" in ln]
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before parents; walk it in reverse so each
    # module is seen after the module that imported it.
    for line in reversed(lines[1:]):
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.") for a in ancestors):
            total_us += int(cumulative)
        ancestors.append((depth, name))
    return total_us / 1e6


# -- metrics ------------------------------------------------------------------


def end_to_end(ph: dict) -> dict[str, float]:
    # run_s, client_updates_per_s and import_s average over the whole run:
    # host speed drifts between states over seconds to minutes, and over
    # ten seeds the mean pass time spread 15-50% less than the median.
    walls = ph["pass_walls"]
    round_ms = np.asarray(ph["round_s"]) * 1000.0
    return {
        "setup_s": statistics.median(ph["setup"]),
        "import_s": statistics.fmean(ph["imports"]),
        "run_s": statistics.fmean(walls),
        "client_updates_per_s": sum(ph["pass_updates"]) / sum(walls),
        "round_ms_p90": float(np.percentile(round_ms, 90)),
        "peak_rss_mb": max(ph["rss"]),
    }


def per_layer(untraced: dict, traced: dict, scipy_s: float, sweep: bool,
              cli_trace: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of a traced run. The cli and config layers come
    from ``cli_trace`` when given (the cli probe), else from ``traced``."""
    spans = traced["trace"]["spans"]
    counters = traced["trace"]["counters"]
    rounds = max(counters.get("engine.rounds", 0), 1)

    cli_trace = cli_trace or traced["trace"]
    cli_spans = cli_trace["spans"]
    cli_rounds = max(cli_trace["counters"].get("engine.rounds", 0), 1)

    def calls(name, of=spans):
        return of.get(name, [0, 0.0, 0.0])[0]

    def total(name, of=spans):
        return of.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def mean(name, scale, of=spans):
        return total(name, of) / calls(name, of) * scale if calls(name, of) else 0.0

    def ratio(num, den, empty=0.0):
        return num / den if den else empty

    busy = {name: s[2] for name, s in spans.items()
            if name not in COORDINATOR_SPANS + BENCH_SPANS}
    busy_total = sum(busy.values())
    # Both phases walk the pool in the same order: compare the same passes.
    n = min(len(traced["compare_walls"]), len(untraced["compare_walls"]))
    overhead = sum(traced["compare_walls"][:n]) / sum(untraced["compare_walls"][:n]) - 1.0
    if sweep:
        covered = statistics.median(traced["covered"])
    else:
        # The kernel runs while iter_rounds is suspended: inside its span,
        # outside the pass walls.
        covered = ratio(total("engine.iter_rounds") - traced["paused"],
                        sum(traced["raw_walls"]))
    metrics = {
        # Per-layer, not end-to-end: the run-to-run spread of a per-round
        # median on a host that alternates between two speeds exceeded
        # every allowed bound.
        "round_ms_p50": float(np.percentile(untraced["round_s"], 50)) * 1e3,
        "models.local_train_ms": mean("models.local_train", 1e3),
        "models.loss_and_grad_us": mean("models.loss_and_grad", 1e6),
        "models.step_overhead_frac": ratio(
            total("models.local_train") - total("models.loss_and_grad"),
            total("models.local_train")),
        "models.sgd_steps": calls("models.loss_and_grad") / rounds,
        "models.evaluate_ms": mean("models.evaluate", 1e3),
        "seeding.derive_rng_calls": calls("seeding.derive_rng") / rounds,
        "seeding.derive_rng_us": mean("seeding.derive_rng", 1e6),
        "ou.fit_calls": calls("ou.fit_ou_ls_columns") / rounds,
        "ou.fit_ms": mean("ou.fit_ou_ls_columns", 1e3),
        "ou.columns_fitted_per_s": ratio(
            counters.get("ou.columns_fitted", 0), total("ou.fit_ou_ls_columns")),
        "ou.band_fraction_ms": mean("ou.band_fraction", 1e3),
        "ou.decode_calls": counters.get("ou.decode_calls", 0) / rounds,
        "engine.server_estimate_ms": total("engine.server_estimate") * 1e3 / rounds,
        "engine.nacks": counters.get("engine.nacks", 0) / rounds,
        # Distinct NACK estimates needed (one per round that decodes) per
        # decode pass run; 1.0 when nothing is decoded, as nothing is wasted.
        "engine.estimate_useful_ratio": ratio(
            counters.get("engine.rounds_decoded", 0),
            counters.get("engine.decode_passes", 0), empty=1.0),
        "engine.round_self_ms": self_time("engine.run_round") * 1e3 / rounds,
        "engine.select_ms": mean("engine.select_clients", 1e3),
        "engine.aggregate_ms": mean("engine.aggregate", 1e3),
        "policies.send_ratio": ratio(
            counters.get("policies.sends", 0), counters.get("policies.decisions", 0)),
        "data.synth_blobs_s": mean("data.synth_blobs", 1.0),
        "config.load_ms": mean("config.load_config", 1e3, cli_spans),
        "cli.import_scipy_s": scipy_s,
        "cli.cell_s": mean("cli.cell", 1.0, cli_spans),
        "cli.cell_round_ms": total("cli.cell", cli_spans) * 1e3 / cli_rounds,
        "cli.pool_concurrency": ratio(total("cli.cell", cli_spans),
                                      total("cli.cmd_sweep", cli_spans)),
        "trace_overhead_frac": overhead,
        "trace_unattributed_frac": 1.0 - covered,
    }
    for layer in LAYERS:
        layer_busy = sum(v for name, v in busy.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_frac"] = ratio(layer_busy, busy_total)
    return metrics


# -- entry point --------------------------------------------------------------


def measure(run: Run, seconds: float, trace: int) -> dict[str, float] | None:
    ref = reference.load(run.workload.name)
    if not trace:
        ph = phase(run, 0, ref, seconds, MIN_ROUNDS, MIN_PROCESSES)
        if not ph["pass_walls"] or not ph["round_s"]:
            return None
        run.notes.append(f"samples: {len(ph['setup'])} set-ups, {len(ph['pass_walls'])} passes, "
                         f"{len(ph['round_s'])} rounds")
        if ph["kernel_s"]:
            run.notes.append(
                f"host speed: kernel median {statistics.median(ph['kernel_s']) * 1e3:.2f} ms "
                f"over {len(ph['kernel_s'])} timings; "
                f"unscaled mean pass {statistics.fmean(ph['raw_walls']):.4g} s")
        return end_to_end(ph)
    scipy_s = import_scipy_s(run)
    # The traced repeat runs slower by the tracing overhead; 45% for the
    # untraced phase keeps the whole run near --seconds.
    untraced = phase(run, 0, ref, 0.45 * seconds)
    traced = phase(run, 1, ref, processes=untraced["processes"])
    if not untraced["compare_walls"] or not traced["compare_walls"]:
        return None
    probe = cli_probe(run) if run.workload.cli_probe else None
    if run.workload.cli_probe and probe is None:
        return None
    return per_layer(untraced, traced, scipy_s, run.workload.kind == "sweep", probe)


def cli_probe(run: Run) -> dict | None:
    """The trace of one ``fedsample sweep`` process of the cli-sweep
    workload, for the cli and config layers. Its cells are checked against
    their reference and counted in the run's attempted and failed."""
    probe = Run(run.root, WORKLOADS["cli-sweep"], run.seed, trace=1)
    probe.started = run.started
    ph = phase(probe, 1, reference.load(probe.workload.name), processes=1)
    run.attempted += probe.attempted
    run.failed += probe.failed
    run.problems.extend(probe.problems)
    return ph["trace"] if ph["traces"] else None


def metric_units(root: str, trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this --trace."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fedsample", "__init__.py")):
        print("bench: no src/fedsample here; run from the root of a fedsample checkout",
              file=sys.stderr)
        return 2

    run = Run(root, WORKLOADS[args.workload], args.seed, args.trace)
    prov = provenance(root, run.src, args.seed)
    metrics = measure(run, args.seconds, args.trace)
    if metrics is None:
        for problem in run.problems[:20]:
            print(f"bench: {problem}", file=sys.stderr)
        print("bench: a workload process failed; no metrics", file=sys.stderr)
        return 1

    units = metric_units(root, args.trace)
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':30s} {failed_frac:14.6g} ratio "
          f"({run.failed} of {run.attempted} {'cells' if run.workload.kind == 'sweep' else 'rounds'})")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems[:20]:
        print(f"  check: {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(run.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov, "problems": run.problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
