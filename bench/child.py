"""Workload process started by ``run.py``; one fresh interpreter per call.

    child.py inproc --workload W --seed N --start I --passes P --trace 0|1
                    --result FILE
        run passes I .. I+P-1 of the workload's pool order back to back
        (closed loop), recording every round's outputs and timing, and
        the host-speed kernel's time after every round (hostspeed.py).
    child.py sweep --workload W --entry A,B --config CFG --out-dir DIR
                   --trace 0|1 --result FILE
        run ``fedsample sweep`` in this process over the workload's
        policies and seeds A,B, timing each round of each cell.

Both report how long ``import fedsample`` took and the monotonic clock when
the first round began, from which run.py derives set-up time. Results go
to FILE as JSON; with --trace 1 the spans go next to it. The fedsample
package comes from the checkout's ``src/`` (PYTHONPATH, set by run.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

import hostspeed
from workloads import (
    BATCH_SIZE,
    CLIENT_FRACTION,
    DATASET,
    EPOCHS,
    ETA,
    HIDDEN_DIM,
    N_CLIENTS,
    POLICY_PARAMS,
    WORKLOADS,
    Workload,
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spans_path(result_path: str) -> str:
    return os.path.splitext(result_path)[0] + "-spans.json.gz"


def parse_policy(fs, token: str):
    kind, _, arg = token.partition(":")
    if not arg:
        return fs.PolicyConfig(kind)
    return fs.PolicyConfig(kind, **{POLICY_PARAMS[kind]: float(arg)})


class Experiment:
    """Everything one policy run needs before its first round."""

    def __init__(self, fs, wl: Workload, token: str, seed: int, dataset) -> None:
        self.id = f"s{seed}-{token}"
        self.dataset = dataset
        self.model = fs.ModelSpec(
            "mlp1", input_dim=DATASET["dim"], n_classes=DATASET["n_classes"],
            hidden_dim=HIDDEN_DIM,
        )
        self.config = fs.RoundConfig(
            n_clients=N_CLIENTS, client_fraction=CLIENT_FRACTION, epochs=EPOCHS,
            batch_size=BATCH_SIZE, eta=ETA, policy=parse_policy(fs, token),
            nack_estimate_mode=wl.nack_mode, seed=seed, track=wl.track,
        )
        self.state = fs.ServerState(
            global_params=fs.init_params(self.model, seed),
            history_len=self.config.history_len,
        )
        self.ledger = fs.CommLedger()


def run_experiment(fs, exp: Experiment, rounds: int) -> dict:
    """Time every round; keep the outputs the reference check compares.
    The host-speed kernel is timed after every round, outside the round's
    interval and outside ``wall_s``."""
    records, times, kernel = [], [], []
    error = None
    it = fs.engine.iter_rounds(exp.model, exp.config, exp.dataset, rounds, exp.ledger, exp.state)
    started = time.monotonic()
    start = t0 = perf_counter()
    paused = 0.0
    try:
        for report in it:
            t1 = perf_counter()
            times.append(t1 - t0)
            records.append([
                list(report.senders), report.uplink_bytes, report.downlink_bytes,
                report.test_acc, report.test_loss,
            ])
            k0 = perf_counter()
            kernel.append(hostspeed.kernel_s())
            t0 = perf_counter()
            paused += t0 - k0
    except Exception as err:  # noqa: BLE001 - a failing round is counted, not fatal
        error = f"{type(err).__name__}: {err}"
    return {
        "id": exp.id,
        "rounds": records,
        "round_s": times,
        "kernel_s": kernel,
        "wall_s": perf_counter() - start - paused,
        "paused_s": paused,
        "started_monotonic": started,
        "final": exp.state.global_params.data.tolist(),
        "error": error,
    }


def run_pass(fs, wl: Workload, seed: int) -> dict:
    """Every policy of the workload for ``wl.rounds`` rounds on one seed's data."""
    dataset = fs.data.synth_blobs(n_clients=N_CLIENTS, seed=seed, **DATASET)
    experiments = [
        run_experiment(fs, Experiment(fs, wl, token, s, dataset), wl.rounds)
        for _, token, s in wl.experiments(seed)
    ]
    return {
        "entry": seed,
        "wall_s": sum(e["wall_s"] for e in experiments),
        "experiments": experiments,
    }


def cmd_inproc(args):
    wl = WORKLOADS[args.workload]
    t = perf_counter()
    import fedsample as fs

    import_s = perf_counter() - t
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, fs)
        tracer.wrap(hostspeed, "kernel_s", "bench.hostspeed")

    order = wl.order(args.seed)
    passes = [
        run_pass(fs, wl, order[i % len(order)])
        for i in range(args.start, args.start + args.passes)
    ]
    return {
        "import_s": import_s,
        "ready_monotonic": passes[0]["experiments"][0]["started_monotonic"],
        "passes": passes,
    }, tracer


def cmd_sweep(args):
    wl = WORKLOADS[args.workload]
    t = perf_counter()
    import fedsample
    import fedsample.cli as cli

    import_s = perf_counter() - t
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, fedsample, cli=cli)

    # Per-round latency inside each cell: the interval between the rounds
    # a cell's thread yields, CSV writing included. list.append is atomic,
    # so the pool threads can share these lists.
    round_s: list[float] = []
    first_round: list[float] = []
    iter_rounds = cli.iter_rounds

    def timed_rounds(*a, **kw):
        first_round.append(time.monotonic())
        t0 = perf_counter()
        for report in iter_rounds(*a, **kw):
            t1 = perf_counter()
            round_s.append(t1 - t0)
            t0 = t1
            yield report

    cli.iter_rounds = timed_rounds
    argv = [
        "sweep", "--config", args.config, "--out", args.out_dir, "--quiet",
        "--policies", ",".join(wl.policies), "--seeds", args.entry,
    ]
    main_start = perf_counter()
    sid = tracer.begin("cli.main") if tracer else None
    code = cli.main(argv)
    if tracer:
        tracer.end(sid)
    return {
        "exit_code": code,
        "import_s": import_s,
        "ready_monotonic": min(first_round, default=time.monotonic()),
        "main_s": perf_counter() - main_start,
        "main_end_monotonic": time.monotonic(),
        "round_s": round_s,
    }, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_inproc = sub.add_parser("inproc")
    p_inproc.add_argument("--seed", type=int, required=True)
    p_inproc.add_argument("--start", type=int, required=True)
    p_inproc.add_argument("--passes", type=int, required=True)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--entry", required=True, help="comma-separated seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out-dir", required=True)
    for p in (p_inproc, p_sweep):
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--result", required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    result, tracer = (cmd_inproc if args.mode == "inproc" else cmd_sweep)(args)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spans_path(args.result))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
