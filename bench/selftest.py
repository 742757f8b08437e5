"""Self-test of the benchmark itself (not of fedsample).

    python3 bench/selftest.py

Run from the root of a checkout; takes about three minutes on 2 CPUs. It
checks that:

1. every workload, run at the smallest size (--seconds 1) with tracing off
   and on, prints a last line with exactly the contract's keys, passes its
   output check, and reports every metric BENCHMARK.json names; the cli
   probe of fedavg-norm's traced run measures the cli and config layers;
2. the output check fails when the reference is deliberately corrupted,
   and accepts a drift inside its stated tolerance;
3. the tracer keeps every span, parent and count under contending threads;
4. without src/ the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import threading

import environment

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
os.environ.update(environment.pinned_env(SRC))
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench_command(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_contract_output() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "every workload in BENCHMARK.json is defined in workloads.py")
    # Every defined workload, also cli-sweep, which runs by hand only.
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{name} --trace {trace}"
            proc = bench_command(ROOT, name, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what}: last line is JSON (exit {proc.returncode}, "
                              f"stderr {proc.stderr.strip()[-300:]!r})")
                continue
            expect(proc.returncode == 0, f"{what}: exit code 0")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result has exactly the contract's keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: output check passes")
            expect(sorted(result["metrics"]) == sorted(m["name"] for m in spec[key]),
                   f"{what}: every {key} metric present")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{what}: values are finite")
            if trace and WORKLOADS[name].cli_probe:
                expect(result["metrics"]["cli.cell_s"]["value"] > 0
                       and result["metrics"]["config.load_ms"]["value"] > 0,
                       f"{what}: the cli probe measured the cli and config layers")


def check_inproc_corruption() -> None:
    import fedsample as fs

    import child

    wl = WORKLOADS["fedavg-norm"]
    ref = reference.load(wl.name)
    exp = child.run_pass(fs, wl, wl.pool[0])["experiments"][0]

    def failed(r: dict) -> int:
        return reference.check_experiment(exp, r, wl.rounds)[0]

    expect(failed(ref) == 0, "in-process output matches its reference")

    sender = copy.deepcopy(ref)
    rounds = sender["experiments"][exp["id"]]
    rounds[5][0] = rounds[5][0][:-1] if rounds[5][0] else [0]
    expect(failed(sender) == 1, "a changed sender set fails one round")

    uplink = copy.deepcopy(ref)
    uplink["experiments"][exp["id"]][9][1] += 8
    expect(failed(uplink) == 1, "an uplink byte count off by 8 fails one round")

    acc = copy.deepcopy(ref)
    acc["experiments"][exp["id"]][7][3] *= 1 + 1e-4
    expect(failed(acc) == 1, "accuracy off by 1e-4 relative fails one round")

    drift = copy.deepcopy(ref)
    drift["experiments"][exp["id"]][7][4] *= 1 + 1e-12
    drift["final"][exp["id"]] = ref["final"][exp["id"]] * (1 + 1e-12)
    expect(failed(drift) == 0, "drift of 1e-12 relative is inside the tolerance")

    final = copy.deepcopy(ref)
    final["final"][exp["id"]] = ref["final"][exp["id"]] + 1e-4 * np.linalg.norm(
        ref["final"][exp["id"]]) / math.sqrt(ref["final"][exp["id"]].size)
    expect(failed(final) == 1, "final parameters off by 1e-4 relative fail")

    missing = copy.deepcopy(ref)
    del missing["experiments"][exp["id"]]
    expect(failed(missing) == wl.rounds, "an experiment with no reference fails every round")


def check_sweep_corruption() -> None:
    wl = WORKLOADS["cli-sweep"]
    ref = reference.load(wl.name)
    entry = wl.pool[0]
    key = ",".join(map(str, entry))
    bench = run.Run(ROOT, wl, seed=0, trace=0)
    out_dir = bench.path("sweep")
    result, _, _ = bench.child("sweep", "--config", bench.sweep_config_path(),
                               "--entry", key, "--trace", "0", "--out-dir", out_dir)
    outputs = reference.sweep_outputs(out_dir)
    code = -1 if result is None else result["exit_code"]
    n_cells = len(wl.experiments(entry))

    def failed(r: dict) -> int:
        return reference.check_sweep(outputs, code, key, n_cells, r)[0]

    expect(failed(ref) == 0, "sweep output matches its reference")

    runs = copy.deepcopy(ref)
    cell = sorted(runs["sweeps"][key]["runs"])[0]
    runs["sweeps"][key]["runs"][cell] = "0" * 64
    expect(failed(runs) == 1, "a changed runs/*.csv fails one cell")

    summary = copy.deepcopy(ref)
    rows = summary["sweeps"][key]["summary.csv"].split("\n")
    rows[2] = rows[2].replace(",ok", ",truncated")
    summary["sweeps"][key]["summary.csv"] = "\n".join(rows)
    expect(failed(summary) == 1, "a changed summary.csv row fails one cell")
    shutil.rmtree(bench.out, ignore_errors=True)


def check_tracer_threads() -> None:
    tracer = Tracer()
    n_threads, n_calls = 4, 2000

    def work() -> None:
        for _ in range(n_calls):
            outer = tracer.begin("x.outer")
            inner = tracer.begin("x.inner")
            tracer.counts()["x.calls"] += 1
            tracer.end(inner)
            tracer.end(outer)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    expect(not any(t.is_alive() for t in threads), "tracer stress threads finished")
    summary = tracer.summary()
    total = n_threads * n_calls
    expect(summary["spans"]["x.outer"][0] == total and summary["spans"]["x.inner"][0] == total
           and summary["counters"]["x.calls"] == total,
           "no span or count is lost under 4 contending threads")
    spans = tracer.spans
    expect(all(spans[s[3]][0] == "x.outer" and spans[s[3]][4] == s[4]
               for s in spans if s[0] == "x.inner"),
           "every inner span's parent is an outer span of its own thread")


def check_fails_without_src() -> None:
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_command(bare, "fedavg-norm", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"correct"' not in last[0],
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_inproc_corruption()
    check_sweep_corruption()
    check_tracer_threads()
    check_fails_without_src()
    check_contract_output()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
