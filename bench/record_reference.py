"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Run from the root of a checkout. It overwrites bench/reference/ with the
outputs of the code in src/ for every pool entry of every workload. Do
this only on purpose: after a change that is meant to alter outputs, and
say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import environment

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
# Pin threads before numpy loads, exactly as run.py does for its children.
os.environ.update(environment.pinned_env(SRC))
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def record_inproc(wl: Workload) -> tuple[dict, dict]:
    import fedsample as fs

    import child

    experiments, finals = {}, {}
    for entry in wl.pool:
        for exp in child.run_pass(fs, wl, entry)["experiments"]:
            if exp["error"] or len(exp["rounds"]) != wl.rounds:
                raise SystemExit(f"{wl.name} {exp['id']}: {exp['error'] or 'short run'}")
            experiments[exp["id"]] = exp["rounds"]
            finals[exp["id"]] = np.asarray(exp["final"], dtype=np.float64)
    return {"experiments": experiments}, finals


def record_sweep(wl: Workload) -> dict:
    bench = run.Run(ROOT, wl, seed=0, trace=0)
    config = bench.sweep_config_path()
    sweeps = {}
    for entry in wl.pool:
        key = ",".join(map(str, entry))
        out_dir = bench.path("sweep")
        result, _, _ = bench.child(
            "sweep", "--config", config, "--entry", key, "--trace", "0", "--out-dir", out_dir,
        )
        if result is None or result["exit_code"] != 0:
            raise SystemExit(f"{wl.name} {key}: {bench.problems}")
        sweeps[key] = reference.sweep_outputs(out_dir)
    return {"sweeps": sweeps}


def dump(doc: dict) -> str:
    """JSON with one line per experiment or sweep, so diffs stay readable."""
    parts = []
    for key in sorted(doc):
        value = doc[key]
        if key in ("experiments", "sweeps"):
            inner = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(value[k], separators=(',', ':'))}"
                for k in sorted(value)
            )
            parts.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    os.makedirs(reference.REFERENCE_DIR, exist_ok=True)
    for name, wl in sorted(WORKLOADS.items()):
        doc = {
            "provenance": environment.provenance(ROOT, SRC, None),
            "rtol": reference.RTOL,
        }
        json_path, npz_path = reference.paths(name)
        if wl.kind == "sweep":
            doc.update(record_sweep(wl))
        else:
            records, finals = record_inproc(wl)
            doc.update(records)
            np.savez_compressed(npz_path, **finals)
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(dump(doc))
        print(f"recorded {name} -> {os.path.relpath(json_path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
