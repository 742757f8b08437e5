"""Reference outputs and the output check.

The references in ``reference/`` were recorded from the code at the commit
named in each file's ``provenance`` by ``record_reference.py``; they change
only when that script is run on purpose.

In-process workloads: every round's sender set, uplink bytes and downlink
bytes must match exactly; test accuracy and test loss must match within
RTOL (relative) and the final parameter vector within RTOL in the
Euclidean norm, ``||p - p_ref|| <= RTOL * ||p_ref||``. The tolerance admits
last-bit drift from reordered floating-point arithmetic, which compounds
over 20 rounds of SGD, and nothing that changes a send decision.

Sweep workload: the bytes of ``summary.csv`` and of every ``runs/*.csv``
must match.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

RTOL = 1e-6
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def paths(workload: str) -> tuple[str, str]:
    return (
        os.path.join(REFERENCE_DIR, f"{workload}.json"),
        os.path.join(REFERENCE_DIR, f"{workload}.npz"),
    )


def load(workload: str) -> dict:
    """{"provenance", "experiments" | "sweeps", "final": {id: array}}."""
    json_path, npz_path = paths(workload)
    with open(json_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["final"] = {}
    if os.path.exists(npz_path):
        with np.load(npz_path) as npz:
            ref["final"] = {key: npz[key] for key in npz.files}
    return ref


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0) or (math.isnan(a) and math.isnan(b))


def check_experiment(result: dict, ref: dict, rounds: int) -> tuple[int, list[str]]:
    """Failed rounds of one experiment (out of ``rounds``) and why."""
    exp_id = result["id"]
    expected = ref["experiments"].get(exp_id)
    if expected is None:
        return rounds, [f"{exp_id}: no reference"]
    failed: set[int] = set()
    problems: list[str] = []
    got = result["rounds"]
    for i in range(rounds):
        if i >= len(got):
            failed.add(i)
            continue
        senders, up, down, acc, loss = got[i]
        r_senders, r_up, r_down, r_acc, r_loss = expected[i]
        if senders != r_senders or up != r_up or down != r_down:
            failed.add(i)
            problems.append(f"{exp_id} round {i}: senders/bytes differ")
        elif not (_close(acc, r_acc) and _close(loss, r_loss)):
            failed.add(i)
            problems.append(f"{exp_id} round {i}: accuracy {acc!r} / loss {loss!r} "
                            f"vs {r_acc!r} / {r_loss!r}")
    if result["error"]:
        problems.append(f"{exp_id}: {result['error']}")
    elif len(got) == rounds:
        final = np.asarray(result["final"], dtype=np.float64)
        r_final = ref["final"].get(exp_id)
        if r_final is None or final.shape != r_final.shape or not (
            np.linalg.norm(final - r_final) <= RTOL * np.linalg.norm(r_final)
        ):
            failed.add(rounds - 1)
            problems.append(f"{exp_id}: final parameters differ")
    return len(failed), problems


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sweep_outputs(out_dir: str) -> dict:
    """The outputs of one sweep that the check compares."""
    runs_dir = os.path.join(out_dir, "runs")
    runs = {}
    if os.path.isdir(runs_dir):
        runs = {
            name: file_sha256(os.path.join(runs_dir, name))
            for name in sorted(os.listdir(runs_dir))
        }
    summary_path = os.path.join(out_dir, "summary.csv")
    summary = None
    if os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8", newline="") as fh:
            summary = fh.read()
    return {"summary.csv": summary, "runs": runs}


def check_sweep(outputs: dict, exit_code: int, key: str, n_cells: int, ref: dict
                ) -> tuple[int, list[str]]:
    """Failed cells of one sweep over the seeds ``key`` (e.g. "2,3")."""
    expected = ref["sweeps"].get(key)
    if expected is None:
        return n_cells, [f"sweep {key}: no reference"]
    if exit_code != 0:
        return n_cells, [f"sweep {key}: exit code {exit_code}"]
    summary = outputs["summary.csv"]
    ref_rows = expected["summary.csv"].split("\n")
    if summary is None or summary.split("\n")[0] != ref_rows[0] \
            or summary.count("\n") != expected["summary.csv"].count("\n") \
            or set(outputs["runs"]) != set(expected["runs"]):
        return n_cells, [f"sweep {key}: summary.csv or runs/ layout differs"]
    got_rows = summary.split("\n")
    problems = []
    for i in range(1, n_cells + 1):
        label, seed = ref_rows[i].split(",")[:2]
        cell = f"{label}_s{seed}.csv"
        if got_rows[i] != ref_rows[i]:
            problems.append(f"sweep {key}: summary row for {cell} differs")
        elif outputs["runs"][cell] != expected["runs"][cell]:
            problems.append(f"sweep {key}: {cell} differs")
    return len(problems), problems
