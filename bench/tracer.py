"""Spans and counters recorded from outside the fedsample package.

The engine, models, config and cli modules call one another through module
globals (``engine.local_train``, ``models.loss_and_grad``,
``cli.iter_rounds`` ...). ``install`` replaces those globals with wrappers
that record a span per call: name, start, end, the enclosing span on the
same thread, and the thread. Calls made once per model coordinate
(``ou.decode``) only bump a counter. Nothing under ``src/`` changes.

Spans are kept in memory; ``write`` saves them when the process ends and
``summary`` derives per-name call counts, total time and self time (a
span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Spans that only coordinate other work (the sweep's main thread waits on
# its pool inside them); they are left out of the per-layer busy-time split.
COORDINATOR_SPANS = ("cli.main", "cli.cmd_sweep")
# The benchmark's own host-speed kernel (hostspeed.py), timed between
# rounds; not fedsample's time either.
BENCH_SPANS = ("bench.hostspeed",)


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        # [name, start, end, parent index or -1, thread ident]
        self.spans: list[list] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counts(self) -> Counter:
        """This thread's counters; summed over threads by ``counters``."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        start = perf_counter()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, start, 0.0, parent, threading.get_ident()])
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans[sid][2] = end

    def counters(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of module.attr;
        ``after(args, result)`` may bump counters once the call returns."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """One span from the first ``next`` until the generator finishes."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.end(sid)

        setattr(module, attr, wrapper)

    def count_calls(self, module, attr: str, counter: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts()[counter] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """{"spans": {name: [calls, total_s, self_s]}, "counters": {...}}."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, list] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[sid]
        return {"spans": stats, "counters": dict(self.counters())}

    def write(self, path: str) -> None:
        """Save every span as gzipped JSON: a name table and one row per
        span [name index, start s, end s, parent index, thread index]."""
        names: dict[str, int] = {}
        threads: dict[int, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [
                names.setdefault(name, len(names)),
                round(start - origin, 7),
                round(end - origin, 7),
                parent,
                threads.setdefault(tid, len(threads)),
            ]
            for name, start, end, parent, tid in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def install(tracer: Tracer, fedsample, cli=None) -> None:
    """Wrap the layer boundaries of an imported fedsample package; pass the
    imported ``fedsample.cli`` module to trace a sweep as well."""
    engine = fedsample.engine
    models = fedsample.models
    run_round = engine.run_round
    server_estimate = engine.server_estimate

    @functools.wraps(run_round)
    def traced_round(*args, **kwargs):
        tracer._local.decoded = False
        sid = tracer.begin("engine.run_round")
        try:
            report = run_round(*args, **kwargs)
        finally:
            tracer.end(sid)
        counts = tracer.counts()
        counts["engine.rounds"] += 1
        counts["engine.selected"] += len(report.selected)
        counts["engine.rounds_decoded"] += int(tracer._local.decoded)
        return report

    @functools.wraps(server_estimate)
    def traced_estimate(msg, state, mode):
        counts = tracer.counts()
        before = counts["ou.decode_calls"]
        sid = tracer.begin("engine.server_estimate")
        try:
            return server_estimate(msg, state, mode)
        finally:
            tracer.end(sid)
            counts["engine.nacks"] += int(not msg.ack)
            if counts["ou.decode_calls"] > before:
                counts["engine.decode_passes"] += 1
                tracer._local.decoded = True

    def after_decide(args, send):
        counts = tracer.counts()
        counts["policies.decisions"] += 1
        counts["policies.sends"] += int(bool(send))

    def after_fit(args, result):
        tracer.counts()["ou.columns_fitted"] += len(result)

    engine.run_round = traced_round
    engine.server_estimate = traced_estimate
    tracer.wrap(engine, "select_clients", "engine.select_clients")
    tracer.wrap(engine, "aggregate", "engine.aggregate")
    tracer.wrap(engine, "local_train", "models.local_train")
    tracer.wrap(engine, "evaluate", "models.evaluate")
    tracer.wrap(models, "loss_and_grad", "models.loss_and_grad")
    tracer.wrap(models, "derive_rng", "seeding.derive_rng")
    tracer.wrap(engine, "derive_rng", "seeding.derive_rng")
    tracer.wrap(engine, "seed_sequence", "seeding.seed_sequence")
    tracer.wrap(engine, "fit_ou_ls_columns", "ou.fit_ou_ls_columns", after=after_fit)
    tracer.wrap(engine, "band_fraction", "ou.band_fraction")
    tracer.count_calls(engine, "decode", "ou.decode_calls")
    tracer.wrap(engine, "local_decide", "policies.local_decide", after=after_decide)
    tracer.wrap(engine, "compute_adaptive_threshold", "policies.compute_adaptive_threshold")
    tracer.wrap(fedsample.data, "synth_blobs", "data.synth_blobs")
    if cli is None:
        tracer.wrap_generator(engine, "iter_rounds", "engine.iter_rounds")
    else:
        tracer.wrap(fedsample.config, "synth_blobs", "data.synth_blobs")
        tracer.wrap(cli, "load_config", "config.load_config")
        tracer.wrap(cli, "cmd_sweep", "cli.cmd_sweep")
        tracer.wrap_generator(cli, "iter_rounds", "cli.cell")
