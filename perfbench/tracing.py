"""Outside-in span tracing for the benchmark.

The tracer swaps module attributes for timing wrappers: the names that
``mirrorboost.boosting`` and ``mirrorboost.cli`` import from the lower
layers, and the entry points the harness itself calls through. Every call
becomes a span (id, parent id, name, start, end, pass id) kept in memory;
``uninstall`` puts the original objects back. Nothing under ``src/`` is
edited, so the program being measured is the one a user runs.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import mirrorboost.boosting as boosting
import mirrorboost.cli as cli
import mirrorboost.data as data
import mirrorboost.stumps as stumps
import mirrorboost.trace_io as trace_io


def _count_thresholds(tracer, args, out):
    # distinct-value counts are resolved at end_pass, outside every span
    features = args[0]
    tracer.stump_calls.setdefault(id(features), [features, 0])[1] += 1


def _count_rounds(tracer, args, out):
    tracer.counts["boosting.rounds"] += len(out.traces)


def _count_write_bytes(tracer, args, out):
    tracer.counts["trace_io.write_bytes"] += os.path.getsize(args[2])


def _count_records(tracer, args, out):
    tracer.counts["verify.records"] += len(args[0].rounds)


def _count_rows(tracer, args, out):
    # gen_combined calls gen_noisy, which calls gen_blobs: count only the
    # outermost data call so each row is counted once
    if not tracer.open_names[-1].startswith("data."):
        tracer.counts["data.rows"] += out.n


# (owner, attribute, span name, counter)
TARGETS = [
    (boosting, "train_stump", "stumps.train_stump", _count_thresholds),
    (boosting, "loss_vector", "stumps.loss_vector", None),
    (stumps.Stump, "predict", "stumps.predict", None),
    (boosting, "project_simplex", "projection.simplex", None),
    (boosting, "project_mixed", "projection.mixed", None),
    (boosting, "project_orthant_l1", "projection.orthant_l1", None),
    (boosting, "run", "boosting.run", _count_rounds),
    (cli, "run", "boosting.run", _count_rounds),
    (boosting, "predict", "boosting.predict", None),
    (boosting, "save_model", "boosting.save_model", None),
    (cli, "save_model", "boosting.save_model", None),
    (boosting, "load_model", "boosting.load_model", None),
    (trace_io, "write_trace", "trace_io.write", _count_write_bytes),
    (cli, "write_trace", "trace_io.write", _count_write_bytes),
    (cli, "read_trace", "trace_io.read", None),
    (cli, "verify_trace", "verify.verify_trace", _count_records),
    (cli, "main", "cli.main", None),
    (data, "load_csv", "data.load_csv", _count_rows),
    (cli, "load_csv", "data.load_csv", _count_rows),
    (data, "gen_noisy", "data.gen", _count_rows),
    (cli, "gen_blobs", "data.gen", _count_rows),
    (cli, "gen_noisy", "data.gen", _count_rows),
    (cli, "gen_combined", "data.gen", _count_rows),
]


class Tracer:
    """Collects spans and exact counts for the passes run while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pass_id = 0
        self.open_ids = [0]
        self.open_names = [""]
        self.stump_calls: dict[int, list] = {}  # id(features) -> [features, calls]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr, name, counter):
        original = owner.__dict__[attr]
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        open_ids = self.open_ids
        open_names = self.open_names

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = open_ids[-1]
            open_ids.append(sid)
            open_names.append(name)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                open_names.pop()
                spans.append((sid, parent, name, start, end, tracer.pass_id))
            if counter is not None:
                counter(tracer, args, out)
            return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            self._wrap(owner, attr, name, counter)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span around harness code; the root of one operation."""
        sid = self._next_id
        self._next_id = sid + 1
        parent = self.open_ids[-1]
        self.open_ids.append(sid)
        self.open_names.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.open_ids.pop()
            self.open_names.pop()
            self.spans.append((sid, parent, name, start, end, self.pass_id))

    def end_pass(self) -> None:
        """Turn the stump calls seen in the pass into scanned-threshold counts.

        A call scans sum_j (distinct values of feature j + 1) split points:
        the -inf and +inf sentinels plus one midpoint per adjacent pair.
        """
        for features, calls in self.stump_calls.values():
            per_call = sum(len(np.unique(column)) + 1 for column in features.T)
            self.counts["stumps.thresholds_scanned"] += per_call * calls
        self.stump_calls.clear()

    def totals(self, under: str | None = None) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and number of calls.

        Self time is a span's duration minus the time its direct children
        cover. With ``under``, only spans whose root span has that name count.
        """
        child = defaultdict(float)
        root = {}
        # a span is appended when it closes, so parents come after children
        for sid, parent, name, start, end, _p in reversed(self.spans):
            root[sid] = name if parent == 0 else root[parent]
            child[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for sid, _parent, name, start, end, _p in self.spans:
            if under is None or root[sid] == under:
                total[name] += end - start
                self_time[name] += end - start - child[sid]
                calls[name] += 1
        return total, self_time, calls

    def write(self, path: str) -> None:
        """Write every span as tab-separated text, one line per span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\tpass\n")
            for sid, parent, name, start, end, pass_id in self.spans:
                fh.write(
                    f"{sid}\t{parent}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                    f"{(end - t0) * 1e6:.1f}\t{pass_id}\n"
                )
