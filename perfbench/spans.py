"""Span tracing of qfdiv's public functions, installed from outside.

A Tracer replaces each target function with a timing wrapper in every
module namespace that binds it (``qfdiv.quantum.eigh`` and
``qfdiv.hermitian.eigh`` are the same object, so both are patched), and
restores the originals on ``uninstall``.  Spans stay in memory as rows

    (index, name, start, end, parent, op, thread)

with times from ``time.monotonic`` (CLOCK_MONOTONIC on Linux, so stamps
from a child process line up with the parent's).  ``parent`` is the
index of the innermost open span on the same thread, or -1; ``thread``
is 0 for the thread that installed the tracer and 1, 2, ... for others
in order of first appearance.  Nothing is written until the caller asks.

This module imports only the standard library, so a fresh interpreter
can load it without moving the import timings it measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

# (span name, module, attribute path).  Several targets may share a span
# name: "quantum.closed_form" covers the three trace-formula closed forms
# other than chi_square, which is called once per chain and kept apart.
TARGETS = (
    ("hermitian.eigh", "qfdiv.hermitian", "eigh"),
    ("hermitian.matrix_function", "qfdiv.hermitian", "matrix_function"),
    ("quantum.DensityMatrix", "qfdiv.quantum", "DensityMatrix.__post_init__"),
    ("quantum.joint_spectrum", "qfdiv.quantum", "joint_spectrum"),
    ("quantum.s_f_from_spectrum", "qfdiv.quantum", "s_f_from_spectrum"),
    ("quantum.chi_square", "qfdiv.quantum", "chi_square"),
    ("quantum.closed_form", "qfdiv.quantum", "umegaki"),
    ("quantum.closed_form", "qfdiv.quantum", "tsallis"),
    ("quantum.closed_form", "qfdiv.quantum", "hellinger_sq"),
    ("generators.psi_sup", "qfdiv.generators", "psi_sup"),
    ("generators.secant_bound", "qfdiv.generators", "secant_bound"),
    ("generators.jensen_gap_bound", "qfdiv.generators", "jensen_gap_bound"),
    ("generators.parse_generator_spec", "qfdiv.generators", "parse_generator_spec"),
    ("harness.sample_pair", "qfdiv.harness", "sample_pair"),
    ("harness.run_all_checks", "qfdiv.harness", "run_all_checks"),
    ("harness.check_nonneg", "qfdiv.harness", "check_nonneg"),
    ("harness.check_derivative_gap", "qfdiv.harness", "check_derivative_gap"),
    ("harness.check_thm2", "qfdiv.harness", "check_thm2"),
    ("harness.check_thm3", "qfdiv.harness", "check_thm3"),
    ("harness.check_thm4", "qfdiv.harness", "check_thm4"),
    ("harness.check_thm5", "qfdiv.harness", "check_thm5"),
    ("harness.fuzz", "qfdiv.harness", "fuzz"),
    ("cli.main", "qfdiv.cli", "main"),
    ("cli.report_to_json", "qfdiv.cli", "report_to_json"),
)

REPORTS_COUNTER = "harness.reports"


def count_reports(reports) -> int:
    """Report objects in what run_all_checks returns, subchains included."""
    return sum(1 + count_reports(getattr(rep, "subchains", ())) for rep in reports)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.rows = []
        self.counts = {}
        self.missing = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = {threading.get_ident(): 0}
        self._lock = threading.Lock()
        self._patches = []

    def _thread(self) -> int:
        ident = threading.get_ident()
        tid = self._threads.get(ident)
        if tid is None:
            with self._lock:
                tid = self._threads.setdefault(ident, len(self._threads))
        return tid

    def add_count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, start: float, end: float) -> None:
        """Record a root span on thread 0 timed elsewhere, e.g. across a process boundary."""
        self.rows.append((next(self._ids), name, start, end, -1, self.op, 0))

    def checkpoint(self) -> tuple:
        return len(self.rows), dict(self.counts)

    def rollback(self, checkpoint: tuple) -> None:
        """Forget what was recorded since the checkpoint (an op that failed)."""
        del self.rows[checkpoint[0]:]
        self.counts = checkpoint[1]

    def absorb(self, rows) -> None:
        """Append rows another Tracer recorded, renumbering their indices."""
        remap = {row[0]: next(self._ids) for row in rows}
        for idx, name, start, end, parent, op, thread in rows:
            self.rows.append((remap[idx], name, start, end, remap.get(parent, -1), op, thread))

    def wrap(self, name: str, fn, post=None):
        rows = self.rows
        ids = self._ids
        local = self._local
        clock = time.monotonic
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.append((idx, name, start, end, parent, tracer.op, tracer._thread()))
            if post is not None:
                post(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target wherever a qfdiv module binds it."""
        if self._patches:
            return
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            try:
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                if f"{modname}.{attr}" not in self.missing:
                    self.missing.append(f"{modname}.{attr}")
                continue
            post = self._count_reports if name == "harness.run_all_checks" else None
            wrapped = self.wrap(name, original, post)
            if owner is not module:
                # A method: patch it on its class, where every instance looks it up.
                self._patch(owner, leaf, wrapped)
                continue
            for mod in [m for k, m in list(sys.modules.items())
                        if m is not None and (k == "qfdiv" or k.startswith("qfdiv."))]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _count_reports(self, reports) -> None:
        self.add_count(REPORTS_COUNTER, count_reports(reports))

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(rows) -> list:
    """Self time of each row: its duration minus its children's durations.

    Children share their parent's thread and nest inside it, so the sum
    of their durations is the part of the parent's interval they cover.
    """
    pos = {row[0]: i for i, row in enumerate(rows)}
    covered = [0.0] * len(rows)
    for row in rows:
        if row[4] >= 0:
            covered[pos[row[4]]] += row[3] - row[2]
    return [row[3] - row[2] - covered[i] for i, row in enumerate(rows)]


def summarize(rows) -> dict:
    """Per span name: calls, self time, and self time on thread 0."""
    out = {}
    for row, own in zip(rows, self_times(rows)):
        entry = out.setdefault(row[1], {"calls": 0, "self_s": 0.0, "main_self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        if row[6] == 0:
            entry["main_self_s"] += own
    return out
