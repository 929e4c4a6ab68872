"""qfdiv benchmark: fuzz throughput, cold-certify latency, memory, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz-d4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py        # checks the benchmark itself

Workloads (BENCHMARK.json says why each exists; predictions.json which
layer metric should move which end-to-end metric on which workload):

    fuzz-d4        qfdiv fuzz --dim 4, ginibre, full catalog, serial
    fuzz-d16       the same at --dim 16, where the eigensolver dominates
    fuzz-d8-jobs2  --dim 8 --sampler mixture --jobs 2 (the thread pool)
    certify-cold   one fresh `python -m qfdiv certify` process per op

Every input carries the eigenvalue floor FLOOR (fuzz ``--floor``), not
qfdiv's default 1e-6/dim: with the default, windows wider than about 1e6
make psi_sup leave t = 1 out of its grid and report false thm4 violations
for tv (see known_defect_probe), so runs would fail on some seeds.  Each
run records in its manifest whether that defect is still there.

Fuzz calls run in this process through ``qfdiv.cli.main``, after import,
15, 3 and 6 trials per call.  An op is one fuzz trial or one certify
process: latency is call time per trial (fuzz) or spawn to exit
(certify), closed loop, one client.  Ops come in pairs on the same
inputs, and the second of a pair must print the same bytes (fuzz).  Every
op's output is checked; a failed op is counted and never timed.  A run
lasts --seconds and at least 100 latency samples (200 on fuzz-d16, whose
p90 is the least steady).  The seed only chooses inputs: fuzz ``--seed``
n * 10**6 + k for pair k, and the certify pair.  Serial workloads are
pinned to one CPU.

Op and set-up times are scaled to a reference machine speed measured next
to them (see kernel_speed); the unscaled figures are in the results file.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics, from a run whose pairs are one untraced and one
traced op (spans.py wraps qfdiv's public functions).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Each run
writes ``.perfbench_runs/results/<workload>-seed<n>-trace<t>.json`` (run
manifest, error rate, unscaled figures, samples), and a traced run its
spans to ``.perfbench_runs/trace-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 9          # fresh interpreters per run; setup figures are their median
MIN_SAMPLES = 100         # latency samples per run, so p90 has >= 10 beyond it
TRACE_MIN_SAMPLES = 20    # ops per side (traced, untraced) in a traced run
MAX_MEASURE_S = 120.0     # hard stop, so a run ends within 180 s
FUZZ_SEED_STRIDE = 10**6  # fuzz --seed of pair k in a run with seed n: n * stride + k
CLOSED_FORM_RTOL = 1e-10  # acceptance tolerance: rel 1e-10, abs 1e-12
CLOSED_FORM_ATOL = 1e-12
# Reference times on a quiet 2-core Xeon VM (its fast state); see machine_speed.
REF_KERNEL_S = 4.0e-3     # the in-process kernel
REF_PROCESS_S = 10.5e-3   # a bare interpreter, spawn to exit
SPEED_WINDOW = 1          # speed samples on each side of an op that set its local speed
# Eigenvalue floor of every input.  It keeps the smallest eigenvalue at or
# above FLOOR / (dim (1 + FLOOR)), about 6e-5 at dim 16, so every window has
# R below about 1.6e4 and psi_sup always puts t = 1 in its grid.
FLOOR = 1e-3
# `qfdiv fuzz` arguments, at the default floor, that give a false tv violation
# while psi_sup leaves t = 1 out of its grid for windows wider than about 1e6.
DEFECT_ARGV = ("fuzz", "--dim", "16", "--trials", "3", "--seed", "3000031")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # "fuzz" or "certify"
    dim: int
    sampler: str = "ginibre"
    jobs: int = 1
    floor: float = FLOOR
    trials: int = 1           # trials per timed fuzz call
    warm_trials: int = 1      # trials in the untimed first fuzz call; it sets peak RSS
    samples: int = MIN_SAMPLES  # latency samples a run takes at least


WORKLOADS = {w.name: w for w in (
    Workload("fuzz-d4", "fuzz", 4, trials=15, warm_trials=100),
    Workload("fuzz-d16", "fuzz", 16, trials=3, warm_trials=6, samples=200),
    Workload("fuzz-d8-jobs2", "fuzz", 8, sampler="mixture", jobs=2, trials=6, warm_trials=20),
    Workload("certify-cold", "certify", 8),
)}

# Per-layer metric names, in output order.  "<span>.calls" is calls per op,
# "<span>.self_s" self time summed over the traced ops of the run.
CALLS = (
    "hermitian.eigh", "hermitian.matrix_function",
    "quantum.DensityMatrix", "quantum.joint_spectrum", "quantum.s_f_from_spectrum",
    "quantum.chi_square", "quantum.closed_form",
    "generators.psi_sup", "generators.secant_bound", "generators.jensen_gap_bound",
    "generators.parse_generator_spec",
    "harness.sample_pair", "harness.run_all_checks",
    "cli.report_to_json",
)
SELF_ONLY = (
    "harness.check_nonneg", "harness.check_derivative_gap", "harness.check_thm2",
    "harness.check_thm3", "harness.check_thm4", "harness.check_thm5",
    "harness.fuzz", "cli.main",
)
LAYERS = ("hermitian", "quantum", "generators", "harness", "cli", "setup")
SETUP_TIMES = ("setup_s", "setup.interpreter_s", "setup.import_numpy_s", "setup.import_qfdiv_s")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a probe that fails)."""


@dataclass
class Outcome:
    ok: bool
    seconds: float = 0.0
    units: int = 1            # trials for a fuzz call, 1 for a certify process
    traced: bool = False
    rss_mb: float = 0.0
    chains: dict = field(default_factory=dict)
    reason: str = ""
    speed_index: int = 0      # the machine-speed sample taken just before this op


class Tally:
    """Every op attempted; timings of the ones that passed their checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = []
        self.reasons = []
        self.speeds = []  # machine speed, one sample before each op

    def add(self, outcome: Outcome, timed: bool = True) -> None:
        outcome.speed_index = len(self.speeds) - 1
        self.attempted += 1
        if outcome.ok:
            if timed:
                self.passed.append(outcome)
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.reason)

    def side(self, traced: bool) -> list:
        return [o for o in self.passed if o.traced == traced]

    def scaled(self, o: Outcome) -> float:
        """The op's seconds at reference speed, from the speed samples around it."""
        k = o.speed_index
        return o.seconds * statistics.median(self.speeds[max(0, k - SPEED_WINDOW):
                                                         k + SPEED_WINDOW + 1])


# The CPU of a shared VM can run at half speed for a minute at a time.  A
# reference task that never touches qfdiv, timed next to the ops, gives the
# machine's speed at that moment (reference time / measured time, 1 = the
# quiet machine), and op and set-up times are multiplied by it.  In-process
# work is compared with an in-process kernel, processes with a process.


def kernel_speed() -> float:
    """Speed from a fixed slice of pure-Python and small-numpy work (about 4 ms).

    The slice runs twice and the second, warm-cache run is timed.
    """
    import numpy as np

    a = np.arange(16.0).reshape(4, 4)
    for _ in range(2):
        start = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += (i * 0.5) ** 2 % 7.0
        for _ in range(600):
            acc += float((a @ a + np.abs(a) * 0.5).sum())
    return REF_KERNEL_S / (time.perf_counter() - start)


def pool_speed() -> float:
    """Mean kernel speed over the CPUs a thread pool may use."""
    allowed = os.sched_getaffinity(0)
    try:
        speeds = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds.append(kernel_speed())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(speeds)


def process_speed() -> float:
    """Speed from spawning a bare interpreter that exits at once (about 10 ms)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, cwd=ROOT)
    return REF_PROCESS_S / (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# processes


@dataclass
class Spawned:
    start: float
    end: float
    code: int
    stdout: bytes
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def spawn(cmd, env, stderr_path) -> Spawned:
    """Run cmd to completion; wall time from spawn to reap, and its peak RSS."""
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Spawned(start, end, proc.returncode, out, usage.ru_maxrss / 1024.0)


def _tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-300:].decode("utf-8", "replace").strip()


def setup_probe(argv, env, workdir) -> dict:
    """Fresh interpreter: import qfdiv.cli and build the workload's inputs."""
    err = os.path.join(workdir, "setup.err")
    sp = spawn([sys.executable, CHILD, "setup", *argv], env, err)
    if sp.code != 0:
        raise BenchError(f"setup probe exited {sp.code}: {_tail(err)}")
    st = json.loads(sp.stdout)
    return {
        "setup_s": st["ready"] - sp.start,
        "setup.interpreter_s": st["start"] - sp.start,
        "setup.import_numpy_s": st["numpy"][1] - st["numpy"][0],
        "setup.import_qfdiv_s": st["qfdiv"][1] - st["qfdiv"][0],
    }


# ---------------------------------------------------------------------------
# workloads


def _chain_counts(checks: dict) -> dict:
    """Chains by status from a fuzz summary's per-check status counts."""
    out = {"total": 0, "skipped": 0, "vacuous": 0}
    for counts in checks.values():
        out["total"] += sum(counts.values())
        out["skipped"] += counts.get("skipped", 0)
        out["vacuous"] += counts.get("vacuous-pass", 0)
    return out


class FuzzRunner:
    """`qfdiv fuzz` through qfdiv.cli.main in this process.

    Ops come in pairs on one fuzz seed, a new seed for each pair, so a run
    averages over many distinct trials and the second call of each pair
    checks that stdout repeats byte for byte.
    """

    def __init__(self, w: Workload, seed: int):
        from qfdiv import cli

        self.cli = cli
        self.w = w
        self.seed = seed
        self.pending = {}  # argv -> sha256 of the first call's stdout

    def argv(self, trials: int, slot: int) -> list:
        w = self.w
        fuzz_seed = self.seed * FUZZ_SEED_STRIDE + slot
        return ["fuzz", "--dim", str(w.dim), "--trials", str(trials), "--seed", str(fuzz_seed),
                "--sampler", w.sampler, "--floor", repr(w.floor), "--jobs", str(w.jobs)]

    def speed(self) -> float:
        return kernel_speed() if self.w.jobs == 1 else pool_speed()

    def setup_argv(self) -> list:
        return self.argv(self.w.trials, 0)

    def warm_up(self) -> Outcome:
        return self.call(self.argv(self.w.warm_trials, FUZZ_SEED_STRIDE - 1), self.w.warm_trials)

    def op(self, i: int, tracer=None) -> Outcome:
        return self.call(self.argv(self.w.trials, i // 2), self.w.trials, tracer)

    def call(self, argv, trials, tracer=None) -> Outcome:
        buf = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                code = self.cli.main(argv)
                seconds = time.perf_counter() - start
        except Exception as exc:  # a crash is a failed op, not the end of the run
            return Outcome(False, reason=f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = buf.getvalue()
        reason = self.check(argv, code, out)
        if reason:
            return Outcome(False, reason=f"{' '.join(argv)}: {reason}")
        chains = _chain_counts(json.loads(out)["summary"]["checks"])
        return Outcome(True, seconds, trials, tracer is not None, chains=chains)

    def check(self, argv, code, out) -> str:
        try:
            doc = json.loads(out)
        except ValueError:
            return f"exit code {code}, stdout is not JSON"
        summary = doc["summary"]
        if summary["violations"]:
            first = doc["violations"][0]
            return (f"exit code {code}, {summary['violations']} violations, first "
                    f"{first['check']} {first['generator']} trial {first['trial']}")
        if code != 0:
            return f"exit code {code}"
        if summary["skipped_trials"]:
            return f"skipped trials {summary['skipped_trials']}"
        digest = hashlib.sha256(out.encode()).digest()
        first = self.pending.pop(tuple(argv), None)
        if first is None:
            self.pending[tuple(argv)] = digest
        elif first != digest:
            return "stdout differs from the previous call with the same arguments"
        return ""


def _density(rng, dim: int, floor: float):
    """A ginibre state with the eigenvalue floor mixed in as `qfdiv fuzz` does."""
    import numpy as np

    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + floor * np.eye(dim) / dim) / (1.0 + floor)
    return (rho + rho.conj().T) / 2.0


def _walk(reports):
    for rep in reports:
        yield rep
        yield from _walk(rep["subchains"])


class CertifyRunner:
    """One fresh `python -m qfdiv certify` process per op."""

    def __init__(self, w: Workload, seed: int, workdir: str):
        import numpy as np
        from qfdiv import chi_square, hellinger_sq, load_matrix, tsallis, umegaki

        self.workdir = workdir
        self.env = child_env()
        rng = np.random.default_rng(seed)
        paths = []
        for name in ("Q", "P"):
            rho = _density(rng, w.dim, w.floor)
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"dim": w.dim, "re": rho.real.tolist(), "im": rho.imag.tolist()}, fh)
            paths.append(path)
        self.cli_argv = ["certify", "--q", paths[0], "--p", paths[1]]
        q, p = (load_matrix(path) for path in paths)
        self.expected = {
            "kl-quantum": umegaki(q, p),
            "chi2": chi_square(q, p),
            "tsallis:q=0.5": tsallis(q, p, 0.5),
            "hellinger": hellinger_sq(q, p),
        }

    speed = staticmethod(process_speed)

    def setup_argv(self) -> list:
        return self.cli_argv

    def warm_up(self) -> Outcome:
        return self.op(-1)

    def op(self, i: int, tracer=None) -> Outcome:
        err = os.path.join(self.workdir, "certify.err")
        if tracer is None:
            sp = spawn([sys.executable, "-m", "qfdiv", *self.cli_argv], self.env, err)
        else:
            spans_path = os.path.join(self.workdir, "spans.json")
            sp = spawn([sys.executable, CHILD, "certify", spans_path, str(tracer.op),
                        *self.cli_argv], self.env, err)
        reason = self.check(sp)
        if reason:
            return Outcome(False, reason=f"certify op {i}: {reason}; stderr: {_tail(err)}")
        doc = json.loads(sp.stdout)
        chains = {"total": 0, "skipped": 0, "vacuous": 0}
        for rep in _walk(doc["reports"]):
            chains["total"] += 1
            chains["skipped"] += rep["status"] == "skipped"
            chains["vacuous"] += rep["status"] == "vacuous-pass"
        if tracer is not None:
            self._absorb(tracer, sp, spans_path)
        return Outcome(True, sp.end - sp.start, 1, tracer is not None, sp.rss_mb, chains)

    def check(self, sp: Spawned) -> str:
        if sp.code != 0:
            return f"exit code {sp.code}"
        doc = json.loads(sp.stdout)
        if doc.get("status") != "pass":
            return f"status {doc.get('status')!r}"
        seen = set()
        for rep in _walk(doc["reports"]):
            want = self.expected.get(rep["generator"])
            if want is None:
                continue
            for label, value in rep["chain"]:
                if label != "value":
                    continue
                seen.add(rep["generator"])
                if not abs(float(value) - want) <= max(CLOSED_FORM_RTOL * abs(want),
                                                      CLOSED_FORM_ATOL):
                    return f"{rep['generator']} value {value!r} != closed form {want!r}"
        missing = set(self.expected) - seen
        if missing:
            return f"no value term for {sorted(missing)}"
        return ""

    @staticmethod
    def _absorb(tracer, sp: Spawned, spans_path: str) -> None:
        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(spans_path)
        tracer.span("setup.interpreter", sp.start, child["start"])
        tracer.absorb([tuple(row) for row in child["rows"]])
        tracer.span("setup.exit", child["end"], sp.end)
        for name, n in child["counts"].items():
            tracer.add_count(name, n)
        tracer.missing[:] = sorted(set(tracer.missing) | set(child["missing"]))


# ---------------------------------------------------------------------------
# measurement


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[int(pct) - 1]


def measure(runner, seconds: float, min_samples: int, tracer=None) -> Tally:
    """Ops back to back for `seconds`, then on until `min_samples` ops passed.

    Ops come in pairs on the same inputs (op i works on pair i // 2).
    With a tracer the second op of each pair is traced, and the minimum
    applies to each side.  The untimed warm-up op is checked and counted.
    """
    tally = Tally()
    tally.add(runner.warm_up(), timed=False)
    passed = {False: 0, True: 0}
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        samples = min(passed.values()) if tracer is not None else passed[False]
        # Stop between pairs, once there are enough samples (or ops keep failing).
        done = i % 2 == 0 and min_samples <= max(samples, tally.failed)
        if (elapsed >= seconds and done) or elapsed >= MAX_MEASURE_S:
            break
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            checkpoint = tracer.checkpoint()
        tally.speeds.append(runner.speed())
        outcome = runner.op(i, tracer if traced else None)
        if traced and not outcome.ok:
            tracer.rollback(checkpoint)  # only ops that passed are analysed
        tally.add(outcome)
        passed[traced] += outcome.ok
        i += 1
    return tally


def e2e_metrics(w: Workload, tally: Tally, setups: list) -> tuple:
    ok = tally.passed
    lat = [1000.0 * tally.scaled(o) / o.units for o in ok]
    raw = [1000.0 * o.seconds / o.units for o in ok]
    p90 = percentile(lat, 90)
    if w.command == "fuzz":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = statistics.median(o.rss_mb for o in ok)
    units = sum(o.units for o in ok)
    metrics = {
        "trials_per_s": (units / sum(tally.scaled(o) for o in ok), "trials/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra = {
        "latency_samples": len(lat),
        "latency_samples_beyond_p90": sum(x > p90 for x in lat),
        "ops": [[o.seconds, o.units, o.speed_index] for o in ok],
        "speeds": tally.speeds,
        "unscaled": {
            "trials_per_s": units / sum(o.seconds for o in ok),
            "latency_p50_ms": statistics.median(raw),
            "latency_p90_ms": percentile(raw, 90),
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        },
    }
    return metrics, extra


def trace_metrics(w: Workload, tally: Tally, setups: list, tracer) -> tuple:
    import spans

    traced, plain = tally.side(True), tally.side(False)
    units = sum(o.units for o in traced)
    wall = sum(o.seconds for o in traced)
    summary = spans.summarize(tracer.rows)
    blank = {"calls": 0, "self_s": 0.0, "main_self_s": 0.0}
    metrics = {}
    for name in CALLS:
        entry = summary.get(name, blank)
        metrics[f"{name}.calls"] = (entry["calls"] / units, "calls/op")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (summary.get(name, blank)["self_s"], "s")
    metrics["harness.reports"] = (tracer.counts.get(spans.REPORTS_COUNTER, 0) / units, "count/op")
    for key in ("skipped", "vacuous", "total"):
        metrics[f"harness.chains_{key}"] = (sum(o.chains[key] for o in traced) / units, "count/op")
    for key in SETUP_TIMES[1:]:
        metrics[key] = (statistics.median(s[key] for s in setups), "s")

    if w.command == "fuzz":
        def rate(side):
            return sum(o.units for o in side) / sum(tally.scaled(o) for o in side)
        overhead = 1.0 - rate(traced) / rate(plain)
    else:
        overhead = (statistics.median(tally.scaled(o) for o in traced)
                    / statistics.median(tally.scaled(o) for o in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "fraction")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]
    total_self = sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layer_self[layer] / total_self, "fraction")
    main_self = sum(entry["main_self_s"] for entry in summary.values())
    accounted = main_self / wall
    metrics["trace.accounted_frac"] = (accounted, "fraction")

    top_span = max(summary, key=lambda n: summary[n]["self_s"])
    extra = {
        "traced_ops": len(traced),
        "traced_units": units,
        "traced_wall_s": wall,
        "spans": len(tracer.rows),
        "largest_layer": max(layer_self, key=layer_self.get),
        "largest_span": top_span,
        "shares_add_up_within_overhead": abs(1.0 - accounted) <= abs(overhead),
        "missing_targets": list(tracer.missing),
    }
    return metrics, extra


def write_trace(w: Workload, seed: int, tracer, tally: Tally) -> str:
    names = sorted({row[1] for row in tracer.rows})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((row[2] for row in tracer.rows), default=0.0)
    doc = {
        "workload": w.name,
        "seed": seed,
        "clock": "time.monotonic seconds, relative to the first span",
        "columns": ["index", "name", "start", "end", "parent", "op", "thread"],
        "names": names,
        "counts": tracer.counts,
        "spans": [[r[0], index[r[1]], r[2] - t0, r[3] - t0, r[4], r[5], r[6]]
                  for r in tracer.rows],
        "ops": [[o.seconds, o.units] for o in tally.side(True)],
    }
    path = os.path.join(OUT, f"trace-{w.name}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# run manifest


def known_defect_probe() -> dict:
    """Whether `qfdiv DEFECT_ARGV` still reports its false tv violations.

    This is outside the measured ops and never makes a run incorrect.
    """
    from qfdiv import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(DEFECT_ARGV))
    doc = json.loads(buf.getvalue())
    return {
        "what": "psi_sup leaves t = 1 out of its grid when R is above about 1e6, "
                "giving false thm4 violations for tv; the workloads' floor avoids it",
        "argv": " ".join(DEFECT_ARGV),
        "exit_code": code,
        "violations": doc["summary"]["violations"],
        "present": code == 1 and any(v["generator"] == "tv" for v in doc["violations"]),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def manifest(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "loadavg_1min_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# driver


def run(w: Workload, seed: int, seconds: float, trace: bool,
        min_samples: int = None, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result document."""
    import spans

    if min_samples is None:
        min_samples = TRACE_MIN_SAMPLES if trace else w.samples
    man = manifest(w, seed, seconds, trace)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    allowed = os.sched_getaffinity(0)
    if w.jobs == 1:
        # Serial work, its child processes and the reference kernel share one
        # CPU, so the kernel sees the speed of the CPU the work runs on.
        os.sched_setaffinity(0, {min(allowed)})
    man["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    try:
        runner = FuzzRunner(w, seed) if w.command == "fuzz" else CertifyRunner(w, seed, workdir)
        env = child_env()
        speeds, setups = [], []
        for _ in range(probes):
            speeds.append(process_speed())
            setups.append(setup_probe(runner.setup_argv(), env, workdir))
        for probe in setups:
            probe["raw_setup_s"] = probe["setup_s"]
            for key in SETUP_TIMES:
                probe[key] *= statistics.median(speeds)
        tracer = spans.Tracer() if trace else None
        tally = measure(runner, seconds, min_samples, tracer)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
    man["loadavg_1min_end"] = os.getloadavg()[0]
    man["machine_speed"] = {
        "setup": {"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds)},
        "ops": {"median": statistics.median(tally.speeds), "min": min(tally.speeds),
                "max": max(tally.speeds)},
        "reference": "1 = the quiet 2-core Xeon VM; fuzz ops use kernel_speed, "
                     "processes use process_speed",
    }

    # Failed ops are counted, never timed: figures come from the ops that passed.
    metrics, extra = {}, {"error_rate": tally.failed / tally.attempted, "failures": tally.reasons}
    if trace and tally.side(True) and tally.side(False):
        metrics, more = trace_metrics(w, tally, setups, tracer)
        more["trace_file"] = os.path.relpath(write_trace(w, seed, tracer, tally), ROOT)
        extra.update(more)
    elif not trace and tally.passed:
        metrics, more = e2e_metrics(w, tally, setups)
        extra.update(more)
    man["known_defect"] = known_defect_probe()
    doc = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = os.path.join(OUT, "results", f"{w.name}-seed{seed}-trace{int(trace)}.json")
    with open(results, "w", encoding="utf-8") as fh:
        json.dump({"manifest": man, "result": doc, "extra": extra}, fh, indent=1)
    return {"manifest": man, "result": doc, "extra": extra}


def _import_qfdiv() -> None:
    if not os.path.isfile(os.path.join(SRC, "qfdiv", "cli.py")):
        raise BenchError(f"no qfdiv sources under {SRC}")
    sys.path.insert(0, SRC)
    import qfdiv

    if not os.path.abspath(qfdiv.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported qfdiv from {qfdiv.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_qfdiv()
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc, extra = out["result"], out["extra"]
    print("manifest " + json.dumps(out["manifest"]))
    for name, m in doc["metrics"].items():
        print(f"{name:36s} {m['value']!r:>24} {m['unit']}")
    print(f"{'error_rate':36s} {extra['error_rate']!r:>24} fraction "
          f"({doc['failed']} of {doc['attempted']} ops failed)")
    for key, value in extra.items():
        if key not in ("error_rate", "ops", "speeds"):  # samples stay in the results file
            print(f"{key:36s} {value}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
