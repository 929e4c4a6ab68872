"""Print sha256 digests of qfdiv's deterministic outputs, one per line.

Usage, from the repository root:

    python3 tools/identity.py > before.txt      # on the old commit
    python3 tools/identity.py | diff before.txt -   # on the new one

It covers `fuzz` stdout on 38 configurations and `fuzz --out` on 2 of
them; `certify` and `compute` JSON and CSV on 17 pairs, and with `--out`
on the 7 hand-made ones; `spectrum` with and without `--out` on the 17
pairs (with QFDIV_TIMESTAMP fixed), and with `--eps-invert 1e-14` on 2
thermal pairs, one on each side of the eigenvalue clamp; `classical`
with and without `--out` on 5 distribution pairs; 6 runs on bad input that exit 2 or 3; 5 runs
made as `python -m qfdiv` processes that import ./src, marked `process`
(`certify` JSON and CSV on the first hand-made pair, the first fuzz
configuration, and the bad-input runs that exit 2 and 3), which see how
a process exits and must equal the in-process lines of the same runs;
`run_all_checks` reports as JSON over sampled and hand-made pairs, every
generator of a 23-entry list and two tolerances; one line marked
`checks` over the reports of the six `check_*` functions, each generator
of that list and the hand-made pairs, with S_f computed and with it
overridden by `sf=-1.0`; one line marked
`scalar` over the scalar calls of those 23 generators and their 23
conjugates (f, f'_+ and f'_- at 6 points, 0 among them, f as an array
of the 5 positive ones, and psi_sup, jensen_gap_bound and secant_bound
on 8 windows, 2 of them with r = 0); one line marked `plan` over the
library `certify` reports and S_f values on the hand-made pairs, with
those 46 generators passed as one set (one term plan over generators of
every family, conjugates whose family has no closed form among them);
one line marked `api` over the
sorted (name, module, qualified or type name) of each object that
`qfdiv.__all__` names; and last, three fuzz
configurations rerun in the same process, marked `warm`: the first (the
default catalog), the `--seed 20` one (explicit tsallis and kl specs,
parsed afresh after earlier runs filled the per-process caches) and the
`--seed 13 --eps-invert 0.01` one (blocks that hold skipped trials, so
fuzz takes their kept rows with those caches filled).  The digests
depend on the numpy/LAPACK/BLAS build, so they compare two commits on
one machine; they are not a test.

Each fuzz configuration and tolerance of `run_all_checks` prints two
lines: a value digest of the whole output, and a status digest marked
`status`, of the exit code, `summary.checks` and the violation count for
fuzz, and of each report's status and link verdicts for
`run_all_checks`.  A declared output change (new rounding of a term, a
closed form in place of a grid) may move value digests, each one
explained; status digests may not move, short of a named link that
rounding decides at a tolerance of 1e-300.
Imports the standard library and the qfdiv under ./src only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (qfdiv's own dependency)

import qfdiv  # noqa: E402
from qfdiv.classical import distribution_to_json  # noqa: E402
from qfdiv.cli import main, report_to_json  # noqa: E402
from qfdiv.generators import (  # noqa: E402
    DEFAULT_SPECS,
    conjugate,
    jensen_gap_bound,
    parse_generator_spec,
    psi_sup,
    secant_bound,
)
from qfdiv.harness import (  # noqa: E402
    check_derivative_gap,
    check_nonneg,
    check_thm2,
    check_thm3,
    check_thm4,
    check_thm5,
    certify,
    run_all_checks,
    sample_pair,
)
from qfdiv.hermitian import _json_num, matrix_to_json  # noqa: E402

FUZZ_CONFIGS = (
    *(("fuzz", "--sampler", kind, "--dim", str(d), "--trials", "20", "--seed", "11")
      for kind in ("ginibre", "mixture", "commuting") for d in (3, 4, 8)),
    ("fuzz", "--dim", "3", "--trials", "25", "--seed", "42"),
    ("fuzz", "--dim", "3", "--trials", "25", "--seed", "42", "--jobs", "4"),
    ("fuzz", "--sampler", "mixture", "--dim", "3", "--trials", "30", "--seed", "5",
     "--allow-singular"),
    ("fuzz", "--sampler", "commuting", "--dim", "5", "--trials", "30", "--seed", "6",
     "--allow-singular"),
    ("fuzz", "--dim", "3", "--trials", "10", "--seed", "1", "--tol", "1e-300"),
    ("fuzz", "--sampler", "mixture", "--dim", "4", "--trials", "8", "--seed", "2",
     "--tol", "1e-300"),
    ("fuzz", "--sampler", "commuting", "--dim", "2", "--trials", "10", "--seed", "3",
     "--tol", "1e-300"),
    ("fuzz", "--dim", "4", "--trials", "30", "--seed", "9", "--floor", "1e-3"),
    ("fuzz", "--dim", "16", "--trials", "3", "--seed", "3000031"),
    ("fuzz", "--dim", "2", "--trials", "20", "--seed", "4", "--eps-invert", "0.5"),
    ("fuzz", "--dim", "4", "--trials", "20", "--seed", "12", "--generator", "kl-quantum",
     "--generator", "tv", "--generator", "chi2", "--generator", "hellinger"),
    ("fuzz", "--dim", "3", "--trials", "37", "--seed", "13", "--eps-invert", "0.01"),
    ("fuzz", "--dim", "3", "--trials", "37", "--seed", "13", "--tol", "1e-300"),
    # Skipped trials and failing links in the same blocks.
    ("fuzz", "--dim", "3", "--trials", "37", "--seed", "2", "--eps-invert", "0.01", "--tol",
     "1e-300"),
    ("fuzz", "--dim", "4", "--trials", "100", "--seed", "7"),
    ("fuzz", "--dim", "2", "--trials", "50", "--seed", "8"),
    # Every window degenerate (r = R = 1).
    ("fuzz", "--dim", "1", "--trials", "20", "--seed", "14"),
    # Only generators with a derivative kink.
    ("fuzz", "--dim", "3", "--trials", "20", "--seed", "15", "--generator", "tv",
     "--generator", "matsushita:alpha=1", "--generator", "arimoto:alpha=inf",
     "--generator", "chi-alpha:alpha=1", "--generator", "puri-vincze:alpha=1"),
    ("fuzz", "--sampler", "commuting", "--dim", "2", "--trials", "20", "--seed", "16",
     "--generator", "neg-log"),
    # A 16-pair block, then a 3-pair block, with a whole-grid generator repeated.
    ("fuzz", "--dim", "5", "--trials", "19", "--seed", "17", "--generator", "chi2",
     "--generator", "chi-alpha:alpha=2", "--generator", "chi2", "--generator", "neg-log",
     "--generator", "tv"),
    # The CLI-reachable generators that declare no psi_peak, so psi_sups takes
    # their grids: a 16-pair block, then a 1-pair block.
    ("fuzz", "--dim", "4", "--trials", "17", "--seed", "18", "--floor", "1e-3",
     "--generator", "chi-alpha:alpha=1.5", "--generator", "chi-alpha:alpha=3",
     "--generator", "matsushita:alpha=0.3", "--generator", "puri-vincze:alpha=3",
     "--generator", "arimoto:alpha=3"),
    # 198 near-tight links, of which the first block lists 80: the cap of
    # 100 listed entries is reached in a later block.
    ("fuzz", "--dim", "3", "--trials", "40", "--seed", "19", "--generator", "tv"),
    # Two tsallis columns with different q and an aliased kl pair, across a
    # 16-pair and a 1-pair block: each family's closed forms on its own columns.
    ("fuzz", "--dim", "4", "--trials", "17", "--seed", "20", "--generator", "tsallis:q=0.2",
     "--generator", "kl", "--generator", "tsallis:q=0.8", "--generator", "neg-log",
     "--generator", "kl-quantum"),
    # Dirichlet weights on rows long enough that a pairwise sum would round
    # differently from a sequential one, across a 16-pair and a 4-pair block.
    *(("fuzz", "--sampler", kind, "--dim", str(d), "--trials", "20", "--seed", "21")
      for kind in ("mixture", "commuting") for d in (16, 33)),
    # 65536 ratio points in a 16-pair block: the term pass evaluates one
    # generator per chunk of quantum.STACK_POINTS values.
    ("fuzz", "--sampler", "mixture", "--dim", "64", "--trials", "17", "--seed", "22"),
    # Blocks that mix Q ranks at eps 0.01 (9 skipped trials), through a kinked,
    # a quadratic and a grid-sup generator and neg-log's swapped chi-square.
    ("fuzz", "--dim", "3", "--trials", "37", "--seed", "21", "--eps-invert", "0.01", "--generator", "tv",
     "--generator", "neg-log", "--generator", "dichotomy:alpha=2", "--generator", "chi-alpha:alpha=3"),
)

# The configurations rerun last, marked `warm`: the first, the explicit-spec
# one, and one whose blocks hold skipped trials.
WARM_CONFIGS = (FUZZ_CONFIGS[0], next(argv for argv in FUZZ_CONFIGS if argv[5:7] == ("--seed", "20")),
                next(argv for argv in FUZZ_CONFIGS if argv[5:] == ("--seed", "13", "--eps-invert", "0.01")))

# The configurations also run with `--out`: one that passes, one with violations.
FUZZ_OUT_CONFIGS = (
    ("fuzz", "--sampler", "ginibre", "--dim", "3", "--trials", "20", "--seed", "11"),
    ("fuzz", "--dim", "3", "--trials", "10", "--seed", "1", "--tol", "1e-300"),
)

EXTRA_SPECS = (
    "chi-alpha:alpha=3", "chi-alpha:alpha=1.5", "tsallis:q=0.2", "tsallis:q=0.8",
    "dichotomy:alpha=0.25", "matsushita:alpha=0.3", "puri-vincze:alpha=3",
    "arimoto:alpha=3", "arimoto:alpha=1.5", "chi-alpha:alpha=1", "puri-vincze:alpha=1",
)


# Windows for the `scalar` line, r = 0 among them; secant_bound skips those
# outside 0 <= r <= 1 <= R.  Points for the scalar generator calls, and for
# one array call on the positive ones.
SCALAR_WINDOWS = ((0.0, 1.5), (0.0, 30.0), (0.25, 4.0), (0.5, 1.0), (1.0, 2.0), (0.999, 1.001),
                  (1e-9, 1e9), (2.0, 5.0))
SCALAR_POINTS = (0.0, 1e-12, 0.25, 1.0, 3.5, 1e12)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def low_rank(dim: int, rank: int, seed: int) -> np.ndarray:
    """A fixed rank-`rank` density matrix G G* / tr, G a (dim, rank) Gaussian."""
    g = rng(seed).standard_normal((2, dim, rank))
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pairs() -> list:
    """Hand-made pairs, then sampled ones: (name, Q, P) with plain matrices."""
    out = [
        ("example-a", np.diag([0.75, 0.25]), np.diag([0.5, 0.5])),
        ("example-b", np.array([[0.5, 0.25], [0.25, 0.5]]), np.diag([0.7, 0.3])),
        ("mixed-5", np.eye(5) / 5.0, np.eye(5) / 5.0),
        ("singular-q", np.diag([0.6, 0.4, 0.0]), np.diag([0.5, 0.3, 0.2])),
        # Rank-deficient Q not commuting with P: zero ratios on a rotated basis.
        ("rank2-d3", 0.3 * np.outer([1, 1, 0], [1, 1, 0])
         + 0.4 / 3.0 * np.outer([1, -1, 1], [1, -1, 1]), np.diag([0.5, 0.3, 0.2])),
        ("rank3-d8", low_rank(8, 3, 101), sample_pair("ginibre", 8, 1e-3, rng(102))[1].matrix),
        # A window 4e-11 wide around 1, where a formula that cancels leaves
        # sup Psi mostly rounding.
        ("narrow", np.diag([0.5 + 1e-11, 0.5 - 1e-11]), np.eye(2) / 2.0),
    ]
    seed = 0
    for kind in ("ginibre", "mixture", "commuting"):
        for d in (1, 2, 3, 4, 8, 16):
            for floor in (0.0, 1e-3):
                seed += 1
                q, p = sample_pair(kind, d, floor, rng(seed))
                out.append((f"{kind}-d{d}-floor{floor:g}", q.matrix, p.matrix))
    return out


HAND_MADE = 7

# Thermal pairs P ~ e^-n, Q ~ e^-2n (n < N) for `spectrum --eps-invert 1e-14`.
# P's least eigenvalue lies above the clamp ZERO_EIGENVALUE_TOL ||P||_F at
# N = 30 (1.61e-13 against 6.80e-14; exit 0) and below it at N = 31
# (5.92e-14; clamped to 0, so P is singular: exit 3).
THERMAL_SIZES = (30, 31)


def thermal(size: int, beta: float) -> np.ndarray:
    weights = np.exp(-beta * np.arange(float(size)))
    return np.diag(weights / weights.sum())


# Runs on bad input, each digested with its exit code, stdout and stderr;
# ERROR_FILES holds the text of the files they read.
ERROR_RUNS = (
    ("malformed-json", ("compute", "--q", "bad.json", "--p", "bad.json")),
    ("unknown-generator", ("fuzz", "--trials", "1", "--generator", "nope")),
    ("zero-tol", ("fuzz", "--trials", "1", "--tol", "0")),
    ("singular-p", ("certify", "--q", "q2.json", "--p", "p2-singular.json")),
    ("dimension-mismatch", ("compute", "--q", "q2.json", "--p", "p3.json")),
    ("spectrum-singular-p", ("spectrum", "--q", "q2.json", "--p", "p2-singular.json")),
)
# The runs above that are also made as `python -m qfdiv` processes: one
# that exits 2 and one that exits 3.
PROCESS_ERROR_RUNS = ("malformed-json", "singular-p")
ERROR_FILES = {
    "bad.json": '{"dim": 2,',
    **{name: json.dumps(matrix_to_json(m)) for name, m in (
        ("q2.json", np.eye(2) / 2.0), ("p2-singular.json", np.diag([1.0, 0.0])), ("p3.json", np.eye(3) / 3.0))},
}

# (name, q, p) weight vectors for `classical`: zero weights on either
# side, and disjoint supports.
DISTRIBUTIONS = (
    ("uniform-3", [1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25]),
    ("skewed-4", [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]),
    ("zero-q", [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]),
    ("zero-p", [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]),
    ("disjoint", [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.75, 0.25]),
)


def certify_cases(cases) -> list:
    """The hand-made pairs and every third sampled pair above d = 1: 17."""
    sampled = [c for c in cases[HAND_MADE:] if c[1].shape[0] > 1]
    return cases[:HAND_MADE] + sampled[::3]


def digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_main(argv) -> tuple:
    """main(argv)'s exit code, stdout and stderr."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, buf.getvalue(), err.getvalue()


def run_cli(argv) -> str:
    code, out, err = run_main(argv)
    return f"exit={code}\n{out}stderr:\n{err}"


def run_process(argv) -> str:
    """run_cli's text for `python -m qfdiv argv` in a fresh interpreter that
    imports qfdiv from ./src, so it covers how the process exits."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-m", "qfdiv", *argv], capture_output=True, text=True, env=env,
                          check=False)
    return f"exit={proc.returncode}\n{proc.stdout}stderr:\n{proc.stderr}"


def fuzz_status(code: int, out: str) -> str:
    """The exit code, summary.checks and violation count of fuzz stdout."""
    summary = json.loads(out)["summary"] if code in (0, 1) else None
    return json.dumps([code, summary and [summary["checks"], summary["violations"]]])


def verdicts(rep) -> list:
    """A report's check, status and link verdicts, with its subchains'."""
    return [rep.check, rep.status, list(rep.link_verdicts), [verdicts(s) for s in rep.subchains]]


def write_pair(q, p, to_json) -> None:
    """Write q.json and p.json in the current directory."""
    for which, x in (("q", q), ("p", p)):
        with open(f"{which}.json", "w", encoding="utf-8") as fh:
            json.dump(to_json(x), fh)


def run_cli_out(argv) -> str:
    """run_cli with `--out out.json` appended, followed by the file it wrote."""
    out = run_cli((*argv, "--out", "out.json"))
    with open("out.json", encoding="utf-8") as fh:
        return f"{out}file:\n{fh.read()}"


def scalar_digest(generators) -> str:
    """sha256 over each generator's scalar calls: f, f'_+ and f'_- at
    SCALAR_POINTS, f on the positive ones as an array, and psi_sup,
    secant_bound and jensen_gap_bound on SCALAR_WINDOWS; an error is
    digested as its type and message."""
    def attempt(fn, *args):
        try:
            value = fn(*args)
        except (ValueError, ArithmeticError) as exc:
            return [type(exc).__name__, str(exc)]
        return np.asarray(value, dtype=np.float64).tolist()

    h = hashlib.sha256()
    positive = np.array([t for t in SCALAR_POINTS if t > 0.0])
    for f in generators:
        doc = [f.spec, attempt(f, positive)]
        doc += [[attempt(call, t) for call in (f, f.deriv_right, f.deriv_left)] for t in SCALAR_POINTS]
        doc += [[attempt(bound, f, r, R) for bound in (psi_sup, jensen_gap_bound)]
                + ([attempt(secant_bound, f, r, R)] if r <= 1.0 <= R else []) for r, R in SCALAR_WINDOWS]
        h.update(json.dumps(doc).encode())
    return h.hexdigest()


CHECKS = (check_nonneg, check_derivative_gap, check_thm2, check_thm3, check_thm4, check_thm5)


def checks_digest(cases, generators) -> str:
    """sha256 over the report of each check_* function on each pair and
    generator, with S_f computed and with sf=-1.0; an error is digested as
    its type and message."""
    h = hashlib.sha256()
    for _, q, p in cases:
        for f in generators:
            for check in CHECKS:
                for sf in (None, -1.0):
                    try:
                        doc = report_to_json(check(q, p, f, sf=sf))
                    except (ValueError, ArithmeticError) as exc:
                        doc = {"error": type(exc).__name__, "message": str(exc)}
                    h.update(json.dumps([check.__name__, sf, doc]).encode())
    return h.hexdigest()


def plan_digest(cases, generators) -> str:
    """sha256 over library certify on each pair with every generator passed
    as one set, so one term plan serves them all: each generator's S_f, its
    flags and its reports; an error is digested as its type and message."""
    h = hashlib.sha256()
    for _, q, p in cases:
        try:
            doc = [[value.generator, _json_num(value.value), list(value.flags),
                    [report_to_json(rep) for rep in reports]] for value, reports in certify(q, p, generators)]
        except (ValueError, ArithmeticError) as exc:
            doc = {"error": type(exc).__name__, "message": str(exc)}
        h.update(json.dumps(doc).encode())
    return h.hexdigest()


def api_digest() -> str:
    """sha256 over the sorted (name, __module__, __qualname__ or type name)
    of the objects that qfdiv.__all__ names."""
    rows = []
    for name in qfdiv.__all__:
        obj = getattr(qfdiv, name)
        rows.append((name, getattr(obj, "__module__", None), getattr(obj, "__qualname__", type(obj).__name__)))
    return digest(json.dumps(sorted(rows)))


def main_() -> None:
    os.environ.pop("QFDIV_SEED", None)
    os.environ["QFDIV_TIMESTAMP"] = "2026-01-01T00:00:00Z"
    for argv in FUZZ_CONFIGS:
        code, out, err = run_main(argv)
        print(digest(f"exit={code}\n{out}stderr:\n{err}"), " ".join(argv))
        print(digest(fuzz_status(code, out)), "status", " ".join(argv))

    cases = pairs()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = ("--q", "q.json", "--p", "p.json")
            for argv in FUZZ_OUT_CONFIGS:
                print(digest(run_cli_out(argv)), " ".join(argv), "--out")
            for i, (name, q, p) in enumerate(certify_cases(cases)):
                write_pair(q, p, matrix_to_json)
                for cmd in ("certify", "compute"):
                    for fmt in ("json", "csv"):
                        out = run_cli((cmd, *files, "--format", fmt))
                        print(digest(out), cmd, name, fmt)
                        if i < HAND_MADE:
                            out = run_cli_out((cmd, *files, "--format", fmt))
                            print(digest(out), cmd, name, fmt, "--out")
                print(digest(run_cli(("spectrum", *files))), "spectrum", name)
                print(digest(run_cli_out(("spectrum", *files))), "spectrum", name, "--out")
            for size in THERMAL_SIZES:
                write_pair(thermal(size, 2.0), thermal(size, 1.0), matrix_to_json)
                argv = ("spectrum", *files, "--eps-invert", "1e-14")
                print(digest(run_cli(argv)), "spectrum", f"thermal-{size}", "--eps-invert 1e-14")
            for name, q, p in DISTRIBUTIONS:
                write_pair(q, p, distribution_to_json)
                print(digest(run_cli(("classical", *files))), "classical", name)
                print(digest(run_cli_out(("classical", *files))), "classical", name, "--out")
            for path, text in ERROR_FILES.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for name, argv in ERROR_RUNS:
                print(digest(run_cli(argv)), "error", name)
            name, q, p = cases[0]
            write_pair(q, p, matrix_to_json)
            runs = [(f"certify {name} {fmt}", ("certify", *files, "--format", fmt)) for fmt in ("json", "csv")]
            runs.append((" ".join(FUZZ_CONFIGS[0]), FUZZ_CONFIGS[0]))
            runs += [(f"error {name}", argv) for name, argv in ERROR_RUNS if name in PROCESS_ERROR_RUNS]
            for label, argv in runs:
                print(digest(run_process(argv)), "process", label)
        finally:
            os.chdir(cwd)

    generators = [parse_generator_spec(s) for s in (*DEFAULT_SPECS, *EXTRA_SPECS)]
    for tol in (1e-9, 1e-300):
        h, status = hashlib.sha256(), hashlib.sha256()
        for name, q, p in cases:
            for f in generators:
                try:
                    reports = run_all_checks(q, p, f, tol=tol)
                    doc, brief = [report_to_json(rep) for rep in reports], [verdicts(rep) for rep in reports]
                except (ValueError, ArithmeticError) as exc:
                    doc = {"error": type(exc).__name__, "message": str(exc)}
                    brief = {"error": type(exc).__name__}
                h.update(json.dumps(doc).encode())
                status.update(json.dumps(brief).encode())
        what = f"run_all_checks pairs={len(cases)} generators={len(generators)} tol={tol:g}"
        print(h.hexdigest(), what)
        print(status.hexdigest(), "status", what)

    print(checks_digest(cases[:HAND_MADE], generators), "checks",
          f"pairs={HAND_MADE} generators={len(generators)} sf=computed,-1")

    generators += [conjugate(f) for f in generators]
    print(scalar_digest(generators), "scalar", f"generators={len(generators)} windows={len(SCALAR_WINDOWS)}")
    print(plan_digest(cases[:HAND_MADE], generators), "plan", f"pairs={HAND_MADE} generators={len(generators)}")

    print(api_digest(), "api", f"names={len(qfdiv.__all__)}")

    # Three fuzz configurations again, after every other run has warmed the
    # per-process caches: each digest must equal its first line's.
    for argv in WARM_CONFIGS:
        code, out, err = run_main(argv)
        print(digest(f"exit={code}\n{out}stderr:\n{err}"), "warm", " ".join(argv))


if __name__ == "__main__":
    main_()
