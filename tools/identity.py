"""Print sha256 digests of qfdiv's deterministic outputs, one per line.

Usage, from the repository root:

    python3 tools/identity.py > before.txt      # on the old commit
    python3 tools/identity.py | diff before.txt -   # on the new one

It covers `fuzz` stdout on 28 configurations, `certify` JSON and CSV on
16 pairs (with QFDIV_TIMESTAMP fixed) and `run_all_checks` reports as
JSON over sampled and hand-made pairs, every generator of a 21-entry
list and two tolerances.  The digests depend on the numpy/LAPACK/BLAS
build, so they compare two commits on one machine; they are not a test.
Imports the standard library and the qfdiv under ./src only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (qfdiv's own dependency)

from qfdiv.cli import main, report_to_json  # noqa: E402
from qfdiv.generators import DEFAULT_SPECS, parse_generator_spec  # noqa: E402
from qfdiv.harness import run_all_checks, sample_pair  # noqa: E402
from qfdiv.hermitian import matrix_to_json  # noqa: E402

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
    ("fuzz", "--dim", "4", "--trials", "100", "--seed", "7"),
    ("fuzz", "--dim", "2", "--trials", "50", "--seed", "8"),
    # Every window degenerate (r = R = 1).
    ("fuzz", "--dim", "1", "--trials", "20", "--seed", "14"),
    # Only generators with a derivative kink.
    ("fuzz", "--dim", "3", "--trials", "20", "--seed", "15", "--generator", "tv",
     "--generator", "matsushita:alpha=1", "--generator", "arimoto:alpha=inf"),
    ("fuzz", "--sampler", "commuting", "--dim", "2", "--trials", "20", "--seed", "16",
     "--generator", "neg-log"),
    # A 16-pair block, then a 3-pair block, with a whole-grid generator repeated.
    ("fuzz", "--dim", "5", "--trials", "19", "--seed", "17", "--generator", "chi2",
     "--generator", "chi-alpha:alpha=2", "--generator", "chi2", "--generator", "neg-log",
     "--generator", "tv"),
)

EXTRA_SPECS = (
    "chi-alpha:alpha=3", "chi-alpha:alpha=1.5", "tsallis:q=0.2", "tsallis:q=0.8",
    "dichotomy:alpha=0.25", "matsushita:alpha=0.3", "puri-vincze:alpha=3",
    "arimoto:alpha=3", "arimoto:alpha=1.5",
)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def pairs() -> list:
    """Hand-made pairs, then sampled ones: (name, Q, P) with plain matrices."""
    out = [
        ("example-a", np.diag([0.75, 0.25]), np.diag([0.5, 0.5])),
        ("example-b", np.array([[0.5, 0.25], [0.25, 0.5]]), np.diag([0.7, 0.3])),
        ("mixed-5", np.eye(5) / 5.0, np.eye(5) / 5.0),
        ("singular-q", np.diag([0.6, 0.4, 0.0]), np.diag([0.5, 0.3, 0.2])),
    ]
    seed = 0
    for kind in ("ginibre", "mixture", "commuting"):
        for d in (1, 2, 3, 4, 8, 16):
            for floor in (0.0, 1e-3):
                seed += 1
                q, p = sample_pair(kind, d, floor, rng(seed))
                out.append((f"{kind}-d{d}-floor{floor:g}", q.matrix, p.matrix))
    return out


def certify_cases(cases) -> list:
    """The 4 hand-made pairs and every third sampled pair above d = 1: 16."""
    sampled = [c for c in cases[4:] if c[1].shape[0] > 1]
    return cases[:4] + sampled[::3]


def digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_cli(argv) -> str:
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"exit={code}\n{buf.getvalue()}stderr:\n{err.getvalue()}"


def main_() -> None:
    os.environ.pop("QFDIV_SEED", None)
    os.environ["QFDIV_TIMESTAMP"] = "2026-01-01T00:00:00Z"
    for argv in FUZZ_CONFIGS:
        print(digest(run_cli(argv)), " ".join(argv))

    cases = pairs()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, q, p in certify_cases(cases):
                for which, m in (("q", q), ("p", p)):
                    with open(f"{which}.json", "w", encoding="utf-8") as fh:
                        json.dump(matrix_to_json(m), fh)
                for fmt in ("json", "csv"):
                    out = run_cli(("certify", "--q", "q.json", "--p", "p.json", "--format", fmt))
                    print(digest(out), "certify", name, fmt)
        finally:
            os.chdir(cwd)

    generators = [parse_generator_spec(s) for s in (*DEFAULT_SPECS, *EXTRA_SPECS)]
    for tol in (1e-9, 1e-300):
        h = hashlib.sha256()
        for name, q, p in cases:
            for f in generators:
                try:
                    doc = [report_to_json(rep) for rep in run_all_checks(q, p, f, tol=tol)]
                except (ValueError, ArithmeticError) as exc:
                    doc = {"error": type(exc).__name__, "message": str(exc)}
                h.update(json.dumps(doc).encode())
        print(h.hexdigest(), f"run_all_checks pairs={len(cases)} "
              f"generators={len(generators)} tol={tol:g}")


if __name__ == "__main__":
    main_()
