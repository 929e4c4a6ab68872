"""Command-line front end: compute, certify, fuzz, spectrum, classical.

Exit codes: 0 success / all chains pass, 1 an inequality violation was
found, 2 usage or parse error, 3 a mathematical precondition failed,
4 numerical failure (an ArithmeticError, such as an overlap matrix that
lost double stochasticity).  fuzz records a trial that fails numerically
as skipped, with the reason, and goes on.

Every output file embeds a run manifest (command line, input digests,
seed, tolerances, tool and numpy versions, timestamp).  Setting
QFDIV_TIMESTAMP pins the manifest timestamp, so re-running the recorded
command under the recorded timestamp, with the same numpy/LAPACK build,
reproduces the file byte for byte.  The fuzz summary printed to stdout
carries no timestamp and is byte-identical across reruns; --jobs is
accepted for compatibility and does not change it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .classical import (
    i_f,
    load_distribution,
    range_check,
    refinement_bound_check,
    variation_distance,
)
from .errors import InputFormatError, PreconditionError
from .generators import DEFAULT_SPECS, parse_generator_spec
from .harness import BoundChainReport, FuzzConfig, certify, collect_violations, fuzz
from .hermitian import ZERO_EIGENVALUE_TOL, load_matrix
from .quantum import (
    as_density,
    chi_square,
    hellinger_sq,
    joint_spectrum,
    s_f_from_spectrum,
    tsallis,
    umegaki,
)

__all__ = ["main", "build_parser"]

CSV_COLUMNS = (
    "generator", "value", "closed_form", "gap", "r", "R",
    "bound_thm2", "bound_thm3", "bound_thm4", "bound_thm5", "verdicts",
)
UPPER_EQUALITY_TOL = 1e-12
EPS_INVERT_HELP = (f"invertibility threshold on P's smallest eigenvalue (default 1e-12); those within "
                   f"{ZERO_EIGENVALUE_TOL:g} * ||P||_F of 0 are clamped to 0, so a smaller one has no effect")


def _num(x):
    """JSON-safe number: infinities and NaN become strings."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _manifest(argv, inputs: dict, seed, tolerances: dict) -> dict:
    stamp = os.environ.get("QFDIV_TIMESTAMP")
    if not stamp:
        stamp = datetime.now(timezone.utc).isoformat()
    return {
        "command": ["qfdiv"] + list(argv),
        "inputs": inputs,
        "seed": seed,
        "tolerances": tolerances,
        "version": __version__,
        "numpy": np.__version__,
        **_numpy_build(),
        "timestamp": stamp,
    }


def _numpy_build() -> dict:
    """The BLAS numpy links and the SIMD extensions it was built for and
    found on this CPU: last-ulp results depend on both."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 can only print its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "simd": {"baseline": list(simd.get("baseline", [])), "found": list(simd.get("found", []))},
    }


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(doc: dict, out: str, human_lines) -> None:
    """Write the document to --out, or print it; --out gets a confirmation."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else _dump_json(doc))
        for line in human_lines:
            print(line)
        print(f"wrote {out}")
    else:
        sys.stdout.write(doc if isinstance(doc, str) else _dump_json(doc))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("QFDIV_SEED")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InputFormatError(f"QFDIV_SEED must be an integer, got {env!r}") from exc
    return 0


def _generators(args):
    return tuple(parse_generator_spec(s) for s in args.generator or DEFAULT_SPECS)


# The independent closed form of S_f by family: (Q, P, f, eps) -> value.
_CLOSED_FORMS = {
    "kl-quantum": lambda qd, pd, f, eps: umegaki(qd, pd, eps),
    "chi2": lambda qd, pd, f, eps: chi_square(qd, pd, eps),
    "tsallis": lambda qd, pd, f, eps: tsallis(qd, pd, f.params["q"], eps),
    "hellinger": lambda qd, pd, f, eps: hellinger_sq(qd, pd, eps),
}


def _value_row(qd, pd, js, f, eps, dv=None) -> dict:
    """S_f by the spectral sum (dv, when already computed), its closed form
    when one exists, and their gap."""
    if dv is None:
        dv = s_f_from_spectrum(js, f)
    closed = _CLOSED_FORMS[f.name](qd, pd, f, eps) if f.name in _CLOSED_FORMS else None
    gap = None
    if closed is not None and math.isfinite(dv.value) and math.isfinite(closed):
        gap = abs(dv.value - closed)
    return {
        "generator": f.spec,
        "value": dv.value,
        "closed_form": closed,
        "gap": gap,
        "r": js.r,
        "R": js.R,
        "flags": list(dv.flags),
    }


def report_to_json(rep: BoundChainReport) -> dict:
    return {
        "check": rep.check,
        "generator": rep.generator,
        "status": rep.status,
        "dim": rep.dim,
        "r": rep.r,
        "R": rep.R,
        "chain": [[label, _num(value)] for label, value in rep.chain],
        "slacks": [_num(s) for s in rep.slacks],
        "link_verdicts": list(rep.link_verdicts),
        "flags": list(rep.flags),
        "note": rep.note,
        "subchains": [report_to_json(s) for s in rep.subchains],
    }


def _any_fail(rep: BoundChainReport) -> bool:
    return rep.status == "fail" or any(_any_fail(s) for s in rep.subchains)


def _csv_text(rows: list, manifest: dict) -> str:
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row.get(col, "") for col in CSV_COLUMNS])
    return buf.getvalue()


def _csv_num(x):
    return "" if x is None else repr(float(x))


def _csv_row(row: dict) -> dict:
    """The CSV cells of a row: strings as they are, numbers through _csv_num."""
    return {k: v if isinstance(v, str) else _csv_num(v)
            for k, v in row.items() if k in CSV_COLUMNS}


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args, argv) -> int:
    qd = as_density(load_matrix(args.q))
    pd = as_density(load_matrix(args.p))
    eps = args.eps_invert
    js = joint_spectrum(qd, pd, eps)
    manifest = _manifest(argv, {"q": _sha256(args.q), "p": _sha256(args.p)},
                         None, {"eps_invert": eps})

    results = [_value_row(qd, pd, js, f, eps) for f in _generators(args)]

    human = [f"{row['generator']}: value={row['value']!r}"
             + (f" closed_form={row['closed_form']!r} gap={row['gap']!r}"
                if row["closed_form"] is not None else "")
             for row in results]
    human.append(f"r={js.r!r} R={js.R!r}")

    if args.format == "csv":
        _emit(_csv_text([_csv_row(row) for row in results], manifest), args.out, human)
    else:
        doc = {"manifest": manifest,
               "results": [{k: _num(v) if not isinstance(v, list) else v
                            for k, v in row.items()} for row in results]}
        _emit(doc, args.out, human)
    return 0


def _final_bounds(reports) -> dict:
    """Map thm2..thm5 to the last chain value (None when skipped)."""
    out = {}
    for rep in reports:
        if rep.check in ("thm2", "thm3", "thm4", "thm5"):
            out[f"bound_{rep.check}"] = None if rep.status == "skipped" else rep.chain[-1][1]
    return out


def cmd_certify(args, argv) -> int:
    qd = as_density(load_matrix(args.q))
    pd = as_density(load_matrix(args.p))
    eps = args.eps_invert
    tol = args.tol
    js = joint_spectrum(qd, pd, eps)
    manifest = _manifest(argv, {"q": _sha256(args.q), "p": _sha256(args.p)},
                         None, {"tol": tol, "eps_invert": eps})

    all_reports = []
    rows = []
    generators = _generators(args)
    for f, (dv, reports) in zip(generators, certify(qd, pd, generators, js=js, tol=tol, eps=eps)):
        if os.environ.get("QFDIV_SELFTEST_CORRUPT"):
            reports = tuple(
                dataclasses.replace(
                    rep, status="fail",
                    note="self-test hook: verdict deliberately corrupted")
                if rep.check == "thm3" and rep.status != "skipped" else rep
                for rep in reports
            )
        all_reports.extend(reports)
        rows.append(_csv_row({
            **_value_row(qd, pd, js, f, eps, dv),
            **_final_bounds(reports),
            "verdicts": ";".join(f"{rep.check}={rep.status}" for rep in reports),
        }))

    failed = [rep for rep in all_reports if _any_fail(rep)]
    status = "fail" if failed else "pass"
    violations = []
    for rep in all_reports:
        violations.extend(v.to_json() for v in collect_violations(rep, 0, 0, qd, pd))

    human = []
    for rep in all_reports:
        human.append(f"{rep.generator} {rep.check}: {rep.status}"
                     + (f" [{', '.join(rep.flags)}]" if rep.flags else ""))
        for sub in rep.subchains:
            human.append(f"  {sub.check}: {sub.status}"
                         + (f" [{', '.join(sub.flags)}]" if sub.flags else ""))
    human.append(f"overall: {status}")

    if args.format == "csv":
        _emit(_csv_text(rows, manifest), args.out, human)
    else:
        doc = {
            "manifest": manifest,
            "status": status,
            "reports": [report_to_json(rep) for rep in all_reports],
            "violations": violations,
        }
        _emit(doc, args.out, human)
    return 1 if failed else 0


def cmd_fuzz(args, argv) -> int:
    generators = _generators(args)
    floor = args.floor
    if args.allow_singular:
        floor = 0.0
        generators = tuple(g for g in generators if math.isfinite(g.value_at_zero))
        if not generators:
            raise InputFormatError(
                "--allow-singular left no generators: all requested ones are infinite at 0")
    config = FuzzConfig(dim=args.dim, trials=args.trials, seed=_resolve_seed(args), sampler=args.sampler,
                        floor=floor, generators=generators, tol=args.tol, eps=args.eps_invert, jobs=args.jobs)
    result = fuzz(config)

    # Deterministic stdout: summary and violations only, never a timestamp.
    stdout_doc = {
        "summary": result.summary,
        "violations": [v.to_json() for v in result.violations],
    }
    sys.stdout.write(_dump_json(stdout_doc))

    if args.out:
        manifest = _manifest(argv, {}, config.seed,
                             {"tol": config.tol, "eps_invert": config.eps})
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump_json({"manifest": manifest, **stdout_doc}))
    return 1 if result.violations else 0


def cmd_spectrum(args, argv) -> int:
    qd = as_density(load_matrix(args.q))
    pd = as_density(load_matrix(args.p))
    eps = args.eps_invert
    js = joint_spectrum(qd, pd, eps)
    manifest = _manifest(argv, {"q": _sha256(args.q), "p": _sha256(args.p)},
                         None, {"eps_invert": eps})
    doc = {
        "manifest": manifest,
        "eigenvalues_q": js.lam.tolist(),
        "eigenvalues_p": js.mu.tolist(),
        "overlap": js.w.tolist(),
        "overlap_defect": {"rows": js.defect[0], "columns": js.defect[1]},
        "r": js.r,
        "R": js.R,
    }
    human = [
        "eigenvalues-q: " + " ".join(repr(float(x)) for x in js.lam),
        "eigenvalues-p: " + " ".join(repr(float(x)) for x in js.mu),
        "overlap:",
    ]
    human += ["  " + " ".join(repr(float(x)) for x in row) for row in js.w]
    human += [f"r: {js.r!r}", f"R: {js.R!r}"]
    if args.out:
        _emit(doc, args.out, human)
    else:
        for line in human:
            print(line)
        sys.stdout.write(_dump_json(doc))
    return 0


def cmd_classical(args, argv) -> int:
    q = load_distribution(args.q)
    p = load_distribution(args.p)
    manifest = _manifest(argv, {"q": _sha256(args.q), "p": _sha256(args.p)},
                         None, {"tol": args.tol})

    results = []
    human = []
    for f in _generators(args):
        value = i_f(q, p, f)
        rng_rep = range_check(q, p, f, tol=args.tol)
        ref_rep = refinement_bound_check(q, p, f, tol=args.tol)
        lower = rng_rep.terms[0][1]
        upper = rng_rep.terms[2][1]
        refinement = ref_rep.terms[2][1]
        flags = []
        if math.isfinite(upper) and abs(value - upper) <= UPPER_EQUALITY_TOL * max(1.0, abs(upper)):
            flags.append("upper-equality")
        results.append({
            "generator": f.spec,
            "value": _num(value),
            "lower": _num(lower),
            "upper": _num(upper),
            "refinement_bound": _num(refinement),
            "variation": variation_distance(q, p),
            "range_ok": rng_rep.ok,
            "refinement_ok": ref_rep.ok,
            "flags": flags,
        })
        human.append(f"{f.spec}: value={value!r} upper={upper!r}"
                     + (" [upper-equality]" if flags else ""))

    doc = {"manifest": manifest, "results": results}
    _emit(doc, args.out, human)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, files=True, tol=True, tol_default=1e-9):
    if files:
        sub.add_argument("--q", required=True, help="path to the Q input file")
        sub.add_argument("--p", required=True, help="path to the P input file")
    sub.add_argument("--generator", action="append", metavar="SPEC",
                     help="generator spec, e.g. kl-quantum or chi-alpha:alpha=2 (repeatable; "
                          "default: the full catalog)")
    if tol:
        sub.add_argument("--tol", type=float, default=tol_default,
                         help=f"inequality tolerance (default {tol_default}, "
                              "scaled by the bound size)")
    sub.add_argument("--out", help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfdiv",
        description="f-divergences of density matrices with certified bound chains")
    parser.add_argument("--version", action="version", version=f"qfdiv {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("compute", help="divergence values and closed-form gaps")
    _add_common(sp, tol=False)
    sp.add_argument("--eps-invert", type=float, default=1e-12, help=EPS_INVERT_HELP)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_compute)

    sp = subs.add_parser("certify", help="evaluate every bound chain on one pair")
    _add_common(sp)
    sp.add_argument("--eps-invert", type=float, default=1e-12, help=EPS_INVERT_HELP)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_certify)

    sp = subs.add_parser("fuzz", help="seeded random search for chain violations")
    _add_common(sp, files=False)
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=None,
                    help="trial stream seed (default: QFDIV_SEED or 0)")
    sp.add_argument("--sampler", choices=("ginibre", "commuting", "mixture"),
                    default="ginibre")
    sp.add_argument("--floor", type=float, default=None,
                    help="eigenvalue floor mixed into each sample (default 1e-6/dim)")
    sp.add_argument("--eps-invert", type=float, default=1e-12, help=EPS_INVERT_HELP)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility (>= 1); trials always run serially")
    sp.add_argument("--allow-singular", action="store_true",
                    help="remove the sampling floor and keep only generators finite at 0")
    sp.set_defaults(func=cmd_fuzz)

    sp = subs.add_parser("spectrum", help="joint eigenvalues, overlap matrix, and ratio window")
    sp.add_argument("--q", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--eps-invert", type=float, default=1e-12, help=EPS_INVERT_HELP)
    sp.add_argument("--out", help="write the report to this file")
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("classical", help="divergence of two probability vectors with bounds")
    _add_common(sp, tol_default=1e-10)
    sp.set_defaults(func=cmd_classical)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process (parsing leaves it as it was)."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
