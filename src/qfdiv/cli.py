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
import io
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import __version__
from .classical import (
    distribution_from_json,
    i_f,
    range_check,
    refinement_bound_check,
    variation_distance,
)
from .errors import InputFormatError, PreconditionError
from .generators import default_catalog, parse_generator_spec
from .harness import (DEFAULT_TOL, EQUALITY_TOL, SAMPLER_KINDS, BoundChainReport, FuzzConfig, certify,
                      collect_violations, fuzz)
from .hermitian import ZERO_EIGENVALUE_TOL, _json_num, _load_json, matrix_from_json
from .quantum import (
    DEFAULT_INVERTIBILITY_EPS,
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
EPS_INVERT_HELP = (f"invertibility threshold on P's smallest eigenvalue (default {DEFAULT_INVERTIBILITY_EPS:g}); those "
                   f"within {ZERO_EIGENVALUE_TOL:g} * ||P||_F of 0 are clamped to 0, so a smaller one has no effect")


def _read_pair(args, parse) -> tuple:
    """parse() of the documents in --q and --p, Q read and parsed first, and
    the input digests of the manifest: the sha256 of the bytes parsed."""
    q_doc, q_digest = _load_json(args.q)
    q = parse(q_doc)
    p_doc, p_digest = _load_json(args.p)
    return q, parse(p_doc), {"q": q_digest, "p": p_digest}


def _pair_inputs(args, argv, **tolerances) -> tuple:
    """Q and P loaded and checked from --q and --p, their joint spectrum at
    --eps-invert, and the manifest recording `tolerances` then eps_invert."""
    qd, pd, digests = _read_pair(args, lambda doc: as_density(matrix_from_json(doc)))
    js = joint_spectrum(qd, pd, args.eps_invert)
    return qd, pd, js, _manifest(argv, digests, None, {**tolerances, "eps_invert": args.eps_invert})


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


@functools.cache
def _c_encoder(depth: int):
    """json's C encoder for a container at `depth` of an indent-2 document."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ",
                          ",\n" + "  " * (depth + 1), False, False, True)


def _dump_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) and a newline, byte for byte.

    json.dumps with an indent runs json's pure-Python encoder over every
    value.  Here a scalar, and a container that holds no container, are
    written by one call of json's C encoder (_c_encoder); the newline and
    indent after the opening and before the closing bracket are spliced
    in.  A container of containers is laid out in Python, and its keys
    must be str: another key raises TypeError (json.dumps would convert
    it).  If its children are all dicts, or all lists, that hold no
    container, they are written by one call and split at each separator
    between a closing and an opening bracket; else its scalar children are
    written by one call as a list and split at each separator (each
    newline is a separator's, as the C encoder escapes every control
    character in a string), and the others are laid out in turn.  An
    unserializable value raises json.dumps's TypeError."""
    scalars = frozenset((str, int, float, bool, type(None)))  # tried before the isinstance scan

    def flat(parts) -> bool:
        return scalars.issuperset(map(type, parts)) or not any(isinstance(p, (dict, list, tuple)) for p in parts)

    def encode(obj, depth: int) -> str:
        inner = "\n" + "  " * (depth + 1)
        if isinstance(obj, dict):
            parts = obj.values()
        else:
            parts = obj if isinstance(obj, (list, tuple)) else ()
        if flat(parts):
            text = "".join(_c_encoder(depth)(obj, 0))
            # A scalar or an empty container, as it is; else the brackets on their own lines.
            return text if not parts else text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
        if isinstance(obj, dict):
            for key in obj:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
        kinds = set(map(type, parts))
        if (kinds == {dict} or kinds <= {list, tuple}) and flat(
                [v for p in parts for v in (p.values() if dict in kinds else p)]):
            o, c = "{}" if dict in kinds else "[]"
            bodies = "".join(_c_encoder(depth + 1)(list(parts), 0))[2:-2].split(c + "," + inner + "  " + o)
            children = [o + inner + "  " + body + inner + c if body else o + c for body in bodies]
        else:
            lone = [type(p) in scalars for p in parts]
            texts = iter("".join(_c_encoder(depth)(list(itertools.compress(parts, lone)), 0))[1:-1].split(
                "," + inner) if any(lone) else ())
            children = [next(texts) if scalar else encode(part, depth + 1) for part, scalar in zip(parts, lone)]
        if isinstance(obj, dict):
            children = [encode_basestring_ascii(key) + ": " + child for key, child in zip(obj, children)]
        brackets = "{}" if isinstance(obj, dict) else "[]"
        return brackets[0] + inner + ("," + inner).join(children) + inner[:-2] + brackets[1]

    return encode(doc, 0) + "\n"


def _write(path: str, text: str) -> None:
    """Write the text of an --out file; a path that cannot be written is an
    InputFormatError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _emit(doc: dict, out: str, human_lines) -> None:
    """Write the document to --out, or print it; --out gets a confirmation."""
    if out:
        _write(out, doc if isinstance(doc, str) else _dump_json(doc))
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
    return tuple(map(parse_generator_spec, args.generator)) if args.generator else default_catalog()


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
        "chain": [[label, _json_num(value)] for label, value in rep.chain],
        "slacks": [_json_num(s) for s in rep.slacks],
        "link_verdicts": list(rep.link_verdicts),
        "flags": list(rep.flags),
        "note": rep.note,
        "subchains": [report_to_json(s) for s in rep.subchains],
    }


def _any_fail(rep: BoundChainReport) -> bool:
    return rep.status == "fail" or any(_any_fail(s) for s in rep.subchains)


def _csv_text(rows: list, manifest: dict) -> str:
    """The manifest as a comment line, the header, then a row's CSV_COLUMNS
    cells: a string as it is, a number as repr(float), missing or None empty."""
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else "" if v is None else repr(float(v))
                         for v in map(row.get, CSV_COLUMNS)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args, argv) -> int:
    qd, pd, js, manifest = _pair_inputs(args, argv)
    results = [_value_row(qd, pd, js, f, args.eps_invert) for f in _generators(args)]

    human = [f"{row['generator']}: value={row['value']!r}"
             + (f" closed_form={row['closed_form']!r} gap={row['gap']!r}"
                if row["closed_form"] is not None else "")
             for row in results]
    human.append(f"r={js.r!r} R={js.R!r}")

    if args.format == "csv":
        _emit(_csv_text(results, manifest), args.out, human)
    else:
        doc = {"manifest": manifest, "results": [{k: _json_num(v) for k, v in row.items()} for row in results]}
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
    qd, pd, js, manifest = _pair_inputs(args, argv, tol=args.tol)
    eps = args.eps_invert

    generators = _generators(args)
    results = certify(qd, pd, generators, js=js, tol=args.tol, eps=eps)
    if os.environ.get("QFDIV_SELFTEST_CORRUPT"):
        results = [(dv, tuple(
            dataclasses.replace(rep, status="fail", note="self-test hook: verdict deliberately corrupted")
            if rep.check == "thm3" and rep.status != "skipped" else rep
            for rep in reports)) for dv, reports in results]
    all_reports = [rep for _, reports in results for rep in reports]

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
        # The closed forms in the CSV rows cost functional calculus, so JSON skips them.
        rows = [{
            **_value_row(qd, pd, js, f, eps, dv),
            **_final_bounds(reports),
            "verdicts": ";".join(f"{rep.check}={rep.status}" for rep in reports),
        } for f, (dv, reports) in zip(generators, results)]
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
        if floor is not None:
            raise InputFormatError("--allow-singular removes the sampling floor; do not also give --floor")
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
        _write(args.out, _dump_json({"manifest": manifest, **stdout_doc}))
    return 1 if result.violations else 0


def cmd_spectrum(args, argv) -> int:
    _, _, js, manifest = _pair_inputs(args, argv)
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
    if not args.out:  # the human lines head the document on stdout
        print("\n".join(human))
    _emit(doc, args.out, human)
    return 0


def cmd_classical(args, argv) -> int:
    q, p, digests = _read_pair(args, distribution_from_json)
    manifest = _manifest(argv, digests, None, {"tol": args.tol})

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
        if math.isfinite(upper) and abs(value - upper) <= EQUALITY_TOL * max(1.0, abs(upper)):
            flags.append("upper-equality")
        results.append({
            "generator": f.spec,
            "value": _json_num(value),
            "lower": _json_num(lower),
            "upper": _json_num(upper),
            "refinement_bound": _json_num(refinement),
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


def _add_common(sub, *, files=True, tol=True, tol_default=DEFAULT_TOL):
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
    sp.add_argument("--eps-invert", type=float, default=DEFAULT_INVERTIBILITY_EPS, help=EPS_INVERT_HELP)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_compute)

    sp = subs.add_parser("certify", help="evaluate every bound chain on one pair")
    _add_common(sp)
    sp.add_argument("--eps-invert", type=float, default=DEFAULT_INVERTIBILITY_EPS, help=EPS_INVERT_HELP)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_certify)

    sp = subs.add_parser("fuzz", help="seeded random search for chain violations")
    _add_common(sp, files=False)
    sp.add_argument("--dim", type=int, default=FuzzConfig.dim)
    sp.add_argument("--trials", type=int, default=FuzzConfig.trials)
    sp.add_argument("--seed", type=int, default=None,
                    help="trial stream seed (default: QFDIV_SEED or 0)")
    sp.add_argument("--sampler", choices=SAMPLER_KINDS, default=FuzzConfig.sampler)
    sp.add_argument("--floor", type=float, default=None,
                    help="eigenvalue floor mixed into each sample (default 1e-6/dim)")
    sp.add_argument("--eps-invert", type=float, default=DEFAULT_INVERTIBILITY_EPS, help=EPS_INVERT_HELP)
    sp.add_argument("--jobs", type=int, default=FuzzConfig.jobs,
                    help="accepted for compatibility (>= 1); trials always run serially")
    sp.add_argument("--allow-singular", action="store_true",
                    help="remove the sampling floor and keep only generators finite at 0")
    sp.set_defaults(func=cmd_fuzz)

    sp = subs.add_parser("spectrum", help="joint eigenvalues, overlap matrix, and ratio window")
    sp.add_argument("--q", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--eps-invert", type=float, default=DEFAULT_INVERTIBILITY_EPS, help=EPS_INVERT_HELP)
    sp.add_argument("--out", help="write the report to this file")
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("classical", help="divergence of two probability vectors with bounds")
    _add_common(sp, tol_default=1e-10)
    sp.set_defaults(func=cmd_classical)

    return parser


# The exit code and stderr prefix of each error family main reports.
_EXITS = {InputFormatError: (2, ""), PreconditionError: (3, ""), ArithmeticError: (4, "numerical failure: ")}


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
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[kind] for kind in type(exc).__mro__ if kind in _EXITS)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
