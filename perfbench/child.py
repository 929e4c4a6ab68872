"""Fresh-interpreter side of the benchmark.

    child.py setup ARGV...               import, build the inputs of a
                                         `qfdiv ARGV...` call, print stamps
    child.py certify SPANS OP ARGV...    run `qfdiv ARGV...` under the
                                         tracer, write its spans to SPANS

The first statement takes a ``time.monotonic`` stamp, which the parent
compares with its own stamp taken just before spawning this process to
get the interpreter start time.  Only built-in modules load before it.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _imports() -> dict:
    t0 = time.monotonic()
    import numpy  # noqa: F401
    t1 = time.monotonic()
    import qfdiv.cli  # noqa: F401
    t2 = time.monotonic()
    return {"start": T_START, "numpy": [t0, t1], "qfdiv": [t1, t2]}


def setup(argv) -> int:
    stamps = _imports()
    from qfdiv import FuzzConfig, default_catalog, load_matrix
    from qfdiv.cli import build_parser

    args = build_parser().parse_args(argv)
    if args.subcommand == "fuzz":
        FuzzConfig(dim=args.dim, trials=args.trials, seed=args.seed,
                   sampler=args.sampler, floor=args.floor, jobs=args.jobs)
    else:
        load_matrix(args.q)
        load_matrix(args.p)
        default_catalog()
    stamps["ready"] = time.monotonic()
    print(json.dumps(stamps))
    return 0


def certify(spans_path: str, op: int, argv) -> int:
    stamps = _imports()
    import qfdiv.cli
    import spans

    tracer = spans.Tracer()
    tracer.op = op
    tracer.span("setup.import_numpy", *stamps["numpy"])
    tracer.span("setup.import_qfdiv", *stamps["qfdiv"])
    tracer.install()
    try:
        code = qfdiv.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"start": T_START, "rows": tracer.rows, "counts": tracer.counts,
                   "missing": tracer.missing, "end": time.monotonic()}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2:]))
    if mode == "certify":
        sys.exit(certify(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
    sys.exit(f"unknown mode {mode!r}")
