"""Entry point for ``python -m qfdiv`` and the installed ``qfdiv`` command."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run main on sys.argv and exit the process with its code.

    Before exiting, gc.freeze() moves every object the run left behind
    into the collector's permanent generation.  Interpreter teardown runs
    full collections while it clears modules, and those walk numpy's and
    qfdiv's classes, functions and module dicts again and again; frozen
    objects are never walked, and the OS takes their memory back when the
    process ends.  Output, atexit handlers and stream flushes are
    unchanged.  The freeze belongs here, where the process ends, and not
    in main: a caller that runs main many times in one process would keep
    every object alive until exit."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
