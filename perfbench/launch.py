"""Start one ``repro`` command with the per-layer tracer installed.

Usage (the traced pass of ``perfbench/run.py`` builds these command lines)::

    python3 perfbench/launch.py --trace-dir DIR --role cli -- scan ckpt.npz ...

It times ``import repro.service.cli``, wraps the layer functions
(:mod:`tracer`), then calls :func:`repro.service.cli.main` exactly as
``python -m repro`` does, and writes the process totals on exit.  The
``cli`` role also times ``main`` itself; ``service`` roles (``serve`` and
``worker``, which idle between requests) do not.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--role", choices=("cli", "service"), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    frame = tracer.enter()
    import repro.service.cli as cli
    tracer.leave(frame, "cli.import" if args.role == "cli" else "service.import")
    tracer.install(args.trace_dir)
    try:
        if args.role == "cli":
            return tracer.timed("cli.process", cli.main, argv)
        return cli.main(argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    raise SystemExit(main())
