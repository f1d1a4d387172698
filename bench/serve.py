"""Start ``repro.service`` with the benchmark's span wrappers installed.

    python3 bench/serve.py --out DIR --workload NAME --run-id ID -- [repro-serve args]

Used by the traced run of the ``service-mix`` workload: the wrappers go
in before the server builds anything, then control passes to
``repro.service.__main__.main`` unchanged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from bench.trace import Tracer
    from repro.service.__main__ import main as serve_main

    Tracer(args.out, args.workload, args.run_id).install()
    return serve_main(serve_args)


if __name__ == "__main__":
    sys.exit(main())
