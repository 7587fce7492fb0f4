"""geopack benchmark entry point: one workload per process, one client, no threads.

Usage:
  python3 perfbench/run.py --workload {families,random,catalog,cli} --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line of stdout is one JSON object either way.  The exit
code is 0 only when every output passed its check.  See perfbench/README.md.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("families", "random", "catalog", "cli")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "geopack" / "__init__.py").is_file():
        print(f"error: geopack sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
