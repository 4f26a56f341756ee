"""Wall-clock benchmark of the GRAPE reproduction.

    python3 perfbench/run.py --workload road-sssp --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``.perfbench_out/``). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's machine and input facts. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the one in this checkout's src/, never an
    # installed copy.
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: repro was imported from {repro.__file__}", file=sys.stderr)
        return 2
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    if args.trace:
        info, correct, attempted, failed, metrics = measure.run_traced(
            workload, args.seed, args.seconds, Path.cwd() / ".perfbench_out"
        )
    else:
        info, correct, attempted, failed, metrics = measure.run_untraced(
            workload, args.seed, args.seconds
        )
    print(json.dumps({"info": info}, default=repr))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
