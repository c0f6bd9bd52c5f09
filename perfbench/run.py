"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-exhaustive --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``sweep-exhaustive`` and ``frontier-query`` (in-process
``repro.dse.sweep``), ``fleet-mix`` (a ``serve --workers 2``
subprocess over HTTP). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer breakdown. ``--smoke`` shrinks every input
so a run takes seconds (see ``selftest.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import END_TO_END, PER_LAYER, format_report  # noqa: E402

WORKLOADS = ("sweep-exhaustive", "frontier-query", "fleet-mix")


def _terminate(signum: int, frame: object) -> None:
    # Unwind through every ``finally`` so the fleet is stopped.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; for the self-test")
    parser.add_argument("--probe", choices=WORKLOADS[:2],
                        help=argparse.SUPPRESS)  # one timed set-up
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if args.probe:
        import sweeps

        sweeps.prepare(args.probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "fleet-mix":
        import fleet as module
    else:
        import sweeps as module
    outcome = module.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        outcome.metrics["error_rate"] = outcome.error_rate
    for line in format_report(args.workload, outcome, bool(args.trace),
                              units):
        print(line)
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": outcome.correct and finite,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
