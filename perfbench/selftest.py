"""Self-test of the benchmark: every workload, both trace modes, in
smoke size.

    python3 perfbench/selftest.py

Runs ``run.py --smoke`` for each workload with ``--trace 0`` and
``--trace 1`` and asserts that the last output line is the result
object, that its correctness checks passed, and that it reports every
end-to-end (or per-layer) metric named in ``BENCHMARK.json`` with the
unit named there. Also asserts that ``BENCHMARK.json`` and the metric
tables in ``common.py`` agree. Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from common import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMOKE_SECONDS = {"sweep-exhaustive": 2, "frontier-query": 2, "fleet-mix": 4}


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SMOKE_SECONDS[workload]),
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == END_TO_END, "end_to_end drifted"
    assert _declared("per_layer") == PER_LAYER, "per_layer drifted"
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1
            assert result["failed"] == 0, (workload, trace, result["failed"])
            got = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
            assert got == expected, (workload, trace,
                                     set(got) ^ set(expected))
            for name, entry in result["metrics"].items():
                value = entry["value"]
                assert isinstance(value, (int, float)) \
                    and math.isfinite(value), (workload, name, value)
            if trace == 0:
                assert all(entry["value"] > 0
                           for entry in result["metrics"].values()), \
                    (workload, result["metrics"])
            print(f"ok  {workload} --trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} attempted",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
