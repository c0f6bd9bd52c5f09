"""Pin the frontier-query oracle: every accepted point of each family.

Runs the sequential reference ``repro.dse.explore`` over the full
parameter space of each DSE family and stores, per family, the
enumeration index and objective vector of every accepted point in
``perfbench/oracle.json``. The expected accepted-Pareto set of any
subsample is then the skyline of the pinned points that fall in it,
so ``run.py`` can check a converged frontier without re-running the
exhaustive sweep.

    python3 perfbench/pin_oracle.py

Re-run it only when the estimator or the checker is meant to change
its answers. It uses one spawned worker per CPU; a run takes a few
minutes on 2 cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.dse import explore                             # noqa: E402
from repro.suite.generators import DSE_FAMILIES, resolve_family  # noqa: E402

ORACLE_PATH = HERE / "oracle.json"
CHUNK = 500


def _explore_chunk(task: tuple[str, int, int]) -> list[tuple[int, list]]:
    family, start, stop = task
    space, source, kernel = resolve_family(family)
    configs = list(space())[start:stop]
    result = explore(configs, source, kernel)
    return [(start + offset, list(point.objectives))
            for offset, point in enumerate(result.points)
            if point.accepted]


def main() -> int:
    oracle = {}
    context = multiprocessing.get_context("spawn")
    with context.Pool(max(1, os.cpu_count() or 1)) as pool:
        for family in sorted(DSE_FAMILIES):
            started = time.perf_counter()
            size = resolve_family(family)[0]().size
            tasks = [(family, start, min(size, start + CHUNK))
                     for start in range(0, size, CHUNK)]
            accepted = [row for rows in pool.imap(_explore_chunk, tasks)
                        for row in rows]
            oracle[family] = {
                "space_size": size,
                "indices": [index for index, _ in accepted],
                "objectives": [objectives for _, objectives in accepted],
            }
            print(f"{family}: {len(accepted)} accepted of {size} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
    ORACLE_PATH.write_text(json.dumps(oracle, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
