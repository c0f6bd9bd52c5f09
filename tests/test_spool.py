"""The record spool under the trace, session and job stores and the
worker board (:mod:`repro.util.spool`).

Two contracts: a listing sees only records, never another process's
in-flight ``.tmp-*`` publication, and building a spool over a shared
directory reaps only debris old enough to be a crash orphan.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.service import (
    CompilerPipeline,
    DahliaService,
    JobManager,
    WorkerBoard,
)
from repro.service.session import SessionManager
from repro.util.fsio import TMP_PREFIX


def _in_flight(root: Path, name: str, data: str) -> Path:
    """A complete, not yet renamed publication, named the way
    ``atomic_write`` names its temp files."""
    temp = root / f"{TMP_PREFIX}{name}.json"
    temp.write_text(data)
    return temp


def _no_sweep(params, on_update):
    raise AssertionError("no job runs in these tests")


def test_job_listing_skips_in_flight_temp_files(tmp_path):
    manager = JobManager(_no_sweep, spool_dir=tmp_path)
    manager.spool.path_for("job-1").write_text(
        json.dumps({"job": "job-1", "state": "done"}))
    _in_flight(tmp_path, "job-1",
               json.dumps({"job": "job-1", "state": "running"}))
    assert manager.spool.read_all() == [{"job": "job-1", "state": "done"}]


def test_in_flight_temp_files_use_no_prune_slots(tmp_path):
    from repro.util.spool import Spool

    spool = Spool(tmp_path)
    for index in range(6):
        spool.write(f"record-{index}", {"index": index})
    temps = [_in_flight(tmp_path, f"orphan-{index}", "{}")
             for index in range(3)]
    spool.prune(4)
    assert len(spool.read_all()) == 4
    assert all(temp.exists() for temp in temps)   # young: not ours to reap


def test_boot_reap_spares_young_temp_files_and_reaps_aged_ones(tmp_path):
    """A second process building its spool over a shared directory must
    not unlink a live peer's in-flight publication, but does clear
    crash debris older than the age bound — trace spool included."""
    builders = {
        "jobs": lambda root: JobManager(_no_sweep, spool_dir=root),
        "sessions": lambda root: SessionManager(CompilerPipeline(),
                                                spool_dir=root),
        "board": lambda root: WorkerBoard(root, worker=0),
        "traces": lambda root: DahliaService(dse_workers=0,
                                             trace_dir=root),
    }
    stale = time.time() - 24 * 3600           # far past any age bound
    for name, build in builders.items():
        root = tmp_path / name
        build(root)                               # the first process
        young = _in_flight(root, "young", "{}")
        aged = _in_flight(root, "aged", "{}")
        os.utime(aged, (stale, stale))
        build(root)                               # a peer over the same dir
        assert young.exists(), f"{name}: a live publication was reaped"
        assert not aged.exists(), f"{name}: crash debris survived"
