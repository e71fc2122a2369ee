"""Process and ``/dev/shm`` residue checks shared by the kill -9 tests (Linux
procfs; the tests that use them skip elsewhere)."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np


class ColdReference:
    """What one single-process predictor answers for slices of one probe set:
    ``reference[a:b]`` is its ``predict_proba(probe[a:b])``, computed on
    exactly those rows.  A served probability is a function of the batch it
    was computed in (one GEMM per layer for the whole batch), so "bitwise the
    single-process answer" always means: on the same rows."""

    def __init__(self, predictor, probe):
        self.predictor = predictor
        self.probe = probe

    def __getitem__(self, rows: slice):
        return self.predictor.predict_proba(self.probe[rows])


def assert_serves_the_graph(served: np.ndarray, graph: np.ndarray) -> None:
    """A predictor's (or pool's) probabilities against what the layer graph
    computes from the same weights: the lowered plan rounds differently, so
    within the plan's tolerance (``tests/nn/test_lowering.py``) and with the
    same labels — that they happen to be equal for some model is not relied
    on."""
    np.testing.assert_allclose(served, graph, rtol=0, atol=1e-5)
    np.testing.assert_array_equal(served.argmax(axis=1), graph.argmax(axis=1))


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` after the command name: state, ppid, ..."""
    return Path("/proc", str(pid), "stat").read_text().rsplit(")", 1)[1].split()


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (pool workers, and whatever else it started).

    Read off each thread's ``children`` list where the kernel keeps one
    (a fraction of a millisecond: tests kill workers on a dispatch event,
    racing the fit they were just handed), else by scanning every process."""
    try:
        return [
            int(child)
            for tid in os.listdir(f"/proc/{pid}/task")
            for child in Path("/proc", str(pid), "task", tid, "children").read_text().split()
        ]
    except FileNotFoundError:  # no CONFIG_PROC_CHILDREN, or a thread just ended
        pass
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            children.append(int(entry))
    return children


def is_running(pid: int) -> bool:
    """False once ``pid`` has exited; a zombie awaiting its reaper has."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def worker_processes(pid: Optional[int] = None) -> Dict[str, int]:
    """``{name: pid}`` of the running pool workers — ``python -c LAUNCHER
    NAME ...``, the launcher importing ``repro.parallel.worker`` — among the
    children of ``pid`` (this process by default)."""
    workers = {}
    for child in child_pids(os.getpid() if pid is None else pid):
        try:
            argv = Path("/proc", str(child), "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        for index, arg in enumerate(argv[:-1]):
            if b"from repro.parallel.worker import main" in arg and is_running(child):
                workers[argv[index + 1].decode()] = child
                break
    return workers


def shm_entries() -> Set[str]:
    if not sys.platform.startswith("linux"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro-shm")}


def residue(
    pids: Iterable[int], shm_before: Set[str], timeout: float = 5.0
) -> Tuple[List[int], List[str]]:
    """Wait up to ``timeout`` seconds for every pid to exit and every
    ``repro-shm`` entry not in ``shm_before`` to be unlinked; returns what is
    left: ``(pids still running, segments still there)`` — both empty is clean."""
    deadline = time.monotonic() + timeout
    while True:
        running = [pid for pid in pids if is_running(pid)]
        leaked = sorted(shm_entries() - shm_before)
        if not (running or leaked) or time.monotonic() > deadline:
            return running, leaked
        time.sleep(0.05)


def echo_worker(worker_id: int, greeting: str, requests, results) -> None:
    """A trivial ``SlotTable`` target: say ready, echo every item until the
    ``None`` sentinel (module-level: the worker resolves it by name)."""
    results.put(("ready", worker_id, greeting))
    for item in iter(requests.get, None):
        results.put(("result", worker_id, item))


def data_worker(worker_id: int, fd: int, layout, requests, results) -> None:
    """A ``SlotTable`` target that maps an inherited data set: say ready
    with every array's bytes, dtype, shape and ``writeable`` flag."""
    from repro.parallel.shared_data import attach

    views = attach(fd, layout)
    summary = {
        key: (view.tobytes(), view.dtype.str, view.shape, view.flags.writeable)
        for key, view in views.items()
    }
    results.put(("ready", worker_id, summary))
    for _ in iter(requests.get, None):
        pass
