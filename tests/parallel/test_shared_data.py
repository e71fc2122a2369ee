"""The training set in one anonymous memory file: bitwise round trip,
read-only zero-copy views, inheritance by every worker, clean teardown — and
no ``/dev/shm`` entry or resource-tracker process at any point."""

import json
import mmap
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.shared_data import ALIGN, SharedDataset, attach
from repro.parallel import supervision
from repro.parallel.supervision import Slot, SlotTable
from tests.procs import data_worker, worker_processes

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="memfd_create and /dev/shm are Linux-specific"
)

REPO = Path(__file__).resolve().parents[2]


def _dev_shm():
    return set(os.listdir("/dev/shm"))


def _arrays():
    rng = np.random.default_rng(0)
    return {
        "x": rng.normal(size=(32, 3, 4, 4)).astype(np.float32),
        "y": rng.integers(0, 5, size=32),
        "odd": rng.normal(size=(7, 3)),  # 168 bytes: not a multiple of ALIGN
        "mask": rng.integers(0, 2, size=5).astype(np.uint8),
    }


def _mapping(view):
    """The object at the bottom of ``view``'s base chain."""
    while isinstance(view, np.ndarray):
        view = view.base
    return view.obj if isinstance(view, memoryview) else view


def test_publish_attach_round_trip():
    arrays = _arrays()
    shm_before = _dev_shm()
    shared = SharedDataset(arrays)
    try:
        assert _dev_shm() == shm_before
        assert all(offset % ALIGN == 0 for offset, _, _ in shared.layout.values())
        views = attach(shared.fd, shared.layout)
        assert list(views) == list(arrays)
        for key, array in arrays.items():
            assert views[key].dtype == array.dtype and views[key].shape == array.shape
            assert views[key].tobytes() == array.tobytes()
    finally:
        shared.close()
    # The mapping outlives the publisher's descriptor.
    assert views["x"].tobytes() == arrays["x"].tobytes()
    assert _dev_shm() == shm_before


def test_views_are_read_only_and_zero_copy():
    shared = SharedDataset(_arrays())
    try:
        views = attach(shared.fd, shared.layout)
        mappings = [_mapping(view) for view in views.values()]
        assert isinstance(mappings[0], mmap.mmap)
        assert all(mapping is mappings[0] for mapping in mappings)
        for view in views.values():
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[(0,) * view.ndim] = 1
        # Views read the file itself, not a copy of it: a byte written into
        # the file shows through the mapping at once.
        offset = shared.layout["mask"][0]
        os.pwrite(shared.fd, b"\x07", offset)
        assert views["mask"][0] == 7
    finally:
        shared.close()


def test_a_respawned_worker_still_reads_the_data_set(monkeypatch):
    """A ``SlotTable`` child given the fd maps the parent's arrays, read-only;
    after the child is killed its respawn maps the same file again: the file
    outlives every worker and only the publisher closes it."""
    arrays = _arrays()
    shm_before = _dev_shm()
    shared = SharedDataset(arrays)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.1)
    table = SlotTable([Slot(0)], data_worker, "test-data", inherit_fds=(shared.fd,))
    (slot,) = table.slots

    def ready_summary():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            messages = table.poll(0.5)
            if messages:
                ((kind, _, summary),) = messages
                assert kind == "ready"
                return summary
        raise AssertionError("worker never answered")

    expected = {
        key: (array.tobytes(), array.dtype.str, array.shape, False)
        for key, array in arrays.items()
    }
    try:
        table.spawn(slot, shared.fd, shared.layout)
        assert ready_summary() == expected
        assert table.evict(slot)[0] is not None
        table.spawn(slot, shared.fd, shared.layout)
        assert ready_summary() == expected
        assert _dev_shm() == shm_before
    finally:
        table.stop(table.slots)
        table.close()
        shared.close()
    assert worker_processes() == {}
    assert _dev_shm() == shm_before


def test_close_releases_the_file_and_is_idempotent():
    fds_before = set(os.listdir("/proc/self/fd"))
    shared = SharedDataset({"x": np.zeros(8)})
    assert os.readlink(f"/proc/self/fd/{shared.fd}").startswith("/memfd:")
    shared.close()
    assert set(os.listdir("/proc/self/fd")) == fds_before
    shared.close()  # second close is a no-op
    assert set(os.listdir("/proc/self/fd")) == fds_before


def test_empty_dataset_rejected():
    fds_before = set(os.listdir("/proc/self/fd"))
    with pytest.raises(ValueError):
        SharedDataset({})
    assert set(os.listdir("/proc/self/fd")) == fds_before


# A workers=2 training run that counts every process it starts.
_COUNTING_TRAINER = """
import json, sys
from multiprocessing import resource_tracker
started = []
sys.addaudithook(
    lambda event, args: started.append(event)
    if event in ("subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn") else None
)
from repro.api import run_experiment
run_experiment(json.loads(sys.argv[1]))
print(json.dumps({
    "started": started,
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "shared_memory": "multiprocessing.shared_memory" in sys.modules,
}))
"""


def test_a_pooled_training_run_starts_its_worker_and_nothing_else(experiment_dict):
    """In a fresh interpreter, a ``workers=2`` run starts exactly one child —
    its worker — never multiprocessing's resource tracker, and never imports
    ``multiprocessing.shared_memory``."""
    config = experiment_dict()
    config["training"] = dict(config["training"], workers=2)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_FAULTS", None)
    done = subprocess.run(
        [sys.executable, "-c", _COUNTING_TRAINER, json.dumps(config)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"started": ["subprocess.Popen"], "tracker_pid": None, "shared_memory": False}


def test_no_source_module_reaches_for_posix_shared_memory():
    """Nothing under ``src/`` names the POSIX shared-memory machinery the
    memfd replaced, so no segment and no tracker can come back unnoticed."""
    for path in (REPO / "src").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for word in ("shared_memory", "resource_tracker", "AttachedDataset", "SharedArrayMeta"):
            assert word not in text, f"{path.relative_to(REPO)} names {word}"
