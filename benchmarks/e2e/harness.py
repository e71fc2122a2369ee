"""Shared plumbing of the end-to-end benchmark: paths, the fixed experiment
spec, child environments, `/proc` accounting, noise hygiene, statistics and
harness-side spans.

Nothing here imports ``repro``; the program is reached either as a
``python -m repro`` subprocess (gated numbers) or through its public
functions from ``probes.py`` (per-layer numbers).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything the harness writes lives here (ignored by git).
WORK = ROOT / ".bench_e2e"

#: BLAS pools are pinned to one thread in the harness and in every child, so
#: serial and parallel training sum in the same order and the process count
#: is the runnable-thread count.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The one experiment every workload trains or serves.  Its seeds are part
#: of the spec, not of ``--seed``: the test error of a 3-epoch run on 512
#: samples moves by ~20 % of its value between seeds (measured: 43-73 %
#: over ten seeds), which no relative bound could gate.
SPEC_SEED = 1
TRAIN_SAMPLES = 512
TEST_SAMPLES = 128


def experiment_spec(workers: int) -> dict:
    return {
        "name": "e2e",
        "dataset": {
            "name": "cifar10",
            "image_shape": [3, 8, 8],
            "train_samples": TRAIN_SAMPLES,
            "test_samples": TEST_SAMPLES,
            "seed": SPEC_SEED,
        },
        "members": {
            "family": "small_vgg",
            "input_shape": [3, 8, 8],
            "width_scale": 0.0625,
        },
        "approach": "mothernets",
        "trainer": {"tau": 0.5},
        "training": {
            "max_epochs": 3,
            "min_epochs": 3,
            "batch_size": 64,
            "learning_rate": 0.05,
            "workers": workers,
        },
        "seed": SPEC_SEED,
    }


def child_env() -> Dict[str, str]:
    """Environment of every program subprocess: thread caps + ``src`` on the
    import path, nothing the program would not see from a shell."""
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro_cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def open_log(name: str):
    """A file under ``.bench_e2e/logs`` for a child's (or the probes') stderr;
    the one place logs are opened, so the directory always exists."""
    path = WORK / "logs" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


def machine_info() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "blas_caps": dict(THREAD_CAPS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# Build: the reference artifact
# --------------------------------------------------------------------------


def _source_fingerprint() -> str:
    digest = hashlib.sha256(json.dumps(experiment_spec(1), sort_keys=True).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_spec(directory: Path, workers: int) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"spec-workers{workers}.json"
    path.write_text(json.dumps(experiment_spec(workers), indent=2, sort_keys=True))
    return path


def build_artifact() -> Path:
    """Train the fixed spec once per source tree (serial) and return the
    artifact directory.

    This is the benchmark's build step: the serve workloads serve it, the
    train workloads compare their member files against it.  It is keyed by a
    hash of ``src/repro`` so a changed program never meets a stale artifact.
    """
    build_root = WORK / "build"
    target = build_root / _source_fingerprint()
    artifact = target / "artifact"
    if (artifact / "manifest.json").exists():
        return artifact
    if build_root.exists():
        shutil.rmtree(build_root)
    staging = build_root / f"staging-{os.getpid()}"
    spec = write_spec(staging, workers=1)
    done = subprocess.run(
        repro_cli("train", "--config", str(spec), "--output", str(staging / "artifact")),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"building the reference artifact failed:\n{done.stderr[-2000:]}")
    (staging / "train_report.json").write_text(done.stdout)
    staging.rename(target)
    return artifact


def member_digests(artifact: Path) -> Dict[str, str]:
    """sha256 of every member weight file (training is seeded end to end, so
    equal programs write byte-identical ``.npz`` files)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((artifact / "members").glob("*.npz"))
    }


# --------------------------------------------------------------------------
# /proc accounting
# --------------------------------------------------------------------------


def _read_stat(pid: int) -> Optional[Tuple[int, int, str]]:
    """``(ppid, starttime_ticks, state)`` of one process."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2 :].split()
    return int(fields[1]), int(fields[19]), fields[0]


def process_tree(root: int) -> Dict[int, int]:
    """``{pid: starttime}`` for ``root`` and its descendants."""
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _read_stat(int(entry))
            if stat is not None:
                table[int(entry)] = stat
    children: Dict[int, List[int]] = {}
    for pid, stat in table.items():
        children.setdefault(stat[0], []).append(pid)
    tree, frontier = {}, [root]
    while frontier:
        pid = frontier.pop()
        if pid in table and pid not in tree:
            tree[pid] = table[pid][1]
            frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(root: int) -> float:
    """Time on a CPU, so far, of every thread now alive in ``root``'s process
    tree: the scheduler's own nanosecond count (``schedstat``), where
    ``/proc/<pid>/stat`` rounds each process to 10 ms — a tenth of what a
    one-row serving block costs.  A thread that ends takes its time with it,
    so take differences only over spans in which the tree's threads stay
    (one connection, fixed workers); over four minutes of serving the two
    counts agreed to 0.01 s in 26 s and in 142 s."""
    total = 0
    for pid in process_tree(root):
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                total += int(Path(f"/proc/{pid}/task/{task}/schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # ended while we looked
    return total / 1e9


def peak_rss_bytes(pid: int) -> int:
    """The kernel's high-water mark of one process's resident set."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
        return int(status[status.index("VmHWM:") + 6 :].split(None, 1)[0]) * 1024
    except (OSError, ValueError):
        return 0  # gone, or a kernel thread


def survivors(seen: Iterable[Tuple[int, int]]) -> List[int]:
    """Pids from ``seen`` (``(pid, starttime)``) that still run.  A zombie
    waiting for init to reap it has exited and does not count."""
    alive = []
    for pid, start in seen:
        stat = _read_stat(pid)
        if stat is not None and stat[1] == start and stat[2] != "Z":
            alive.append(pid)
    return alive


class TreeSampler(threading.Thread):
    """Polls one process tree: every ``(pid, starttime)`` that was ever in
    it (for the orphan count), and its peak memory.

    Memory at a poll is the sum, over the processes alive then, of the
    kernel's resident-set high-water marks; the peak is the largest such sum.
    Marks only grow, so the figure does not depend on a poll landing on a
    short-lived peak (an instantaneous sum read 59-79 MB for one and the same
    training run)."""

    def __init__(self, root: int, interval: float = 0.1):
        super().__init__(daemon=True, name="e2e-tree-sampler")
        self.root = root
        self.interval = interval
        self.peak_rss_bytes = 0
        self.seen: Set[Tuple[int, int]] = set()
        self._stop_event = threading.Event()

    def sample(self) -> None:
        tree = process_tree(self.root)
        self.seen.update(tree.items())
        self.peak_rss_bytes = max(self.peak_rss_bytes, sum(map(peak_rss_bytes, tree)))

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.sample()
            self._stop_event.wait(self.interval)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def count_orphans(seen: Iterable[Tuple[int, int]], grace: float = 5.0) -> int:
    """Descendants still alive ``grace`` seconds after their root exited.
    Survivors are killed so the harness leaves nothing behind."""
    deadline = time.monotonic() + grace
    alive = survivors(seen)
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = survivors(seen)
    for pid in alive:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    return len(alive)


#: How long processes that outlive a run may take to end by themselves.
ORPHAN_GRACE_SECONDS = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Have descendants whose parent exits re-parented to this process
    instead of init, so that it can wait for them."""
    import ctypes

    try:
        return ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_descendants(grace: float) -> int:
    """Wait until this process has no child left (for a subreaper: no
    descendant).  Those still running after ``grace`` seconds are killed;
    returns how many were."""
    deadline = time.monotonic() + grace
    killed: Set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            tree = process_tree(os.getpid())
            del tree[os.getpid()]
            for straggler in survivors(tree.items()):
                try:
                    os.kill(straggler, 9)
                    killed.add(straggler)
                except OSError:
                    pass
        time.sleep(0.01)


def shm_entries() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def cpu_times() -> Tuple[int, int]:
    """``(steal_ticks, total_ticks)`` of the whole machine."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


class SpeedGauge:
    """How fast this machine is right now, from a fixed piece of work timed
    between the pieces of a run (serve blocks, train ops).

    The guest's speed drifts over minutes by far more than any bound: the
    same ``repro train`` op took 1.9-3.4 s within seven minutes, with no
    steal.  One iteration of the gauge is a 128x128 float32 matmul plus a
    short interpreter loop — what the program's time goes into.  Read before
    and after each of 160 back-to-back train ops, its two halves tracked
    them (r = 0.71 and 0.78 op by op), and runs of five ops spread 17.9 % as
    measured, 5.1 % at nominal speed; a ten-seed sitting of ``train_serial``
    38.5 % and 15.0 % (README.md has every sitting)."""

    #: Iterations per second on this box in its usual state; a constant, so
    #: that a duration "at nominal speed" still reads in seconds.
    NOMINAL_RATE = 12000.0

    def __init__(self) -> None:
        import numpy

        self._a = numpy.random.default_rng(0).random((128, 128), dtype=numpy.float32)

    def read(self, seconds: float = 0.1) -> float:
        """The machine's speed over the next ``seconds``, 1.0 = nominal:
        iterations per second *on the CPU*, so that it compares with the CPU
        time it rescales and a stolen CPU does not read as a slow one."""
        a, count = self._a, 0
        on_cpu, start = time.thread_time(), time.perf_counter()
        while True:
            a @ a
            x = 0
            for i in range(700):
                x += i * i
            count += 1
            if time.perf_counter() - start >= seconds:
                return count / (time.thread_time() - on_cpu) / self.NOMINAL_RATE


def unstolen(duration: float, steal_pct: float) -> float:
    """A wall ``duration`` less the share of the machine's CPU time the
    hypervisor gave to someone else while it was measured.

    On this guest steal comes in spells of minutes, and a wall duration
    measured inside one grows with it (1-row request: 50.3 ms + 0.55 ms per
    steal point, up to 65 ms at 24 %) while CPU time hardly does (a train
    op's: 0.7 % per point, its wall 2.7 %): stolen time is time spent
    waiting.  The scaling under-corrects work that keeps one of the two
    vCPUs busy and never over-corrected; with no steal it is the identity."""
    return duration * (1.0 - steal_pct / 100.0)


def at_nominal_speed(wall: float, busy: float, speed: float) -> float:
    """``wall`` seconds with the part of them spent on a CPU (``busy``, at
    most all of them) rescaled to what it would take at nominal speed; time
    spent waiting (a timer, a socket) stays as it is."""
    busy = min(busy, wall)
    return wall - busy + busy * speed


# --------------------------------------------------------------------------
# Noise hygiene
# --------------------------------------------------------------------------


def hygiene_problems() -> List[str]:
    """Reasons this machine is not quiet enough to measure on."""
    problems = []
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            argv = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if any(a == b"-m" and b == b"repro" for a, b in zip(argv, argv[1:])):
            problems.append(f"another repro process is running (pid {entry})")
    stale = sorted(name for name in shm_entries() if name.startswith("repro-shm"))
    if stale:
        problems.append(f"stale shared memory in /dev/shm: {', '.join(stale[:4])}")
    return problems


def wait_for_quiet(timeout: float = 15.0) -> List[str]:
    """A predecessor run may still be tearing down: give it a moment."""
    deadline = time.monotonic() + timeout
    problems = hygiene_problems()
    while problems and time.monotonic() < deadline:
        time.sleep(0.5)
        problems = hygiene_problems()
    return problems


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (any order)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[index])


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the spread
    the benchmark contract is judged by."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# --------------------------------------------------------------------------
# Harness-side spans (Chrome trace)
# --------------------------------------------------------------------------


class Trace:
    """In-memory spans around the harness's calls into the program, written
    as Chrome-trace JSON at exit (load in ``chrome://tracing`` / Perfetto).

    One lane (``tid``) per layer; nesting inside a lane is by time.
    ``recording_s`` is the time spent inside :meth:`add` — the cost of
    tracing, measured directly rather than as a difference of two runs."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self.recording_s = 0.0
        self._lanes: Dict[str, int] = {}
        self._origin = time.perf_counter()

    def add(self, name: str, layer: str, start: float, end: float, **args) -> None:
        began = time.perf_counter()
        lane = self._lanes.setdefault(layer, len(self._lanes) + 1)
        self.events.append(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": lane,
                "args": args,
            }
        )
        self.recording_s += time.perf_counter() - began

    def overhead_pct(self, op_seconds: float) -> float:
        """Span bookkeeping as a share of the timed ops' summed wall."""
        return 100.0 * self.recording_s / op_seconds if op_seconds > 0 else 0.0

    @contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, layer, start, time.perf_counter(), **args)

    def write(self, path: Path) -> Path:
        names = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": os.getpid(),
                "tid": lane,
                "args": {"name": layer},
            }
            for layer, lane in self._lanes.items()
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"displayTimeUnit": "ms", "traceEvents": names + self.events})
        )
        return path
