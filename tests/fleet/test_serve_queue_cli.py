"""End-to-end ``python -m repro serve --mode queue``: the HTTP front over
the broker and its own consumer 0 (``front-0``), sync and async request
paths, queue-aware health/info, and clean SIGTERM shutdown."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import EnsemblePredictor
from repro.fleet import autoscaler
from tests.procs import child_pids

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def server(saved_artifact):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["OMP_NUM_THREADS"] = "1"
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--artifact",
            str(saved_artifact),
            "--mode",
            "queue",
            "--port",
            "0",
            "--workers",
            "1",
            "--min-consumers",
            "1",
            "--max-consumers",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = json.loads(proc.stdout.readline())
        assert banner["event"] == "serving"
        yield proc, banner
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _post(url, payload, timeout=60):
    request = urllib.request.Request(
        url + "/predict",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def test_banner_announces_version_mode_and_broker(server):
    _, banner = server
    assert banner["version"] == repro.__version__
    assert banner["mode"] == "queue"
    host, _, port = banner["broker"].rpartition(":")
    assert host and port.isdigit()


def test_sync_predict_bitwise_equals_single_process(server, saved_artifact, serial_result):
    _, banner = server
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test[:12]
    status, out = _post(banner["url"], {"inputs": x.tolist(), "proba": True})
    assert status == 200
    assert np.array_equal(np.asarray(out["probabilities"]), reference.predict_proba(x))
    status, out = _post(banner["url"], {"inputs": x.tolist(), "method": "vote"})
    assert out["predictions"] == reference.predict(x, method="vote").tolist()


def test_async_predict_and_result_polling(server, saved_artifact, serial_result):
    _, banner = server
    url = banner["url"]
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test[:6]
    status, submitted = _post(url, {"inputs": x.tolist(), "proba": True, "async": True})
    assert status == 202
    assert submitted["status"] == "pending"
    assert submitted["result_url"] == f"/result/{submitted['job_id']}"

    deadline = time.monotonic() + 60
    result = None
    while time.monotonic() < deadline:
        status, result = _get(url + submitted["result_url"])
        if status == 200:
            break
        assert status == 202 and result["status"] == "pending"
        time.sleep(0.05)
    assert status == 200
    assert np.array_equal(np.asarray(result["probabilities"]), reference.predict_proba(x))

    # The result was consumed by the successful fetch: now it is unknown.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(url + submitted["result_url"])
    assert excinfo.value.code == 404


def test_result_unknown_job_id_is_404(server):
    _, banner = server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(banner["url"] + "/result/no-such-job")
    assert excinfo.value.code == 404


def test_healthz_reports_queue_state(server):
    _, banner = server
    status, health = _get(banner["url"] + "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["mode"] == "queue"
    assert health["consumers"] >= 1
    assert health["queue_depth"] >= 0
    assert "redeliveries" in health
    assert health["local_consumers"]["running"] >= 1


def test_info_reports_uptime_and_queue_stats(server):
    _, banner = server
    status, info = _get(banner["url"] + "/info")
    assert status == 200
    assert info["mode"] == "queue"
    assert info["uptime_seconds"] > 0
    queue = info["queue"]
    assert queue["capacity"] == 4096
    assert "depth_per_partition" not in queue
    assert len(queue["consumers"]) >= 1
    assert "oldest_job_age_seconds" in queue
    assert info["local_consumers"]["desired"] >= 1
    assert info["autoscaler"] == {
        "min_consumers": 1,
        "max_consumers": 2,
        "cooldown_seconds": autoscaler.COOLDOWN,
        "up_queue_depth": autoscaler.UP_QUEUE_DEPTH,
        "up_p99_seconds": autoscaler.UP_P99_SECONDS,
        "down_queue_depth": autoscaler.DOWN_QUEUE_DEPTH,
        "down_p99_seconds": autoscaler.DOWN_P99_SECONDS,
        "last_action": info["autoscaler"]["last_action"],
    }
    assert "p99" in info["job_latency_seconds"]


def test_fleet_metrics_exposed_on_the_front(server):
    """Consumer-side series and broker series must both appear in the
    front's /metrics exposition.  Here front-0 answers and counts straight
    into the front's registry; the deltas a subprocess consumer ships are
    checked, exactly, by test_front.py's
    test_subprocess_consumers_metrics_reach_the_front_exactly."""
    _, banner = server
    _post(banner["url"], {"inputs": [[0.0] * 12]})
    with urllib.request.urlopen(banner["url"] + "/metrics", timeout=30) as response:
        body = response.read().decode("utf-8")
    assert "repro_fleet_queue_depth" in body
    assert "repro_fleet_consumers 1" in body
    assert "# TYPE repro_fleet_redeliveries_total counter" in body
    assert "repro_fleet_job_latency_seconds_count" in body
    # Counted by front-0, the consumer that answered:
    assert 'repro_fleet_consumed_jobs_total{status="ok"}' in body


def test_queue_mode_refuses_more_than_one_worker(saved_artifact, capsys):
    """A consumer is one serving lane: asking queue mode for a wider one is
    an error that names the knob that adds capacity, before anything starts."""
    from repro.__main__ import main

    argv = ["serve", "--artifact", str(saved_artifact), "--mode", "queue", "--port", "0"]
    assert main(argv + ["--workers", "2"]) == 1
    assert "--min-consumers / --max-consumers" in capsys.readouterr().err


def test_queue_serve_shuts_down_cleanly_on_sigterm(server):
    proc, _ = server
    assert proc.poll() is None
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"event": "stopped"}


def test_one_consumer_is_the_front_alone(saved_artifact, serial_result):
    """``--min-consumers 1 --max-consumers 1``: the front answers every
    request itself — no child process — bitwise, and every answer is counted
    once in ``repro_fleet_consumed_jobs_total{status="ok"}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--artifact", str(saved_artifact),
         "--mode", "queue", "--port", "0", "--min-consumers", "1", "--max-consumers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        url = json.loads(proc.stdout.readline())["url"]
        reference = EnsemblePredictor.load(saved_artifact)
        x = serial_result.dataset.x_test
        for i in range(20):
            status, out = _post(url, {"inputs": x[i : i + 1].tolist(), "proba": True})
            assert status == 200
            assert np.array_equal(np.asarray(out["probabilities"]), reference.predict_proba(x[i : i + 1]))
        assert child_pids(proc.pid) == []
        status, info = _get(url + "/info")
        assert info["local_consumers"]["pids"] == []
        assert info["queue"]["consumers"] == ["front-0"]
        with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
            body = response.read().decode("utf-8")
        assert 'repro_fleet_consumed_jobs_total{status="ok"} 20' in body.splitlines()
    finally:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"event": "stopped"}
