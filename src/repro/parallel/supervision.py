"""Parent-side supervision helpers shared by the training executor and the
serving pool (the start of one supervision core; see ROADMAP)."""

from __future__ import annotations

import queue as thread_queue
from multiprocessing.connection import wait as _mp_wait
from typing import List, Sequence


def poll_results(result_queues: Sequence, timeout: float) -> List[tuple]:
    """Drain whatever messages the per-worker result queues hold.

    Multiplexes over every queue's reader pipe with
    ``multiprocessing.connection.wait``; returns a (possibly empty) list of
    ``(kind, worker_id, payload)`` messages.  ``None`` entries (pool slots
    without a queue) are skipped; queues swapped out by a concurrent respawn
    surface as closed readers and are skipped too — the next call picks up
    their replacements.
    """
    snapshot = {queue._reader: queue for queue in list(result_queues) if queue is not None}
    try:
        readable = _mp_wait(list(snapshot), timeout=timeout)
    except OSError:  # pragma: no cover - reader closed mid-wait (respawn)
        return []
    messages: List[tuple] = []
    for reader in readable:
        queue = snapshot[reader]
        while True:
            try:
                messages.append(queue.get_nowait())
            except thread_queue.Empty:
                break
            except (OSError, ValueError, EOFError):  # pragma: no cover
                break  # queue closed/poisoned; successor takes over
    return messages
