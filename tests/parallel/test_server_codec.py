"""The serve front's JSON codec keeps bits: a request body decodes to the
float64 array the stdlib parser gives, and a reply parses back to the float64
values of the probabilities served — through the handler, on any finite
float64 spelled any way JSON allows."""

import json
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.server import _make_handler
from tests.parallel.test_serve_cli import _RecordingSocket

SHAPE = (3, 2, 2)  # per-sample input shape; a batch nests one level more


class _EchoPool:
    """Records the rows the handler decoded; answers the given ``proba``."""

    def __init__(self, proba):
        self.proba = proba
        self.rows = None

    def predict_proba(self, x, method=None):
        self.rows = x
        return self.proba


def _spell(value, style):
    """One JSON spelling of ``value`` (a Python int or finite float)."""
    if isinstance(value, int):
        return str(value)
    return (repr(value), format(value, ".17e"), format(value, ".25E"), format(value, ".20g"))[style]


def _nested(tokens, shape):
    if not shape:
        return next(tokens)
    return "[" + ", ".join(_nested(tokens, shape[1:]) for _ in range(shape[0])) + "]"


leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and -0.0 too
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(10**300), max_value=10**300),
)


def _serve(body, proba):
    """POST ``body`` to /predict through the handler; ``(rows the pool got,
    reply status, reply body)``."""
    head = f"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    sock = _RecordingSocket(head.encode("ascii") + body)
    pool = _EchoPool(proba)
    _make_handler(pool, "pool", time.monotonic())(sock, ("127.0.0.1", 0), None)
    (write,) = sock.writes
    status_line, _, reply = write.partition(b"\r\n\r\n")
    return pool.rows, int(status_line.split()[1]), reply


@settings(max_examples=150, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=3),
    values=st.lists(st.tuples(leaves, st.integers(0, 3)), min_size=36, max_size=36),
    proba=st.lists(st.floats(min_value=0.0, max_value=1.0, width=32), min_size=6, max_size=6),
)
def test_decode_and_reply_keep_bits(batch, values, proba):
    shape = (batch,) + SHAPE
    tokens = iter([_spell(value, style) for value, style in values])
    body = ('{"inputs": ' + _nested(tokens, shape) + ', "proba": true}').encode()
    probabilities = np.asarray(proba, dtype=np.float32).reshape(3, 2)

    rows, status, reply = _serve(body, probabilities)

    assert status == 200, reply
    expected = np.asarray(json.loads(body)["inputs"], dtype=np.float64)
    assert rows.dtype == np.float64 and rows.shape == shape
    assert rows.tobytes() == expected.tobytes()  # bitwise: -0.0 is not 0.0
    served = np.asarray(json.loads(reply)["probabilities"], dtype=np.float64)
    assert served.tobytes() == probabilities.astype(np.float64).tobytes()
