"""Declarative fault injection registry (``REPRO_FAULTS``), stdlib only.

Grammar
-------

``REPRO_FAULTS`` is a comma-separated list of fault specs::

    REPRO_FAULTS="train_crash:member=m2:attempt=0,serve_hang:after=2"

Each spec is ``<point>_<action>`` followed by ``:key=value`` qualifiers:

* ``point`` names the injection site, one of :data:`POINTS`: ``train``
  (the training worker's member entrypoint), ``serve`` (the serving pool
  worker's request loop — pool mode only), ``fleet_consume`` (a fleet
  consumer after leasing a job, before inference — a crash strands the
  leased job until the broker's visibility timeout redelivers it; a hang
  wedges the consumer until the front kills it), or ``fleet_ack`` (after
  inference, before the ack — a crash loses a *computed* result;
  at-least-once redelivery recomputes it elsewhere).  Any other point is
  refused, so a misspelt fault fails loudly instead of never firing.
* ``action`` is what happens when the spec fires:

  - ``crash`` — the process SIGKILLs itself (indistinguishable from an OOM
    kill or a hardware fault: no cleanup, no exception, queues potentially
    poisoned mid-operation);
  - ``hang``  — the call sleeps for ``seconds`` (default 3600), simulating a
    wedged syscall or an infinite loop;
  - ``error`` — the call raises :class:`InjectedFault`, simulating an
    in-process failure that unwinds normally.

* Qualifiers filter *which* calls fire.  Two keys are interpreted by the
  matcher itself:

  - ``after=N`` — skip the first ``N`` matching calls (a per-process
    counter: spawn-started workers inherit the environment but start their
    own counters);
  - ``times=K`` — fire at most ``K`` times per process (default: every
    matching call).

  Every other qualifier must equal (string comparison) the same-named
  context field the injection point supplies — e.g. ``member=<name>`` and
  ``attempt=<n>`` at the training point, ``worker=<id>`` at the serving
  point, ``consumer=<id>``/``job=<id>``/``attempt=<n>`` at the fleet
  points.  ``attempt=0`` is how chaos tests arrange "fail once, then let
  the retry succeed": the retried task carries ``attempt=1`` (a redelivered
  fleet job its delivery count) and no longer matches.

Injection points call :func:`fire` with their point name and context; the
plan is parsed lazily from the environment and cached per process, keyed by
the raw variable value so tests that monkeypatch ``REPRO_FAULTS`` see their
change immediately.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.utils.logging import get_logger

logger = get_logger("faults")

ENV_VAR = "REPRO_FAULTS"
POINTS = ("train", "serve", "fleet_consume", "fleet_ack")
ACTIONS = ("crash", "hang", "error")

__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "FaultError",
    "FaultSpec",
    "InjectedFault",
    "POINTS",
    "active_plan",
    "fire",
    "parse_faults",
    "reset_plan",
]


class FaultError(ValueError):
    """A ``REPRO_FAULTS`` value that does not parse."""


class InjectedFault(RuntimeError):
    """The exception raised by ``error``-action faults."""


@dataclass
class FaultSpec:
    """One parsed fault: where it fires, what it does, and when."""

    point: str
    action: str
    qualifiers: Mapping[str, str]
    after: int = 0
    times: Optional[int] = None
    seconds: float = 3600.0
    # Per-process firing state (the plan owns exactly one spec instance).
    seen: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def matches(self, point: str, context: Mapping[str, object]) -> bool:
        if point != self.point:
            return False
        for key, expected in self.qualifiers.items():
            if key not in context or str(context[key]) != expected:
                return False
        return True

    def should_fire(self) -> bool:
        """Advance the per-process counters; True when this call fires."""
        self.seen += 1
        if self.seen <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True

    def describe(self) -> str:
        quals = "".join(f":{k}={v}" for k, v in sorted(self.qualifiers.items()))
        return f"{self.point}_{self.action}{quals}"


def parse_faults(value: str) -> List[FaultSpec]:
    """Parse a ``REPRO_FAULTS`` value into :class:`FaultSpec` records."""
    specs: List[FaultSpec] = []
    for raw in value.split(","):
        raw = raw.strip()
        if not raw:
            continue
        name, _, rest = raw.partition(":")
        point, sep, action = name.rpartition("_")
        if not sep or action not in ACTIONS or not point:
            raise FaultError(
                f"bad fault name {name!r}: expected <point>_<action> with action "
                f"in {'/'.join(ACTIONS)}"
            )
        if point not in POINTS:
            raise FaultError(
                f"unknown fault point {point!r} in {name!r}: expected one of "
                f"{'/'.join(POINTS)}"
            )
        qualifiers: Dict[str, str] = {}
        after = 0
        times: Optional[int] = None
        seconds = 3600.0
        for qual in filter(None, rest.split(":")):
            key, sep, val = qual.partition("=")
            if not sep or not key or not val:
                raise FaultError(f"bad qualifier {qual!r} in fault {raw!r} (need key=value)")
            if key == "after":
                after = int(val)
            elif key == "times":
                times = int(val)
            elif key == "seconds":
                seconds = float(val)
            else:
                qualifiers[key] = val
        specs.append(
            FaultSpec(
                point=point,
                action=action,
                qualifiers=qualifiers,
                after=after,
                times=times,
                seconds=seconds,
            )
        )
    return specs


# The cached plan, keyed by the raw env value that produced it so a changed
# environment (tests monkeypatching REPRO_FAULTS) invalidates it implicitly.
_plan_key: Optional[str] = None
_plan: List[FaultSpec] = []


def active_plan() -> List[FaultSpec]:
    """The fault specs for this process's current ``REPRO_FAULTS`` value."""
    global _plan_key, _plan
    value = os.environ.get(ENV_VAR, "")
    if value != _plan_key:
        _plan = parse_faults(value) if value else []
        _plan_key = value
        if _plan:
            logger.warning(
                "fault injection active: %s", ", ".join(s.describe() for s in _plan)
            )
    return _plan


def reset_plan() -> None:
    """Forget the cached plan and its counters (test helper)."""
    global _plan_key, _plan
    _plan_key = None
    _plan = []


def fire(point: str, **context: object) -> Optional[Tuple[str, FaultSpec]]:
    """Injection point: fire whichever configured fault matches this call.

    ``crash`` never returns (the process SIGKILLs itself); ``error`` raises
    :class:`InjectedFault`; ``hang`` sleeps the spec's ``seconds`` and then
    returns ``("hang", spec)`` so callers can log the survival.  Returns
    ``None`` when nothing matched — the common, near-free case.
    """
    for spec in active_plan():
        if not spec.matches(point, context):
            continue
        if not spec.should_fire():
            continue
        logger.warning("firing injected fault %s at %s %r", spec.describe(), point, context)
        if spec.action == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # pragma: no cover - the SIGKILL beats the sleep
        elif spec.action == "error":
            raise InjectedFault(
                f"injected fault {spec.describe()} at {point} (context {dict(context)})"
            )
        elif spec.action == "hang":
            # Sleep in small slices so an interrupted test tears down fast.
            deadline = time.monotonic() + spec.seconds
            while time.monotonic() < deadline:
                time.sleep(min(0.5, max(0.0, deadline - time.monotonic())))
            return ("hang", spec)
    return None
