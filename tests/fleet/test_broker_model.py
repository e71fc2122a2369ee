"""Model-based test of the one-queue broker: Hypothesis drives random
interleavings of publish, publish leased to a consumer (``lease_to``, how
the front's caller thread answers as ``front-0``), attach, lease, ack, nack,
setting the target generation, consumers' generation reports (loads that
worked or failed, for the current target or a replaced one), the
visibility/consumer-deadline sweep (on an injected clock) and
``take_reaped`` — including the late ack of a consumer that was reaped
meanwhile, which is what a retired ``front-0`` sends if its hang ever ends
— against a plain-Python model of at-least-once, first-ack-wins delivery.

Invariants after every step: no job is lost (each is queued, leased or
finished, exactly one of them), none completes twice, none is delivered more
than ``max_deliveries`` times, and every duplicate ack is counted.  No job
is leased to a consumer that serves another generation than the target and
has not failed to load it — that consumer is handed the target instead.
Setting a target clears the reported failures, and the broker's target,
reported generations and failures match the model's.  A job is published
leased (``lease_to``) only onto an empty queue, only to an attached consumer
that holds no lease and serves the target; a job finished by the caller
that answered it inline (``ack(deliver=False)``) is never delivered again,
neither leased nor drained by ``poll_completed``.  After a sweep the broker
remembers exactly the finished jobs a duplicate could still follow.

The broker runs no thread, so a run is deterministic for its seed.  CI runs
this file once more under the ``broker-model-10x`` Hypothesis profile
(``--hypothesis-profile=broker-model-10x``, registered in ``conftest.py``):
ten times the examples of a plain run.
"""

from __future__ import annotations

import time
import types
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.fleet import broker as broker_module
from repro.fleet.broker import _JOBS, BrokerFull, InProcBroker, Job

CAPACITY = 6
VISIBILITY = 1.0
MAX_DELIVERIES = 3
#: The broker's default consumer deadline for this visibility timeout.
CONSUMER_DEADLINE = max(2.0, 2.0 * VISIBILITY)
CONSUMERS = ("front-0", "local-0")
GENERATIONS = (0, 1, 2)
#: How long the broker remembers a finished job: one full delivery cycle.
DEDUPE_HORIZON = (MAX_DELIVERIES + 1) * VISIBILITY
#: Examples per run: this, or the loaded profile's budget when that is larger.
MAX_EXAMPLES = 300


class BrokerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # The broker reads its clock as time.monotonic(); this one moves only
        # when a rule says so.
        self.now = time.monotonic()
        clock = types.SimpleNamespace(monotonic=lambda: self.now)
        self._clock = mock.patch.object(broker_module, "time", clock)
        self._clock.start()
        self.broker = InProcBroker(
            capacity=CAPACITY, visibility_timeout=VISIBILITY, max_deliveries=MAX_DELIVERIES
        )
        self.duplicate_base = _JOBS.labels("duplicate_ack").value
        # The model.
        self.published = 0
        self.queued = set()
        self.inflight = {}  # job -> (consumer, deadline)
        self.deliveries = Counter()
        self.finished = {}  # job -> "ok" | "error"
        self.finished_at = {}  # job -> model clock when it finished
        self.held = set()  # (consumer, job) leased and not yet answered by it
        self.inline = set()  # the held pairs published leased (lease_to)
        self.undelivered = set()  # finished by an inline ack: never drained
        self.target = None  # the generation every consumer must serve
        self.generations = {}  # attached consumer -> generation it reported
        self.failed = set()  # attached consumers that failed to load the target
        self.last_seen = {}  # attached consumer -> last call
        self.reaped = []
        self.redeliveries = 0
        self.duplicates = 0
        self.completions = Counter()

    def teardown(self):
        self.broker.close()
        self._clock.stop()

    # ----------------------------------------------------------- model steps
    def _touch(self, consumer):
        if consumer in self.last_seen:
            self.last_seen[consumer] = self.now

    def _attach(self, consumer):
        if consumer not in self.last_seen:
            self.generations[consumer] = None  # unknown until it reports
        self.last_seen[consumer] = self.now

    def _must_move(self, consumer):
        """Is ``consumer`` to load the target before it may lease a job?"""
        return (
            self.target is not None
            and self.generations[consumer] != self.target
            and consumer not in self.failed
        )

    def _finish(self, job, outcome):
        self.finished[job] = outcome
        self.finished_at[job] = self.now

    def _requeue(self, job):
        if self.deliveries[job] >= MAX_DELIVERIES:
            self._finish(job, "error")
        else:
            self.queued.add(job)

    # ----------------------------------------------------------------- rules
    @rule()
    def publish(self):
        job = f"job-{self.published}"
        if len(self.queued) >= CAPACITY:
            try:
                self.broker.publish({"n": self.published}, job_id=job)
            except BrokerFull:
                return
            raise AssertionError("a full queue took a job")
        self.broker.publish({"n": self.published}, job_id=job)
        self.published += 1
        self.queued.add(job)

    @rule(consumer=st.sampled_from(CONSUMERS))
    def publish_leased_to(self, consumer):
        job = f"job-{self.published}"
        leasable = (
            not self.queued
            and consumer in self.last_seen
            and all(holder != consumer for holder, _ in self.inflight.values())
            and self.target in (None, self.generations[consumer])
        )
        if not leasable and len(self.queued) >= CAPACITY:
            try:
                self.broker.publish({"n": self.published}, job_id=job, lease_to=consumer)
            except BrokerFull:
                return
            raise AssertionError("a full queue took a job")
        leased = self.broker.publish({"n": self.published}, job_id=job, lease_to=consumer)
        self.published += 1
        if not leasable:
            # Queued like any job, behind the ones already waiting.
            assert leased is None
            assert self.broker._queue[-1].job_id == job
            self.queued.add(job)
            return
        assert leased is not None and leased.job_id == job and leased.deliveries == 1
        self._touch(consumer)
        self.deliveries[job] = 1
        self.inflight[job] = (consumer, self.now + VISIBILITY)
        self.held.add((consumer, job))
        self.inline.add((consumer, job))

    @rule(consumer=st.sampled_from(CONSUMERS), generation=st.sampled_from(GENERATIONS))
    def attach(self, consumer, generation):
        # A (re-)attach reports the generation loaded and starts afresh.
        self.broker.attach(consumer, generation=generation)
        self._attach(consumer)
        self.generations[consumer] = generation
        self.failed.discard(consumer)

    @rule(generation=st.sampled_from(GENERATIONS))
    def set_target(self, generation):
        self.broker.set_target(generation)
        self.target = generation
        self.failed.clear()

    @rule(
        consumer=st.sampled_from(CONSUMERS),
        generation=st.sampled_from(GENERATIONS),
        handed=st.sampled_from(GENERATIONS),
        failed=st.booleans(),
    )
    def report(self, consumer, generation, handed, failed):
        # ``handed`` is the target the consumer was handed: the current one
        # or one replaced since, whose failure no longer counts.
        self.broker.report(consumer, generation, target=handed, error="boom" if failed else None)
        if consumer not in self.last_seen:
            return  # a detached consumer's report changes nothing
        self._touch(consumer)
        self.generations[consumer] = generation
        if failed and handed == self.target:
            self.failed.add(consumer)

    @rule(consumer=st.sampled_from(CONSUMERS))
    def lease(self, consumer):
        leased = self.broker.lease(consumer, timeout=0.0)
        self._attach(consumer)  # a lease attaches implicitly
        if self._must_move(consumer):
            # No job for a consumer on another generation: the target first.
            assert type(leased) is int and leased == self.target, leased
            return
        if not self.queued:
            assert leased is None
            return
        assert isinstance(leased, Job) and leased.job_id in self.queued
        job = leased.job_id
        self.queued.remove(job)
        self.deliveries[job] += 1
        assert leased.deliveries == self.deliveries[job]
        self.inflight[job] = (consumer, self.now + VISIBILITY)
        self.held.add((consumer, job))

    def _ack(self, consumer, job):
        # The inline caller holds its answer: nothing to deliver.
        deliver = (consumer, job) not in self.inline
        self.held.discard((consumer, job))
        self.inline.discard((consumer, job))
        first = job not in self.finished
        assert self.broker.ack(consumer, job, result=consumer, deliver=deliver) is first
        self._touch(consumer)
        if first:
            # Leased by anyone, or back in the queue: this ack completes it.
            self.inflight.pop(job, None)
            self.queued.discard(job)
            self._finish(job, "ok")
            if not deliver:
                self.undelivered.add(job)
        else:
            self.duplicates += 1

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def ack(self, data):
        self._ack(*data.draw(st.sampled_from(sorted(self.held))))

    @precondition(lambda self: any(c not in self.last_seen for c, _ in self.held))
    @rule(data=st.data())
    def late_ack_from_a_reaped_consumer(self, data):
        late = sorted((c, j) for c, j in self.held if c not in self.last_seen)
        self._ack(*data.draw(st.sampled_from(late)))

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def nack(self, data):
        consumer, job = data.draw(st.sampled_from(sorted(self.held)))
        self.held.discard((consumer, job))
        self.inline.discard((consumer, job))
        self.broker.nack(consumer, job, "boom")
        self._touch(consumer)
        # Only the lease holder gives a job back; a stale nack changes nothing.
        if self.inflight.get(job, (None,))[0] == consumer:
            del self.inflight[job]
            self._requeue(job)

    @rule(seconds=st.sampled_from([0.3, 1.1, 2.5]))
    def sweep(self, seconds):
        self.now += seconds
        self.broker.sweep()
        for job, (_, deadline) in sorted(self.inflight.items()):
            if self.now > deadline:
                del self.inflight[job]
                self.redeliveries += 1
                self._requeue(job)
        for consumer, seen in sorted(self.last_seen.items()):
            if self.now - seen > CONSUMER_DEADLINE:
                del self.last_seen[consumer]
                del self.generations[consumer]
                self.failed.discard(consumer)
                self.reaped.append(consumer)
        remembered = {j for j, at in self.finished_at.items() if at >= self.now - DEDUPE_HORIZON}
        assert set(self.broker._finished_ids) == remembered

    @rule()
    def take_reaped(self):
        assert sorted(self.broker.take_reaped()) == sorted(self.reaped)
        self.reaped = []

    # ------------------------------------------------------------ invariants
    @invariant()
    def every_job_is_somewhere_and_done_at_most_once(self):
        for completed in self.broker.poll_completed(timeout=0.0):
            assert completed.job_id not in self.undelivered
            self.completions[completed.job_id] += 1
            assert (completed.error is None) == (self.finished[completed.job_id] == "ok")
            assert completed.deliveries <= MAX_DELIVERIES
        assert all(count == 1 for count in self.completions.values())
        assert set(self.completions) == set(self.finished) - self.undelivered
        queued = [job.job_id for job in self.broker._queue]
        assert len(queued) == len(set(queued))
        assert set(queued) == self.queued
        assert {j: lease.consumer_id for j, lease in self.broker._inflight.items()} == {
            j: consumer for j, (consumer, _) in self.inflight.items()
        }
        for n in range(self.published):
            job = f"job-{n}"
            places = (job in self.queued) + (job in self.inflight) + (job in self.finished)
            assert places == 1, job

    @invariant()
    def deliveries_are_bounded(self):
        assert all(count <= MAX_DELIVERIES for count in self.deliveries.values())
        leased = list(self.broker._queue) + [lease.job for lease in self.broker._inflight.values()]
        assert all(job.deliveries <= MAX_DELIVERIES for job in leased)

    @invariant()
    def target_state_matches_the_model(self):
        stats = self.broker.stats()
        assert stats["target_generation"] == self.target
        assert stats["consumer_generations"] == self.generations
        assert set(stats["target_failures"]) == self.failed <= set(self.last_seen)

    @invariant()
    def counters_match(self):
        assert _JOBS.labels("duplicate_ack").value - self.duplicate_base == self.duplicates
        assert self.broker.redeliveries() == self.redeliveries
        assert set(self.broker.stats()["consumers"]) == set(self.last_seen)


BrokerMachine.TestCase.settings = settings(
    max_examples=max(MAX_EXAMPLES, settings.default.max_examples),
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_broker_matches_its_model = BrokerMachine.TestCase
