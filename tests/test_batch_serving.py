"""Batched admission and batched serving equal their per-request forms.

``AdmissionController.admit_batch`` must take exactly the decisions a
loop of ``decide`` calls takes when every admit bumps the node's
pending count, and a ``ServeSession`` whose loadgen submits whole runs
of arrivals must produce the same results as one ``ServerEngine.submit``
per arrival on its own clock event.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import EngineConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
    ResilienceConfig,
    ServerEngine,
    ServeSession,
    VirtualClock,
    poisson_arrivals,
)
from repro.serve.admission import AdmissionController, prior_in_group
from repro.serve.loadgen import LoadgenReport
from repro.serve.resilience import _rng_state
from repro.telemetry import Telemetry


def _sequential(config, node_ids, queue_s, pending, rates, limit):
    controller = AdmissionController(config)
    pending = pending.copy()
    decisions = []
    for node in node_ids.tolist():
        estimate = float(queue_s[node] + pending[node] / rates[node])
        decision = controller.decide(node, estimate, limit_s=limit)
        if decision.accepted:
            pending[node] += 1.0
        decisions.append(decision)
    return controller, decisions


class TestAdmitBatch:
    @given(
        nodes=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=0, max_value=80),
        queue_limit=st.floats(min_value=0.01, max_value=5.0),
        brownout_factor=st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)),
        floor=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_sequential_decide(
        self, nodes, n, queue_limit, brownout_factor, floor, seed
    ):
        rng = np.random.default_rng(seed)
        config = AdmissionConfig(queue_limit_seconds=queue_limit, retry_after_floor_s=floor)
        node_ids = rng.integers(0, nodes, n)
        queue_s = rng.uniform(0.0, 2.0 * queue_limit, nodes) * (rng.random(nodes) < 0.8)
        pending = rng.integers(0, 20, nodes).astype(float)
        rates = rng.choice([1e-9, 0.5, 3.0, 12.0, 300.0], nodes)
        limit = queue_limit * brownout_factor if brownout_factor is not None else None

        ref, decisions = _sequential(config, node_ids, queue_s, pending, rates, limit)
        controller = AdmissionController(config)
        accepted, estimates, retry = controller.admit_batch(
            node_ids, queue_s, pending, rates, limit_s=limit
        )
        assert accepted.tolist() == [d.accepted for d in decisions]
        assert estimates.tolist() == [d.est_queue_seconds for d in decisions]
        assert retry.tolist() == [d.retry_after_s for d in decisions]
        assert (controller.accepted, controller.rejected) == (ref.accepted, ref.rejected)

    def test_prior_in_group_counts_earlier_same_key(self):
        keys = np.array([2, 0, 2, 2, 1, 0])
        flags = np.array([True, True, False, True, True, True])
        assert prior_in_group(keys).tolist() == [0, 0, 1, 2, 0, 1]
        assert prior_in_group(keys, flags).tolist() == [0, 0, 1, 1, 0, 1]
        assert prior_in_group(np.array([], dtype=int)).tolist() == []


class _PerArrival:
    """The per-request driver the batched loadgen replaced: one clock
    event and one ``ServerEngine.submit`` per arrival."""

    def __init__(self, engine, arrivals, clock):
        self.engine, self.arrivals, self.clock = engine, arrivals, clock
        self.report = LoadgenReport()
        self.next = 0

    def arm(self):
        if self.next < len(self.arrivals):
            self.clock.call_at(float(self.arrivals[self.next]), self.fire, priority=1)

    def fire(self):
        self.next += 1
        tracer = self.engine.request_tracer
        trace = tracer.mint("loadgen") if tracer is not None else None
        self.engine.submit(self.report.record, now=self.clock.now, trace=trace)
        self.arm()


def _engine(crash: bool, seed: int) -> ServerEngine:
    kwargs = {}
    if crash:
        kwargs = dict(
            fault_injector=FaultInjector(
                FaultPlan([NodeCrash(at_seconds=8.0, node_id=1, recover_after_seconds=10.0)])
            ),
            resilience=ResilienceConfig(
                breaker=BreakerConfig(miss_threshold=4, open_seconds=5.0),
                brownout=BrownoutConfig(queue_factor=0.5),
            ),
        )
    return ServerEngine(
        EngineConfig(max_nodes=4, saturation_rate_per_node=12.0, db_size_kb=5 * 1024),
        initial_nodes=3,
        seed=seed,
        admission=AdmissionConfig(queue_limit_seconds=1.0),
        telemetry=Telemetry(),
        trace_requests=True,
        **kwargs,
    )


@given(
    rate=st.floats(min_value=5.0, max_value=80.0),
    crash=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_batched_session_equals_per_arrival_submission(rate, crash, seed):
    arrivals = poisson_arrivals(rate, 25.0, seed=seed)

    batched = _engine(crash, seed)
    session = ServeSession(batched, arrivals)
    session.run(27.0)

    single = _engine(crash, seed)
    clock = VirtualClock()
    driver = _PerArrival(single, arrivals, clock)
    driver.arm()

    def tick():
        single.tick()
        if clock.now < 27.0 - 1e-9:
            clock.call_later(1.0, tick)

    clock.call_at(1.0, tick)
    clock.run_until(27.0)
    driver.report.duration_s = clock.now

    assert session.loadgen.report == driver.report
    assert _rng_state(batched._rng) == _rng_state(single._rng)
    assert batched.latency_sum_ms == single.latency_sum_ms
    a, b = batched.telemetry, single.telemetry
    assert a.metrics.records() == b.metrics.records()
    assert list(a.metrics.counters()) == list(b.metrics.counters())
    assert [s.as_record() for s in a.tracer.spans] == [s.as_record() for s in b.tracer.spans]
    assert a.timeline.events == b.timeline.events


class TestTickTieRule:
    """Arrivals due at the same instant as a clock event run after it: a
    tick at ``T`` serves the arrivals strictly before ``T``, however the
    session is driven."""

    ARRIVALS = np.repeat(np.arange(0.0, 10.0, 2.0), 5)

    def run(self, stepped):
        engine = ServerEngine(
            EngineConfig(max_nodes=4, saturation_rate_per_node=12.0, db_size_kb=5 * 1024),
            initial_nodes=2,
            seed=11,
            admission=AdmissionConfig(queue_limit_seconds=0.4),
        )
        session = ServeSession(engine, self.ARRIVALS)
        for _ in range(12 if stepped else 1):
            session.run(1.0 if stepped else 12.0)
        return session.loadgen.report

    def test_arrival_on_a_tick_waits_for_the_next_tick(self):
        engine = ServerEngine(
            EngineConfig(max_nodes=4, saturation_rate_per_node=12.0, db_size_kb=5 * 1024),
            initial_nodes=2,
        )
        session = ServeSession(engine, np.array([1.0, 1.0, 1.5]))
        session.run(1.0)
        # The tick at 1 served nothing; the two arrivals at 1 came after it.
        assert session.loadgen.report.accepted == 0
        assert engine.pending_requests == 2
        session.run(1.0)
        assert session.loadgen.report.accepted == 3  # all served by the tick at 2

    def test_stepped_and_single_run_agree(self):
        assert self.run(stepped=True) == self.run(stepped=False)
