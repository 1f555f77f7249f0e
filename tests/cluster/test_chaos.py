"""Tests of the chaos harness: ChurnSchedule (virtual time) and ChaosProxy
(real sockets).

The proxy lifecycle test doubles as the CI chaos smoke: a campaign whose
only link is killed mid-run by the proxy must finish bit-identical through
the rebuild of its lost pool.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.backends import Job, PAYLOAD_SERIAL, PreparedMessage
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.simcluster import (
    ChurnEvent,
    ChurnSchedule,
    ClusterSpec,
    SimulatedClusterBackend,
)
from repro.cluster.worker import spawn_local_workers
from repro.errors import ClusterError, SimulationError, WorkerLostError
from repro.pricing import PricingProblem
from repro.serial import serialize
from tests.chaos import (
    ChaosProxy,
    ChaosRule,
    delay_frame,
    kill_after,
    truncate_frame,
)


def _make_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"chaos_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _dispatch(backend: RemoteBackend, worker_id: int, job_id: int, problem) -> None:
    data = serialize(problem).to_bytes()
    backend.dispatch(
        worker_id,
        Job(job_id=job_id, path="", file_size=len(data), compute_cost=1e-3),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data)),
    )


def _sim_jobs(costs):
    return [
        Job(job_id=i, path=f"/virtual/p{i}.pb", file_size=500, compute_cost=c,
            category="chaos")
        for i, c in enumerate(costs)
    ]


def _run_robin_hood(backend, jobs):
    queue = list(jobs)
    in_flight = 0
    for worker in range(min(backend.n_workers, len(queue))):
        backend.dispatch(worker, queue.pop(0))
        in_flight += 1
    completed = []
    while queue:
        done = backend.collect()
        completed.append(done)
        backend.dispatch(done.worker_id, queue.pop(0))
    for _ in range(in_flight):
        completed.append(backend.collect())
    return completed


class TestChurnSchedule:
    def test_fluent_build_and_properties(self):
        churn = ChurnSchedule().kill(0, at=5.0).kill(0, at=3.0).kill(2, at=9.0)
        churn.join(at=12.0, speed=2.0).join(at=4.0)
        assert churn.kills == {0: 3.0, 2: 9.0}  # earliest kill wins
        assert churn.joins == [(4.0, 1.0), (12.0, 2.0)]  # sorted by birth

    @pytest.mark.parametrize(
        "event_kwargs",
        [
            dict(time=1.0, action="explode"),
            dict(time=-1.0, action="kill", worker_id=0),
            dict(time=1.0, action="kill"),  # kill needs a worker_id
            dict(time=1.0, action="kill", worker_id=-2),
            dict(time=1.0, action="join", speed=0.0),
        ],
    )
    def test_event_validation(self, event_kwargs):
        with pytest.raises(ClusterError):
            ChurnEvent(**event_kwargs)

    @pytest.mark.parametrize(
        ("build", "field"),
        [
            (lambda churn: churn.kill(0, at=float("nan")), "time"),
            (lambda churn: churn.kill(0, at=float("inf")), "time"),
            (lambda churn: churn.kill(1.5, at=0.2), "worker_id"),
            (lambda churn: churn.kill(True, at=0.2), "worker_id"),
            (lambda churn: churn.kill("0", at=0.2), "worker_id"),
            (lambda churn: churn.join(at=float("nan")), "time"),
            (lambda churn: churn.join(at=0.2, speed=float("nan")), "speed"),
            (lambda churn: churn.join(at=0.2, speed=float("inf")), "speed"),
            (lambda churn: churn.join(at=0.2, speed=-1.0), "speed"),
        ],
        ids=["kill-at-nan", "kill-at-inf", "kill-float-worker", "kill-bool-worker",
             "kill-str-worker", "join-at-nan", "join-nan-speed", "join-inf-speed",
             "join-negative-speed"],
    )
    def test_a_bad_event_is_refused_where_it_is_built(self, build, field):
        # refused at construction, naming the field -- not a simulator error
        # later, nor a kill that never fires or a join that shortens the run
        with pytest.raises(ClusterError, match=field) as excinfo:
            build(ChurnSchedule())
        assert not isinstance(excinfo.value, SimulationError)

    def test_kill_of_unknown_worker_rejected_by_simulator(self):
        churn = ChurnSchedule().kill(7, at=1.0)
        with pytest.raises(SimulationError, match="unknown worker"):
            SimulatedClusterBackend(ClusterSpec.homogeneous(2), churn=churn)


class TestSimulatedChurn:
    def test_churn_is_deterministic_and_counted(self):
        costs = [0.05, 0.2, 0.01, 0.4] * 8
        churn = ChurnSchedule().kill(1, at=0.3).join(at=0.8)
        runs = []
        for _ in range(2):
            backend = SimulatedClusterBackend(
                ClusterSpec.homogeneous(4), churn=churn
            )
            completed = _run_robin_hood(backend, _sim_jobs(costs))
            stats = backend.finalize()
            runs.append((stats.total_time, dict(stats.extra)))
            assert sorted(c.job_id for c in completed) == list(range(len(costs)))
        assert runs[0] == runs[1]  # bit-identical virtual time
        extra = runs[0][1]
        assert extra["churn_kills"] == 1
        assert extra["churn_joins"] == 1
        assert extra["churn_redirects"] + extra["churn_restarts"] >= 1

    def test_churn_never_speeds_up_the_campaign(self):
        costs = [0.1] * 24
        baseline = SimulatedClusterBackend(ClusterSpec.homogeneous(3))
        _run_robin_hood(baseline, _sim_jobs(costs))
        churned = SimulatedClusterBackend(
            ClusterSpec.homogeneous(3), churn=ChurnSchedule().kill(0, at=0.15)
        )
        _run_robin_hood(churned, _sim_jobs(costs))
        assert churned.finalize().total_time >= baseline.finalize().total_time

    def test_plain_simulation_unchanged_by_churn_plumbing(self):
        costs = [0.05, 0.2, 0.01, 0.4] * 10
        plain = SimulatedClusterBackend(ClusterSpec.homogeneous(4))
        _run_robin_hood(plain, _sim_jobs(costs))
        empty = SimulatedClusterBackend(
            ClusterSpec.homogeneous(4), churn=ChurnSchedule()
        )
        _run_robin_hood(empty, _sim_jobs(costs))
        assert plain.finalize().total_time == empty.finalize().total_time

    def test_total_loss_raises_worker_lost(self):
        backend = SimulatedClusterBackend(
            ClusterSpec.homogeneous(1), churn=ChurnSchedule().kill(0, at=0.05)
        )
        with pytest.raises(WorkerLostError, match="whole simulated cluster"):
            _run_robin_hood(backend, _sim_jobs([0.2, 0.2]))

    def test_join_rescues_a_dying_cluster(self):
        churn = (
            ChurnSchedule().kill(0, at=1.0).kill(1, at=1.0).join(at=0.5, speed=2.0)
        )
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(2), churn=churn)
        completed = _run_robin_hood(backend, _sim_jobs([0.4] * 9))
        stats = backend.finalize()
        assert sorted(c.job_id for c in completed) == list(range(9))
        assert stats.extra["churn_restarts"] + stats.extra["churn_redirects"] >= 1


class TestChaosRuleValidation:
    @pytest.mark.parametrize(
        "rule_kwargs",
        [
            dict(action="nuke"),
            dict(action="kill", direction="sideways"),
            dict(action="kill", after_frames=-1),
            dict(action="delay", delay=0.0),
        ],
    )
    def test_bad_rules_rejected(self, rule_kwargs):
        with pytest.raises(ClusterError):
            ChaosRule(**rule_kwargs)

    def test_bad_upstream_address_rejected(self):
        with pytest.raises(ClusterError, match="bad upstream address"):
            ChaosProxy("no-port-here")


class TestChaosProxy:
    def test_transparent_passthrough(self):
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        reference = [p.compute().price for p in problems]
        with spawn_local_workers(1) as pool:
            with ChaosProxy(pool.hosts[0]) as proxy:
                backend = RemoteBackend([proxy.address])
                for index, problem in enumerate(problems):
                    _dispatch(backend, 0, index, problem)
                collected = sorted(
                    (backend.collect(timeout=60.0) for _ in problems),
                    key=lambda done: done.job_id,
                )
                backend.finalize()
                assert [c.error for c in collected] == [None, None, None]
                assert [c.result["price"] for c in collected] == reference
                assert proxy.stats["connections"] == 1
                assert proxy.stats["frames_forwarded"] > 0
                assert proxy.stats["kills"] == 0

    def test_scheduled_kill_survived_through_a_rebuilt_pool(self):
        """The CI chaos lifecycle: the only link is killed mid-campaign, the
        campaign dials a new pool through the proxy and finishes
        bit-identical."""
        from repro.api import ValuationSession
        from repro.core.portfolio import Portfolio, Position

        book = Portfolio(positions=[
            Position(_make_problem(strike), label=f"p{strike:.0f}")
            for strike in (85.0, 95.0, 105.0, 115.0, 125.0, 135.0)
        ])
        reference = ValuationSession(backend="local").run(book).prices()
        with spawn_local_workers(1) as pool:
            with ChaosProxy(pool.hosts[0], rules=[kill_after(6)]) as proxy:
                session = ValuationSession(
                    backend="remote", backend_options={"hosts": [proxy.address]})
                result = session.run(book, batch=False)  # one job, one frame each way
                assert result.ok and result.prices() == reference
                assert result.report.extra["retries"] >= 1
                assert proxy.stats["kills"] >= 1
                assert proxy.stats["connections"] >= 2  # the new pool went through

    def test_two_pumps_cannot_slip_past_a_rule_together(self):
        """A frame is numbered when it reaches the schedule, not once it is
        forwarded: with both pumps of a link between check and send, the
        second one used to read the first one's count and the rule never fired
        (seen once as ``reconnects == 0`` in the test above)."""
        import socket

        from tests.chaos import _Link

        ends = socket.socketpair()
        try:
            with ChaosProxy("127.0.0.1:1", rules=[kill_after(1)]) as proxy:
                link = _Link(*ends)
                assert proxy._rule_for(link, "c2s") is None  # frame 1, not yet sent
                assert proxy._rule_for(link, "s2c").action == "kill"  # frame 2
        finally:
            for end in ends:
                end.close()

    def test_a_truncated_frame_from_the_only_worker_loses_the_pool(self):
        """The link is cut mid-frame and no other host is live: the next
        collect raises the loss, naming every job in flight, for its campaign
        (or caller) to resubmit on a new pool.  The dispatches may meet the
        cut too, and raise nothing."""
        with spawn_local_workers(1) as pool:
            with ChaosProxy(
                pool.hosts[0], rules=[truncate_frame(1, direction="s2c")]
            ) as proxy:
                backend = RemoteBackend([proxy.address])
                for index in range(4):
                    _dispatch(backend, 0, index, _make_problem(90.0 + index))
                with pytest.raises(WorkerLostError) as excinfo:
                    backend.collect(timeout=30.0)  # no reply ever arrives whole
                backend.finalize()
                assert excinfo.value.job_ids == (0, 1, 2, 3)  # the orphans are resubmittable
                assert proxy.stats["truncations"] == 1
                assert proxy.stats["connections"] == 1  # nothing re-dialed

    def test_a_reply_record_cut_mid_column_costs_no_cell(self):
        """A scenario-grid slice answers one ``ResultColumns`` record per
        frame: truncating one mid-array buries the link, the master re-dials
        and the re-sent slices fill the table exactly as a clean run does."""
        from repro.api import ValuationSession
        from repro.core.portfolio import Portfolio, Position

        def book() -> Portfolio:
            return Portfolio(positions=[
                Position(_make_problem(strike), label=f"p{strike:.0f}")
                for strike in (85.0, 95.0, 105.0, 115.0)
            ])

        returns = [0.001 * (k - 20) for k in range(40)]
        reference = ValuationSession(backend="local").risk(book(), spot_returns=returns)
        with spawn_local_workers(1) as pool:
            # s2c frame 0 is the hello; frame 2 is the second slice's reply
            with ChaosProxy(pool.hosts[0], rules=[truncate_frame(2, direction="s2c")]) as proxy:
                session = ValuationSession(
                    backend="remote", backend_options={"hosts": [proxy.address]})
                assert session.risk(book(), spot_returns=returns) == reference
                assert proxy.stats["truncations"] == 1
                assert proxy.stats["connections"] >= 2  # the new pool went through

    def test_delay_rule_holds_a_frame_without_corruption(self):
        problem = _make_problem()
        with spawn_local_workers(1) as pool:
            with ChaosProxy(
                pool.hosts[0], rules=[delay_frame(0, 0.3, direction="c2s")]
            ) as proxy:
                backend = RemoteBackend([proxy.address])
                _dispatch(backend, 0, 0, problem)
                done = backend.collect(timeout=60.0)
                backend.finalize()
                assert done.error is None
                assert done.result["price"] == problem.compute().price
                assert proxy.stats["delays"] == 1
