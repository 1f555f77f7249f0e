"""Tests of the three problem-transmission strategies."""

from __future__ import annotations

import pytest

from repro.cluster.backends.base import PAYLOAD_PATH, PAYLOAD_SERIAL, Job
from repro.core.strategies import (
    STRATEGIES,
    FullLoadStrategy,
    NFSStrategy,
    SerializedLoadStrategy,
    get_strategy,
)
from repro.errors import ClusterError, SchedulingError
from repro.pricing import PricingProblem
from repro.serial import Serial, save, serialize


@pytest.fixture
def problem() -> PricingProblem:
    problem = PricingProblem(label="strategy_test")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("PutEuro", strike=95.0, maturity=0.5)
    problem.set_method("CF_Put")
    return problem


@pytest.fixture
def file_job(tmp_path, problem) -> Job:
    path = tmp_path / "problem.pb"
    save(path, problem)
    return Job(job_id=1, path=str(path), file_size=path.stat().st_size,
               compute_cost=1e-3, category="vanilla")


@pytest.fixture
def memory_job(problem) -> Job:
    return Job(job_id=2, path="", file_size=serialize(problem).nbytes,
               compute_cost=1e-3, category="vanilla", problem=problem)


class TestFullLoad:
    def test_prepare_from_file(self, file_job, problem):
        message = FullLoadStrategy().prepare(file_job)
        assert message.kind == PAYLOAD_SERIAL
        assert message.nbytes == len(message.payload)
        assert Serial.from_bytes(message.payload).unserialize() == problem

    def test_prepare_from_memory(self, memory_job, problem):
        message = FullLoadStrategy().prepare(memory_job)
        assert Serial.from_bytes(message.payload).unserialize() == problem

    def test_missing_source_raises(self):
        job = Job(job_id=0, path="/nonexistent/file.pb", file_size=10, compute_cost=1e-3)
        with pytest.raises(SchedulingError):
            FullLoadStrategy().prepare(job)


class TestSerializedLoad:
    def test_prepare_reuses_file_bytes(self, file_job, tmp_path):
        """sload must ship the file content as-is (no re-serialization)."""
        message = SerializedLoadStrategy().prepare(file_job)
        assert message.kind == PAYLOAD_SERIAL
        file_bytes = (tmp_path / "problem.pb").read_bytes()
        assert message.payload == file_bytes

    def test_prepare_from_memory(self, memory_job, problem):
        message = SerializedLoadStrategy().prepare(memory_job)
        assert Serial.from_bytes(message.payload).unserialize() == problem

    def test_equivalent_to_full_load_content(self, file_job, problem):
        full = FullLoadStrategy().prepare(file_job)
        sload = SerializedLoadStrategy().prepare(file_job)
        assert Serial.from_bytes(full.payload).unserialize() == Serial.from_bytes(
            sload.payload
        ).unserialize()


class TestKeptWireBytes:
    """``sload`` for in-memory problems: serialized once, kept with the job."""

    def test_serialized_load_resends_the_kept_bytes(self, problem):
        job = Job(job_id=3, path="", compute_cost=1e-3, problem=problem)
        first = SerializedLoadStrategy().prepare(job)
        again = SerializedLoadStrategy().prepare(job)
        assert first.payload is again.payload is job.wire_bytes()
        assert first.payload == serialize(problem).to_bytes()

    def test_full_load_stays_the_wasteful_baseline(self, problem):
        job = Job(job_id=3, path="", compute_cost=1e-3, problem=problem)
        first, again = FullLoadStrategy().prepare(job), FullLoadStrategy().prepare(job)
        assert first.payload == again.payload and first.payload is not again.payload

    def test_file_size_is_read_off_the_bytes_unless_given(self, problem):
        job = Job(job_id=3, path="", compute_cost=1e-3, problem=problem)
        # the simulated tables are pinned to this historical size
        assert job.file_size == serialize(problem).nbytes + 4 == len(job.wire_bytes()) + 4
        assert Job(job_id=4, path="", file_size=17, compute_cost=1e-3).file_size == 17

    def test_a_job_without_a_problem_has_no_bytes(self, problem):
        job = Job(job_id=3, path="", compute_cost=1e-3, problem=problem)
        size = job.file_size
        job.drop_problem()
        assert job.problem is None and job.file_size == size
        with pytest.raises(ClusterError):
            job.wire_bytes()

    def test_replacing_the_problem_drops_its_bytes(self, problem):
        job = Job(job_id=3, path="", compute_cost=1e-3, problem=problem)
        stale = job.wire_bytes()
        other = PricingProblem.from_dict(problem.to_dict())
        other.set_option("PutEuro", strike=90.0, maturity=0.5)
        job.problem = other
        assert job.wire_bytes() != stale
        assert Serial.from_bytes(job.wire_bytes()).unserialize() == other


class TestLoadPass:
    """The work a strategy does once, before the loop: ``sload`` makes the
    bytes of every job held in memory, and nothing else does anything."""

    def test_serialized_load_makes_every_in_memory_jobs_bytes(self, memory_job, file_job):
        SerializedLoadStrategy().load([memory_job, file_job])
        assert memory_job._wire is not None
        assert file_job._wire is None  # a file is sent as it is read
        assert SerializedLoadStrategy().prepare(memory_job).payload is memory_job._wire

    @pytest.mark.parametrize("strategy", [FullLoadStrategy, NFSStrategy])
    def test_the_other_strategies_load_nothing(self, strategy, memory_job):
        strategy().load([memory_job])
        assert memory_job._wire is None

    def test_forgotten_bytes_are_made_again_from_the_problem(self, memory_job, problem):
        made = memory_job.wire_bytes()
        problem.set_option("PutEuro", strike=90.0, maturity=0.5)
        assert memory_job.wire_bytes() is made
        memory_job.forget_bytes()
        assert Serial.from_bytes(memory_job.wire_bytes()).unserialize() == problem


class TestNFS:
    def test_prepare_sends_only_the_name(self, file_job):
        message = NFSStrategy().prepare(file_job)
        assert message.kind == PAYLOAD_PATH
        assert message.payload == file_job.path
        assert message.nbytes == len(file_job.path.encode("utf-8"))

    def test_requires_a_file(self, memory_job):
        with pytest.raises(SchedulingError):
            NFSStrategy().prepare(memory_job)


class TestRegistry:
    def test_get_strategy(self):
        assert isinstance(get_strategy("full_load"), FullLoadStrategy)
        assert isinstance(get_strategy("serialized_load"), SerializedLoadStrategy)
        assert isinstance(get_strategy("nfs"), NFSStrategy)

    def test_unknown_strategy(self):
        with pytest.raises(SchedulingError):
            get_strategy("smoke_signals")

    def test_registry_covers_the_paper_strategies(self):
        assert set(STRATEGIES) == {"full_load", "serialized_load", "nfs"}

    def test_names_match_cost_model_names(self):
        from repro.cluster.simcluster.comm import STRATEGY_NAMES

        assert set(STRATEGIES) == set(STRATEGY_NAMES)


def test_a_job_s_path_is_looked_up_at_most_once(monkeypatch):
    """A per-position run on worker processes asks whether each job's path
    is a file at load and at dispatch: the job looks it up once and keeps
    the answer, where each ask once made a ``stat`` call."""
    import os
    from collections import Counter

    from repro.api import ValuationSession
    from repro.core.portfolio import build_toy_portfolio

    looked_up: Counter = Counter()
    stat = os.stat

    def exists(path):  # ``os.path.exists``, counted as one lookup
        looked_up[str(path)] += 1
        try:
            stat(path)
        except (OSError, ValueError):
            return False
        return True

    def counted_stat(path, *args, **kwargs):
        looked_up[str(path)] += 1
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os.path, "exists", exists)
    monkeypatch.setattr(os, "stat", counted_stat)
    session = ValuationSession(backend="multiprocessing", n_workers=2, scheduler="priority")
    result = session.run(build_toy_portfolio(40))
    assert result.ok and len(result.report.results) == 40
    assert looked_up and max(looked_up.values()) == 1
    assert sum(looked_up.values()) <= 40


def test_a_store_file_is_still_sent_as_its_file(tmp_path):
    from repro.core.portfolio import build_toy_portfolio
    from repro.serial import ProblemStore

    book = build_toy_portfolio(3)
    store = ProblemStore(tmp_path)
    store.write_all([position.problem for position in book])
    jobs = book.build_jobs(store=store)
    assert all(job.real_file for job in jobs)
    message = SerializedLoadStrategy().prepare(jobs[0])
    assert message.payload == store.path_for(0).read_bytes()
