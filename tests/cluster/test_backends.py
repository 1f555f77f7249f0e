"""Tests of the sequential and multiprocessing execution backends."""

from __future__ import annotations

import pytest

from repro.cluster.backends import (
    PAYLOAD_PATH,
    PAYLOAD_SERIAL,
    Job,
    MultiprocessingBackend,
    PreparedMessage,
    SequentialBackend,
    execute_payload,
    materialize_problem,
)
from repro.errors import ClusterError
from repro.pricing import PricingProblem
from repro.serial import save, serialize


def _make_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"test_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _job(job_id: int, problem: PricingProblem) -> Job:
    return Job(job_id=job_id, path="", file_size=512, compute_cost=1e-3,
               category="vanilla", problem=problem)


def _message(problem: PricingProblem) -> PreparedMessage:
    data = serialize(problem).to_bytes()
    return PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data))


class TestExecution:
    def test_materialize_from_serial_bytes(self):
        problem = _make_problem()
        rebuilt = materialize_problem(PAYLOAD_SERIAL, serialize(problem).to_bytes())
        assert rebuilt == problem

    def test_materialize_from_path(self, tmp_path):
        problem = _make_problem()
        path = tmp_path / "p.pb"
        save(path, problem)
        assert materialize_problem(PAYLOAD_PATH, str(path)) == problem

    def test_materialize_rejects_non_problems(self):
        with pytest.raises(ClusterError):
            materialize_problem(PAYLOAD_SERIAL, serialize([1, 2, 3]).to_bytes())
        with pytest.raises(ClusterError):
            materialize_problem("telepathy", None)
        with pytest.raises(ClusterError):  # bytes or a file name, nothing else
            materialize_problem("problem", _make_problem())

    def test_execute_payload_success(self):
        result, elapsed, error = execute_payload(
            PAYLOAD_SERIAL, serialize(_make_problem()).to_bytes()
        )
        assert error is None
        assert result["price"] == pytest.approx(10.450584, abs=1e-6)
        assert elapsed >= 0

    def test_execute_payload_captures_errors(self):
        result, _elapsed, error = execute_payload(PAYLOAD_SERIAL, b"garbage")
        assert result is None
        assert error is not None


class TestSequentialBackend:
    def test_dispatch_collect_cycle(self):
        backend = SequentialBackend(n_workers=2)
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        for index, problem in enumerate(problems):
            backend.dispatch(index % 2, _job(index, problem), _message(problem))
        collected = [backend.collect() for _ in range(3)]
        assert [c.job_id for c in collected] == [0, 1, 2]
        assert all(c.error is None for c in collected)
        assert collected[1].result["price"] == pytest.approx(10.450584, abs=1e-6)
        stats = backend.finalize()
        assert stats.n_jobs == 3
        assert stats.n_workers == 2
        assert stats.bytes_sent > 0

    def test_collect_without_dispatch_raises(self):
        backend = SequentialBackend()
        with pytest.raises(ClusterError):
            backend.collect()

    def test_invalid_worker_id(self):
        backend = SequentialBackend(n_workers=1)
        problem = _make_problem()
        with pytest.raises(ClusterError):
            backend.dispatch(3, _job(0, problem), _message(problem))

    def test_invalid_worker_count(self):
        with pytest.raises(ClusterError):
            SequentialBackend(n_workers=0)

    def test_requires_payload_flag(self):
        assert SequentialBackend().requires_payload is True


class TestMultiprocessingBackend:
    def test_parallel_execution_matches_sequential(self):
        problems = [_make_problem(k) for k in (80.0, 90.0, 100.0, 110.0, 120.0, 130.0)]
        sequential_prices = {i: p.compute().price for i, p in enumerate(problems)}

        backend = MultiprocessingBackend(n_workers=3)
        try:
            for index, problem in enumerate(problems):
                backend.dispatch(index % 3, _job(index, problem), _message(problem))
            collected = {c.job_id: c for c in (backend.collect() for _ in range(len(problems)))}
        finally:
            stats = backend.finalize()

        assert len(collected) == len(problems)
        for index, price in sequential_prices.items():
            assert collected[index].result["price"] == pytest.approx(price, abs=1e-12)
        assert stats.n_jobs == len(problems)
        assert sum(stats.worker_busy.values()) > 0

    def test_path_payload(self, tmp_path):
        problem = _make_problem()
        path = tmp_path / "p.pb"
        save(path, problem)
        backend = MultiprocessingBackend(n_workers=1)
        try:
            message = PreparedMessage(kind=PAYLOAD_PATH, payload=str(path), nbytes=64)
            backend.dispatch(0, _job(0, problem), message)
            done = backend.collect()
        finally:
            backend.finalize()
        assert done.error is None
        assert done.result["price"] == pytest.approx(10.450584, abs=1e-6)

    def test_worker_survives_bad_job(self):
        backend = MultiprocessingBackend(n_workers=1)
        try:
            bad = PreparedMessage(kind=PAYLOAD_SERIAL, payload=b"junk", nbytes=4)
            backend.dispatch(0, _job(0, None), bad)
            first = backend.collect()
            # the worker must still process a valid follow-up job
            problem = _make_problem()
            backend.dispatch(0, _job(1, problem), _message(problem))
            second = backend.collect()
        finally:
            backend.finalize()
        assert first.error is not None
        assert second.error is None
        assert second.result["price"] > 0

    def test_collect_without_dispatch_raises(self):
        backend = MultiprocessingBackend(n_workers=1)
        try:
            with pytest.raises(ClusterError):
                backend.collect()
        finally:
            backend.finalize()

    def test_dispatch_after_finalize_rejected(self):
        backend = MultiprocessingBackend(n_workers=1)
        backend.finalize()
        problem = _make_problem()
        with pytest.raises(ClusterError):
            backend.dispatch(0, _job(0, problem), _message(problem))

    def test_invalid_worker_count(self):
        with pytest.raises(ClusterError):
            MultiprocessingBackend(n_workers=0)

    def test_finalize_idempotent(self):
        backend = MultiprocessingBackend(n_workers=1)
        backend.finalize()
        stats = backend.finalize()
        assert stats.n_jobs == 0


class TestDispatchBatch:
    """The chunked dispatch contract off the simulated cluster: the default
    per-job loop (the simulator's one message per chunk: ``test_simulator.py``)."""

    def test_sequential_uses_the_default_per_job_loop(self):
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        backend = SequentialBackend(n_workers=1)
        backend.dispatch_batch(
            0, [_job(i, p) for i, p in enumerate(problems)],
            [_message(p) for p in problems],
        )
        collected = [backend.collect() for _ in range(3)]
        backend.finalize()
        assert [c.job_id for c in collected] == [0, 1, 2]
        assert all(c.error is None for c in collected)

    def test_multiprocessing_uses_the_default_per_job_loop(self):
        problems = [_make_problem(k) for k in (85.0, 95.0, 105.0, 115.0)]
        reference = [p.compute().price for p in problems]
        backend = MultiprocessingBackend(n_workers=2)
        try:
            backend.dispatch_batch(
                0, [_job(i, p) for i, p in enumerate(problems[:2])],
                [_message(p) for p in problems[:2]],
            )
            backend.dispatch_batch(
                1, [_job(2 + i, p) for i, p in enumerate(problems[2:])],
                [_message(p) for p in problems[2:]],
            )
            collected = {c.job_id: c for c in (backend.collect() for _ in range(4))}
        finally:
            stats = backend.finalize()
        assert stats.n_jobs == 4
        for index, price in enumerate(reference):
            assert collected[index].result["price"] == price
