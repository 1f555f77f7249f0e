#!/usr/bin/env python
"""The paper's Fig. 4/5 master/slave script, on the production worker contract.

The original Nsp script spawns slaves, sends each of them a serialized
``PremiaModel`` object, probes for answers from any source, and keeps
feeding whichever slave answers until the portfolio is exhausted (the "Robin
Hood" loop).  This example is a line-for-line port onto the four calls of
:class:`~repro.cluster.backends.WorkerBackend` that the library's own master
loop (:class:`~repro.core.scheduler.ScheduleStream`) is written with:

=================================  ==========================================
MPINSP listing (Fig. 3-5)          here
=================================  ==========================================
``NSP_spawn`` of the slaves        ``create_backend("multiprocessing", ...)``
``send_premia_pb`` (``sload`` +    ``strategy.prepare(job)`` (serialized
``MPI_Pack`` + ``MPI_Send``)       load) + ``backend.dispatch(slave, ...)``
``MPI_Probe(-1, -1)`` +            ``backend.collect()``
``MPI_Recv_Obj``
the empty stop message             ``backend.send_stop(slave)``
=================================  ==========================================

The slaves are real worker processes running the library's worker loop
(receive, rebuild, compute, answer); the prices they return are checked
against an in-process ``backend="local"`` valuation of the same book.

Run with:  python examples/master_worker_mpi.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import ValuationSession
from repro.cluster.backends import Job, WorkerBackend, create_backend
from repro.core import TransmissionStrategy, build_toy_portfolio, get_strategy


def send_premia_pb(
    backend: WorkerBackend, strategy: TransmissionStrategy, job: Job, slave: int
) -> None:
    """Fig. 5's send_premia_pb: sload the file, pack it, send it to one slave."""
    backend.dispatch(slave, job, strategy.prepare(job))


def master(jobs: list[Job], n_slaves: int) -> dict[int, float]:
    """The master part of Fig. 4; returns ``{job_id: price}``."""
    strategy = get_strategy("serialized_load")
    prices: dict[int, float] = {}

    with create_backend("multiprocessing", n_workers=n_slaves) as backend:

        def receive() -> int:
            done = backend.collect()    # MPI_Probe from any source + MPI_Recv_Obj
            prices[done.job_id] = done.result["price"]
            return done.worker_id

        queue = list(jobs)
        # first send one job to each slave
        in_flight = min(n_slaves, len(queue))
        for slave in range(in_flight):
            send_premia_pb(backend, strategy, queue.pop(0), slave)

        # Robin Hood: whoever answers gets the next job
        while queue:
            slave = receive()
            send_premia_pb(backend, strategy, queue.pop(0), slave)

        # drain the remaining answers
        for _ in range(in_flight):
            receive()

        # tell all slaves to stop working
        for slave in range(n_slaves):
            backend.send_stop(slave)
    return prices


def main(n_slaves: int = 3, n_problems: int = 24) -> None:
    portfolio = build_toy_portfolio(n_options=n_problems)
    with tempfile.TemporaryDirectory() as tmp:
        store = portfolio.to_store(Path(tmp) / "problems")
        jobs = portfolio.build_jobs(store=store)
        prices = master(jobs, n_slaves)
        names = {job.job_id: Path(job.path).name for job in jobs}

    assert prices == ValuationSession(backend="local").run(portfolio).prices()
    print(f"priced {len(prices)} problems with {n_slaves} slaves")
    print(f"sum of prices: {sum(prices.values()):.4f}")
    for job_id in sorted(prices)[:5]:
        print(f"  {names[job_id]}: {prices[job_id]:.4f}")


if __name__ == "__main__":
    main()
