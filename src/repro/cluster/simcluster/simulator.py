"""Discrete-event simulation of the master/worker cluster.

:class:`SimulatedClusterBackend` implements the
:class:`~repro.cluster.backends.base.WorkerBackend` interface in *virtual*
time: the scheduler drives it exactly like a real backend (dispatch one job
to a worker, collect results as they come back), but instead of running the
pricing code, the backend advances clocks according to

* the master-side preparation cost of the chosen transmission strategy;
* the network transfer time of the message (master blocks while sending,
  which is what makes the master the bottleneck for cheap jobs);
* the worker-side preparation cost (including NFS reads for the NFS
  strategy);
* the job's compute cost divided by the worker's speed factor;
* the return trip of the small result message.

The master is modelled as a single resource (it prepares and sends one
message at a time); workers are independent resources.  This is enough to
reproduce the three regimes of the paper's tables: near-linear speedup when
jobs are expensive (Table III), master-bound flattening when jobs are cheap
(Table II), and plateauing at the longest single job when the portfolio is
small compared to the worker count (Table I).

The simulated cluster prices nothing: a collected job carries no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.backends.base import (
    BackendStats,
    CompletedJob,
    Job,
    PreparedMessage,
    WorkerBackend,
)
from repro.cluster.simcluster.comm import CommunicationModel
from repro.cluster.simcluster.events import EventQueue
from repro.cluster.simcluster.node import ClusterSpec
from repro.errors import ClusterError, SimulationError, WorkerLostError

__all__ = ["SimulatedClusterBackend", "SimulationTrace"]


@dataclass
class SimulationTrace:
    """Per-job timing record kept by the simulator (for tests and reports)."""

    job_id: int
    worker_id: int
    dispatched_at: float
    worker_start: float
    worker_done: float
    collected_at: float
    compute_time: float
    category: str = "generic"


@dataclass
class _InFlight:
    job: Job
    worker_id: int
    dispatched_at: float
    worker_start: float
    worker_done: float
    compute_time: float


class SimulatedClusterBackend(WorkerBackend):
    """Virtual-time master/worker backend.

    Parameters
    ----------
    cluster:
        Worker pool specification (:class:`ClusterSpec`).
    strategy:
        Transmission strategy name (``"full_load"``, ``"nfs"`` or
        ``"serialized_load"``); determines the per-job communication costs.
    comm:
        Communication cost model; the default reproduces the paper's
        Gigabit-Ethernet + NFS cluster.  Reuse one instance across a CPU-count
        sweep to let the NFS cache persist between runs (the paper's Table II
        artefact); pass a fresh instance for independent runs.
    churn:
        Optional :class:`~repro.cluster.chaos.ChurnSchedule`: workers die or
        join at virtual times.  A dispatch routed to a dead worker is
        deterministically redirected to the live worker that frees up
        earliest; a job computing when its worker dies restarts on a
        survivor at the death instant (charging the lost partial work); a
        joining worker's clock starts at its join time.  The scheduler sees
        the joiners in ``n_workers`` from the start -- jobs sent to an
        unborn worker simply wait for its birth.
    """

    requires_payload = False

    def __init__(
        self,
        cluster: ClusterSpec,
        strategy: str = "serialized_load",
        comm: CommunicationModel | None = None,
        churn: Any = None,
    ):
        self.cluster = cluster
        self.strategy = strategy
        self.comm = comm if comm is not None else CommunicationModel()
        self.comm._check_strategy(strategy)
        self.churn = churn

        base = cluster.n_workers
        joins = list(churn.joins) if churn is not None else []
        self._birth = [0.0] * base + [birth for birth, _speed in joins]
        self._join_speed = {
            base + index: speed for index, (_birth, speed) in enumerate(joins)
        }
        self._death: dict[int, float] = dict(churn.kills) if churn is not None else {}
        for worker_id in self._death:
            if not 0 <= worker_id < base + len(joins):
                raise SimulationError(
                    f"churn schedule kills unknown worker {worker_id} "
                    f"(cluster has workers 0..{base + len(joins) - 1})"
                )
        self._churn_redirects = 0
        self._churn_restarts = 0

        n_total = base + len(joins)
        self._master_time = 0.0
        self._master_busy = 0.0
        self._worker_free = [0.0] * n_total
        self._worker_busy = [0.0] * n_total
        self._events = EventQueue()
        self._in_flight = 0
        self._n_jobs = 0
        self._bytes_sent = 0
        self._traces: list[SimulationTrace] = []
        self._finalized = False

    # -- WorkerBackend interface ---------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._worker_free)

    @property
    def virtual_time(self) -> float:
        """Current master virtual clock (seconds)."""
        return self._master_time

    def dispatch(self, worker_id: int, job: Job, message: PreparedMessage | None = None) -> None:
        self.dispatch_batch(worker_id, [job])

    def dispatch_batch(
        self,
        worker_id: int,
        jobs: list[Job],
        messages: list[PreparedMessage] | None = None,
    ) -> None:
        """Dispatch one message carrying ``jobs`` (a chunk, or a single job).

        The master pays every job's preparation cost, but only one network
        latency is charged for the whole message -- "it is always advisable
        to send a single large message rather [than] several smaller
        messages".
        """
        if self._finalized:
            raise ClusterError("backend already finalized")
        if not 0 <= worker_id < self.n_workers:
            raise ClusterError(f"invalid worker id {worker_id}")
        if not jobs:
            return

        prep = sum(self.comm.master_prep_time(self.strategy, job) for job in jobs)
        nbytes = sum(self.comm.message_nbytes(self.strategy, job) for job in jobs)
        send = self.comm.network.transfer_time(nbytes)
        # every member records the instant the master began preparing the message
        dispatched_at = self._master_time
        self._master_time += prep + send
        self._master_busy += prep + send
        self._bytes_sent += nbytes
        arrival = self._master_time

        for job in jobs:
            worker_prep = self.comm.worker_prep_time(self.strategy, job)
            # _place commits the worker's free time, so chunk members chain
            # on the same worker exactly as the sequential in-order model did
            placed_id, start, done, compute = self._place(
                worker_id, arrival, worker_prep, job
            )
            record = _InFlight(
                job=job,
                worker_id=placed_id,
                dispatched_at=dispatched_at,
                worker_start=start,
                worker_done=done,
                compute_time=compute,
            )
            self._events.push(done + self.comm.result_return_time(), "result", record)
            self._in_flight += 1
            self._n_jobs += 1

    def poll(self) -> bool:
        # in virtual time the next completion event is always "ready":
        # collecting it advances the master clock to the completion instant
        return self._in_flight > 0

    def collect(self, timeout: float | None = None) -> CompletedJob:
        if self._in_flight == 0:
            raise ClusterError("no job in flight")
        event = self._events.pop()
        record: _InFlight = event.payload
        self._master_time = max(self._master_time, event.time)
        self._master_time += self.comm.master_receive_overhead
        self._master_busy += self.comm.master_receive_overhead
        self._in_flight -= 1
        self._traces.append(
            SimulationTrace(
                job_id=record.job.job_id,
                worker_id=record.worker_id,
                dispatched_at=record.dispatched_at,
                worker_start=record.worker_start,
                worker_done=record.worker_done,
                collected_at=self._master_time,
                compute_time=record.compute_time,
                category=record.job.category,
            )
        )
        return CompletedJob(
            job_id=record.job.job_id,
            worker_id=record.worker_id,
            result=None,
            compute_time=record.compute_time,
            collected_at=self._master_time,
        )

    def send_stop(self, worker_id: int) -> None:
        """Model the final empty message telling a worker to stop (Fig. 4)."""
        if not 0 <= worker_id < self.n_workers:
            raise ClusterError(f"invalid worker id {worker_id}")
        cost = self.comm.stop_time()
        self._master_time += cost
        self._master_busy += cost

    def finalize(self) -> BackendStats:
        if self._in_flight:
            raise ClusterError(
                f"cannot finalize with {self._in_flight} job(s) still in flight"
            )
        self._finalized = True
        total = self._master_time
        extra: dict[str, Any] = {
            "strategy": self.strategy,
            "nfs_cached_paths": self.comm.nfs.cached_count,
        }
        if self.churn is not None:
            extra["churn_kills"] = len(self._death)
            extra["churn_joins"] = len(self._join_speed)
            extra["churn_redirects"] = self._churn_redirects
            extra["churn_restarts"] = self._churn_restarts
        return BackendStats(
            total_time=total,
            n_jobs=self._n_jobs,
            n_workers=self.n_workers,
            worker_busy={i: busy for i, busy in enumerate(self._worker_busy)},
            master_busy=self._master_busy,
            bytes_sent=self._bytes_sent,
            extra=extra,
        )

    # -- placement ---------------------------------------------------------------
    def _speed_of(self, worker_id: int) -> float:
        if worker_id >= self.cluster.n_workers:
            return self._join_speed[worker_id]
        return self.cluster.speed_of(worker_id)

    def _pick_survivor(self, now: float, job: Job) -> int:
        """The live worker that can start soonest at virtual time ``now``.

        Joiners not yet born count as live (the job waits for their birth),
        so a schedule that kills the whole initial pool but joins a
        replacement still completes.  Ties break on the lowest worker id,
        keeping the redirect fully deterministic.
        """
        best: int | None = None
        best_start = 0.0
        for wid in range(self.n_workers):
            death = self._death.get(wid)
            if death is not None and death <= max(now, self._birth[wid]):
                continue
            start = max(now, self._worker_free[wid], self._birth[wid])
            if best is None or (start, wid) < (best_start, best):
                best, best_start = wid, start
        if best is None:
            raise WorkerLostError(
                f"churn schedule killed the whole simulated cluster by "
                f"t={now:.3f}",
                job_ids=(job.job_id,),
            )
        return best

    def _place(
        self, worker_id: int, arrival: float, worker_prep: float, job: Job
    ) -> tuple[int, float, float, float]:
        """Put one job on a worker; returns ``(worker, start, done, compute)``.

        Without churn this is the original placement arithmetic verbatim.
        With churn, a dispatch aimed at a dead worker is redirected to the
        earliest-free survivor, and a worker dying mid-compute charges the
        lost partial work and restarts the job on a survivor at the death
        instant -- the master never loses a job, it just pays for it.
        """
        if self.churn is None:
            compute = job.compute_cost / self._speed_of(worker_id)
            start = max(arrival, self._worker_free[worker_id])
            done = start + worker_prep + compute
            self._worker_free[worker_id] = done
            self._worker_busy[worker_id] += worker_prep + compute
            return worker_id, start, done, compute

        wid, now = worker_id, arrival
        for _attempt in range(2 * self.n_workers + 4):
            death = self._death.get(wid)
            if death is not None and death <= max(now, self._birth[wid]):
                wid = self._pick_survivor(now, job)
                self._churn_redirects += 1
                continue
            start = max(now, self._worker_free[wid], self._birth[wid])
            compute = job.compute_cost / self._speed_of(wid)
            done = start + worker_prep + compute
            death = self._death.get(wid)
            if death is None or done <= death:
                self._worker_free[wid] = done
                self._worker_busy[wid] += worker_prep + compute
                return wid, start, done, compute
            # the worker dies mid-job: charge the partial work, restart
            self._worker_busy[wid] += max(0.0, death - start)
            self._worker_free[wid] = death
            self._churn_restarts += 1
            now = death
            wid = self._pick_survivor(now, job)
        raise SimulationError(
            f"churn placement for job {job.job_id} did not converge"
        )

    # -- helpers -----------------------------------------------------------------
    @property
    def traces(self) -> list[SimulationTrace]:
        """Per-job timing records (dispatch/start/done/collect)."""
        return list(self._traces)
