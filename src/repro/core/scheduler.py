"""Load-balancing schedulers for the portfolio valuation benchmark.

The paper uses "a simplified 'Robbin Hood' strategy ... First, the master
sends one job to each slave and as soon as a slave finishes its computation
and sends its answer back, it is assigned a new job.  This mechanism goes on
until the whole portfolio has been treated" (Fig. 4).  Its conclusion sketches
two refinements: "gather several pricing problems and send them all together
to reduce the communication latency" and "divide the nodes into sub-groups,
each group having its own master".

There is exactly **one** master loop -- :class:`ScheduleStream`, the paper's
Fig. 4 in pull-driven form -- and a scheduler *is* the
:class:`DispatchPolicy` plugged into it: how the initial wave is shaped, how
a freed worker is refilled, and whether several jobs travel as one message.
Running a scheduler is ``ScheduleStream(jobs, backend, strategy,
policy).finish()``.  The shipped policies, registered in :data:`SCHEDULERS`
under their ``name`` (extensible through :func:`register_scheduler`), are

* :class:`RobinHoodPolicy` -- the paper's dynamic loop: one job per slave,
  refill the slave that just answered;
* :class:`StaticBlockPolicy` -- contiguous pre-partition, no refill (the
  baseline the dynamic strategy is compared against);
* :class:`ChunkedPolicy` -- Robin Hood over chunks cut from the queue by
  estimated cost, one message per chunk (the conclusion's first refinement);
* :class:`WorkStealingPolicy` -- static blocks plus stealing from the tail
  of the most-loaded worker's still-queued block;
* :class:`PriorityPolicy` -- Robin Hood over a priority-ordered queue (how
  the ``repro-serve`` daemon honours per-position priorities).

Everywhere above this module a scheduler is spelled as a registered name or
a zero-argument callable returning a fresh policy; :func:`policy_factory` is
the one place that spelling is resolved.  :func:`simulate_hierarchical`
builds the conclusion's second refinement (sub-masters) on the same loop,
which drives every :class:`~repro.cluster.backends.base.WorkerBackend` --
sequential, ``multiprocessing``, remote TCP pools, the simulated cluster --
through one dispatch/collect interface.
"""

from __future__ import annotations

import abc
import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.cluster.backends.base import BackendStats, CompletedJob, Job, WorkerBackend
from repro.cluster.simcluster.comm import CommunicationModel
from repro.cluster.simcluster.node import ClusterSpec
from repro.cluster.simcluster.simulator import SimulatedClusterBackend
from repro.core.strategies import TransmissionStrategy, get_strategy
from repro.errors import SchedulingError, ValuationError

__all__ = [
    "ScheduleOutcome",
    "ScheduleStream",
    "DispatchPolicy",
    "RobinHoodPolicy",
    "StaticBlockPolicy",
    "ChunkedPolicy",
    "WorkStealingPolicy",
    "PriorityPolicy",
    "SCHEDULERS",
    "register_scheduler",
    "policy_factory",
    "cut_chunks",
    "simulate_hierarchical",
]


@dataclass
class ScheduleOutcome:
    """Everything a drained :class:`ScheduleStream` hands back to the runner."""

    completed: list[CompletedJob]
    stats: BackendStats
    scheduler_name: str
    #: ``{worker_id: most jobs it ever held at once}`` -- 1 is Fig. 4's one
    #: job per slave; more means the in-flight window opened on that worker
    peak_window: dict[int, int] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.stats.total_time

    @property
    def errors(self) -> list[CompletedJob]:
        return [job for job in self.completed if job.error is not None]


def _check_jobs(jobs: Sequence[Job]) -> None:
    if not jobs:
        raise SchedulingError("cannot schedule an empty job list")
    seen: set[int] = set()
    for job in jobs:
        if job.job_id in seen:
            raise SchedulingError(f"duplicate job id {job.job_id}")
        seen.add(job.job_id)


class DispatchPolicy(abc.ABC):
    """How one :class:`ScheduleStream` shapes its dispatches.

    A policy owns the master-side queue: it decides the initial wave (which
    worker receives which jobs before anything is collected) and the refill
    rule (what a freed worker gets after each answer); a wave of several
    jobs goes through ``backend.dispatch_batch`` (one message on the
    simulated cluster, a message per job elsewhere).  The stream
    does everything else -- collection, accounting, cancellation
    bookkeeping, termination -- so a new scheduling variant is one policy
    class (worked example in ``docs/schedulers.md``).  A policy holds the
    state of **one** stream: every stream gets a fresh instance.
    """

    #: what :attr:`ScheduleOutcome.scheduler_name` (and ``RunReport.scheduler``)
    #: reports; equal to the name the policy is registered under
    name: str = "abstract"
    #: ``True`` when :meth:`refill` is a pure "next job for this worker" that
    #: may be asked several times per answer (or not at all): on backends
    #: whose workers queue jobs (``WorkerBackend.queues_jobs``) the stream
    #: then keeps a per-worker in-flight window and tops a freed worker up to
    #: it.  Policies whose ``refill`` is once-per-answer bookkeeping (chunk
    #: draining, static blocks) leave it ``False``.
    windowed: bool = False

    @abc.abstractmethod
    def plan(self, jobs: Sequence[Job], n_workers: int) -> None:
        """Take ownership of ``jobs`` before anything is dispatched."""

    @abc.abstractmethod
    def initial_wave(self) -> Iterator[tuple[int, list[Job]]]:
        """Yield ``(worker_id, jobs)`` waves to dispatch before collecting."""

    @abc.abstractmethod
    def refill(self, worker_id: int) -> list[Job] | None:
        """The next wave for ``worker_id``, called once per collected job
        (:attr:`windowed` policies: as often as the worker's window has room).

        Return ``None`` (or an empty list) to leave the worker idle; the
        policy is responsible for its own outstanding-work bookkeeping.
        """

    @property
    @abc.abstractmethod
    def n_queued(self) -> int:
        """Jobs still held master-side; read once per collection, keep it O(1)."""

    @abc.abstractmethod
    def withdraw(self, job_id: int) -> Job | None:
        """Remove a still-queued job from the plan; ``None`` if not queued."""

    @abc.abstractmethod
    def withdraw_all(self) -> list[Job]:
        """Remove every still-queued job (in-flight ones keep running)."""


#: registered dispatch-policy factories (usually the policy class), by name:
#: the schedulers usable from sessions, configs, the CLI and the benchmarks
SCHEDULERS: dict[str, Callable[[], DispatchPolicy]] = {}

_Factory = TypeVar("_Factory", bound=Callable[[], DispatchPolicy])


def register_scheduler(name: str, factory: _Factory | None = None) -> Any:
    """Register a policy factory (usually the class itself) under ``name``.

    Either call directly (``register_scheduler("mine", MyPolicy)``) or use
    as a decorator factory::

        @register_scheduler("mine")
        class MyPolicy(RobinHoodPolicy):
            name = "mine"

    Registered names are accepted wherever a scheduler is spelled as a string
    (``ValuationSession(scheduler=...)``, ``run(scheduler=...)``, the
    ``repro-bench --scheduler`` flags) and are called with no argument; a
    configured policy is spelled ``partial(MyPolicy, ...)``.
    """
    if not name:
        raise SchedulingError("scheduler names must be non-empty strings")

    def _register(fn: _Factory) -> _Factory:
        SCHEDULERS[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def policy_factory(
    scheduler: str | Callable[[], DispatchPolicy] | None = None,
) -> Callable[[], DispatchPolicy]:
    """Resolve a scheduler spelling into a factory of fresh policies.

    ``scheduler`` is a name registered in :data:`SCHEDULERS`, a zero-argument
    callable returning a fresh :class:`DispatchPolicy` (a policy class is
    one, so is ``partial(PriorityPolicy, priority=...)``), or ``None`` for
    the paper's Robin Hood.  The session, a run's keyword, the CLI and
    the serving daemon all resolve through this one function.
    """
    if isinstance(scheduler, str):
        if scheduler not in SCHEDULERS:
            raise ValuationError(f"unknown scheduler {scheduler!r}; known: {sorted(SCHEDULERS)}")
        return SCHEDULERS[scheduler]
    if scheduler is None:
        return RobinHoodPolicy
    if isinstance(scheduler, DispatchPolicy) or not callable(scheduler):
        # policies hold per-stream state and a rebuilt pool opens a second stream
        raise ValuationError(
            f"scheduler= got a {type(scheduler).__name__} instance; pass a "
            "registered name, the policy class or a zero-argument factory "
            "(every stream needs a fresh policy)"
        )
    return scheduler


@register_scheduler("robin_hood")
class RobinHoodPolicy(DispatchPolicy):
    """The paper's dynamic loop: one job per slave, refill whoever answers."""

    name = "robin_hood"
    windowed = True

    def plan(self, jobs: Sequence[Job], n_workers: int) -> None:
        self._queue: deque[Job] = deque(jobs)
        self._n_workers = n_workers

    def initial_wave(self) -> Iterator[tuple[int, list[Job]]]:
        # first, one job per slave, exactly like Fig. 4
        for worker_id in range(min(self._n_workers, len(self._queue))):
            yield worker_id, [self._queue.popleft()]

    def refill(self, worker_id: int) -> list[Job] | None:
        # feed the slave that just answered, as Fig. 4 does
        if self._queue:
            return [self._queue.popleft()]
        return None

    @property
    def n_queued(self) -> int:
        return len(self._queue)

    def withdraw(self, job_id: int) -> Job | None:
        for job in self._queue:
            if job.job_id == job_id:
                self._queue.remove(job)
                return job
        return None

    def withdraw_all(self) -> list[Job]:
        dropped = list(self._queue)
        self._queue.clear()
        return dropped


@register_scheduler("static_block")
class StaticBlockPolicy(DispatchPolicy):
    """Full pre-partition into contiguous blocks, one per worker, no refill.

    Everything is dispatched in the initial wave, so nothing is ever queued
    master-side: cancellation finds nothing to withdraw and the worker that
    drew the expensive block becomes the critical path.  This is the
    baseline of the scheduler ablation benchmark.
    """

    name = "static_block"

    def plan(self, jobs: Sequence[Job], n_workers: int) -> None:
        self._jobs = jobs
        self._n_workers = n_workers

    def initial_wave(self) -> Iterator[tuple[int, list[Job]]]:
        n_jobs, n_workers = len(self._jobs), self._n_workers
        for index, job in enumerate(self._jobs):
            yield min(index * n_workers // n_jobs, n_workers - 1), [job]

    def refill(self, worker_id: int) -> list[Job] | None:
        return None

    @property
    def n_queued(self) -> int:
        return 0

    def withdraw(self, job_id: int) -> Job | None:
        return None

    def withdraw_all(self) -> list[Job]:
        return []


#: a chunk is capped at the estimated cost still queued over ``_FACTORING *
#: n_workers``, so no chunk outweighs 1/_FACTORING of an even share of the
#: book.  Virtual makespan over per-job Robin Hood's (simulated cluster,
#: serialized load), capped with 1 / 2 / 4 / 8, and the messages sent at 2:
#:   skewed book, 1,720 jobs, 64 workers:    1.015 / 1.013 / 1.068 / 1.087   589
#:   realistic x0.25, 1,982 jobs, 64:        1.014 / 1.014 / 1.000 / 1.002   268
#:   5,000 cheap options, 32 workers:        0.742 / 0.751 / 0.767 / 0.793   377
#:   skewed, expensive band last, 64:        1.387 / 1.373 / 1.150 / 1.042   133
#: A larger value buys the hostile ordering a tighter tail and charges every
#: cheap book more messages; 2 (Hummel, Schonberg & Flynn's choice) bounds a
#: chunk at half an even share, where 1 allows a whole one.
_FACTORING = 2


def _weighable(costs: Iterable[float]) -> bool:
    """Whether every cost is a positive finite number (else: cut by count)."""
    values = list(costs)
    return all(map(math.isfinite, values)) and (not values or min(values) > 0)


def cut_chunk(head: Iterable[float], queued: float, n_workers: int) -> tuple[int, float]:
    """How many items leave a non-empty queue as its next chunk, and their weight.

    ``head`` yields the queued weights from the head on, ``queued`` is their
    total.  Items are taken while their summed weight stays within ``queued
    / (_FACTORING * n_workers)``, at least one.
    """
    cap = queued / (_FACTORING * n_workers)
    weights = iter(head)
    count, cost = 1, next(weights)
    for weight in weights:
        if cost + weight > cap:
            break
        count += 1
        cost += weight
    return count, cost


def cut_chunks(costs: Sequence[float], n_workers: int) -> list[int]:
    """The lengths of all the chunks :func:`cut_chunk` cuts from ``costs``, in
    order -- for a planner that must cut before anything is dispatched."""
    weights = costs if _weighable(costs) else [1.0] * len(costs)
    queued = math.fsum(weights)
    lengths: list[int] = []
    start = 0
    while start < len(weights):
        count, cost = cut_chunk(
            map(weights.__getitem__, range(start, len(weights))), queued, n_workers)
        start += count
        queued -= cost
        lengths.append(count)
    return lengths


@register_scheduler("chunked_robin_hood")
class ChunkedPolicy(RobinHoodPolicy):
    """Robin Hood over chunks cut from the queue by cost, one message per chunk.

    "The first idea is to gather several pricing problems and send them all
    together to reduce the communication latency: it is always advisable to
    send a single large message rather [than] several smaller messages."
    The one message per chunk is the simulated cluster's (one charged send
    latency); on worker processes the planner cuts an in-memory book into
    slices by the same rule and plain Robin Hood deals them under this
    policy's name (``repro.api.plan``, ``docs/schedulers.md``).
    A worker is refilled once it has drained its whole previous chunk, and
    the chunk is cut when it is asked for (cost-weighted factoring
    self-scheduling: Polychronopoulos & Kuck 1987; Hummel, Schonberg & Flynn
    1992): jobs leave the queue head while their summed ``compute_cost``
    stays within ``(cost still queued) / (_FACTORING * n_workers)``, at
    least one job per chunk.  Chunks start large and shrink to single jobs,
    so, communication aside, the makespan is at most ``even share * (1 +
    1/_FACTORING) + largest job``.  A book with any cost that is not a
    positive finite number is cut by count, every job weighing 1.  A
    dispatched chunk cannot be withdrawn (``docs/schedulers.md``).
    """

    name = "chunked_robin_hood"
    #: ``refill`` is chunk-draining bookkeeping, called once per answer
    windowed = False

    def plan(self, jobs: Sequence[Job], n_workers: int) -> None:
        super().plan(jobs, n_workers)
        weighable = _weighable(job.compute_cost for job in jobs)
        self._weight = attrgetter("compute_cost") if weighable else (lambda job: 1.0)
        self._queued_cost = math.fsum(map(self._weight, jobs))
        self._outstanding: dict[int, int] = {}

    def _next_chunk(self, worker_id: int) -> list[Job]:
        count, cost = cut_chunk(
            map(self._weight, self._queue), self._queued_cost, self._n_workers
        )
        self._queued_cost -= cost
        self._outstanding[worker_id] = count
        return [self._queue.popleft() for _ in range(count)]

    def initial_wave(self) -> Iterator[tuple[int, list[Job]]]:
        for worker_id in range(self._n_workers):
            if not self._queue:
                break
            yield worker_id, self._next_chunk(worker_id)

    def refill(self, worker_id: int) -> list[Job] | None:
        self._outstanding[worker_id] -= 1
        # hand the worker a new chunk once it drained its previous one
        if self._outstanding[worker_id] == 0 and self._queue:
            return self._next_chunk(worker_id)
        return None

    def withdraw(self, job_id: int) -> Job | None:
        job = super().withdraw(job_id)
        if job is not None:
            self._queued_cost -= self._weight(job)
        return job

    def withdraw_all(self) -> list[Job]:
        self._queued_cost = 0.0
        return super().withdraw_all()


@register_scheduler("work_stealing")
class WorkStealingPolicy(DispatchPolicy):
    """Static per-worker blocks plus dynamic stealing from the loaded tail.

    Each worker owns the contiguous block a static partition would give it
    and works through it front to back, one job per message.  A worker whose
    own block is exhausted *steals* from the tail of the most-loaded worker's
    still-queued block (most remaining estimated compute), so the expensive
    block stops being a critical path without giving up the locality of a
    static plan.
    """

    name = "work_stealing"
    windowed = True

    def plan(self, jobs: Sequence[Job], n_workers: int) -> None:
        n_jobs = len(jobs)
        self._queues: list[deque[Job]] = [deque() for _ in range(n_workers)]
        for index, job in enumerate(jobs):
            self._queues[min(index * n_workers // n_jobs, n_workers - 1)].append(job)
        # running per-queue load totals, so steal-victim selection is
        # O(n_workers) instead of rescanning every queued job per steal
        self._loads = [
            sum(job.compute_cost for job in queue) for queue in self._queues
        ]
        self._queued_count = n_jobs

    def _take(self, worker_id: int, job: Job) -> Job:
        self._loads[worker_id] -= job.compute_cost
        self._queued_count -= 1
        return job

    def _steal_victim(self) -> int | None:
        best: int | None = None
        best_load = 0.0
        for worker_id, queue in enumerate(self._queues):
            if queue and (best is None or self._loads[worker_id] > best_load):
                best, best_load = worker_id, self._loads[worker_id]
        return best

    def _next_for(self, worker_id: int) -> Job | None:
        if self._queues[worker_id]:
            return self._take(worker_id, self._queues[worker_id].popleft())
        victim = self._steal_victim()
        if victim is None:
            return None
        # steal from the loaded tail
        return self._take(victim, self._queues[victim].pop())

    def initial_wave(self) -> Iterator[tuple[int, list[Job]]]:
        for worker_id in range(len(self._queues)):
            job = self._next_for(worker_id)
            if job is not None:
                yield worker_id, [job]

    def refill(self, worker_id: int) -> list[Job] | None:
        job = self._next_for(worker_id)
        return [job] if job is not None else None

    @property
    def n_queued(self) -> int:
        return self._queued_count

    def withdraw(self, job_id: int) -> Job | None:
        for worker_id, queue in enumerate(self._queues):
            for job in queue:
                if job.job_id == job_id:
                    queue.remove(job)
                    return self._take(worker_id, job)
        return None

    def withdraw_all(self) -> list[Job]:
        dropped = [job for queue in self._queues for job in queue]
        for queue in self._queues:
            queue.clear()
        self._loads = [0.0] * len(self._queues)
        self._queued_count = 0
        return dropped


@register_scheduler("priority")
class PriorityPolicy(RobinHoodPolicy):
    """Robin Hood over a priority-ordered queue.

    The jobs are sorted once at :meth:`plan` time by descending priority,
    ties broken by submission order, and then drained by the inherited Robin
    Hood loop: one job per slave up front, refill whoever answers.  With no
    priorities (or all equal) the policy *is* Robin Hood.

    Parameters
    ----------
    priority:
        Either a mapping ``{job_id: priority}`` (missing ids fall back to
        ``default``) or a callable ``job -> priority``.  Higher runs first.
    default:
        Priority of jobs the mapping does not name.
    """

    name = "priority"

    def __init__(
        self,
        priority: Mapping[int, float] | Callable[[Job], float] | None = None,
        default: float = 0.0,
    ) -> None:
        if priority is not None and not callable(priority) and not hasattr(priority, "get"):
            raise SchedulingError(
                "priority must be a {job_id: priority} mapping or a "
                "job -> priority callable"
            )
        self._priority = priority
        self._default = float(default)

    def priority_of(self, job: Job) -> float:
        if self._priority is None:
            return self._default
        if callable(self._priority):
            return float(self._priority(job))
        return float(self._priority.get(job.job_id, self._default))

    def plan(self, jobs: Sequence[Job], n_workers: int) -> None:
        keyed = [(-self.priority_of(job), index, job) for index, job in enumerate(jobs)]
        for key, _, job in keyed:
            if not math.isfinite(key):
                # a NaN compares false both ways and would mis-sort the queue
                raise SchedulingError(f"job {job.job_id} has a non-finite priority ({-key!r})")
        super().plan([job for _, _, job in sorted(keyed)], n_workers)


# -- the per-worker in-flight window ------------------------------------------
# Fig. 4 holds one job per slave, so every hand-off (result back, next job
# out) is time the slave idles.  Where the workers queue what they are sent
# the stream keeps more behind the running job, sized per job category from
# its own timings; nothing here is settable.  The constants come from fixed-depth sweeps of
# benchmarks/e2e (2 workers; busy_cores of 2 at depth 1 / 2 / 3 / 4 / 8):
#   toy_cf_mp, 0.5 ms jobs, hand-off 0.3-0.45 ms:  1.67 / 1.85 / 1.90 / 1.93 / 1.94
#   var_campaign_mp, 5 ms batches:                 1.62 / 1.77
#   realistic_mp, 12-96 ms jobs:                   1.95 / 1.97, master_cpu_share up

#: most jobs one worker ever holds: the sweep is flat past 4, and every job
#: in a window is one that ``cancel_pending`` can no longer withdraw
_WINDOW_CAP = 8
#: solo round trips a category must show before its window opens; the median
#: of the last that many is its hand-off (a worker's first answers carry its
#: cold start, 5 ms against a typical 0.35 ms, and must not size anything)
_HANDOFF_SAMPLES = 8
#: typical hand-offs' worth of compute kept queued behind the running job:
#: the slow tenth of toy_cf_mp's hand-offs take four times the median, and a
#: cover of one (depth 2 there) leaves a third of the gain behind
_HANDOFF_COVER = 4.0
#: a hand-off under this share of the job's compute opens nothing: what it
#: could gain is less than what a 12 ms+ job committed early costs at the
#: tail of a run, while the VaR batches (share 0.08-0.11) still get a second job
_NEGLIGIBLE_HANDOFF = 0.05
#: weight of the newest job in a category's running mean compute time
_SMOOTHING = 0.25

_clock = time.perf_counter


class _CategoryTimings:
    """What one stream has measured of one job category, and the window it earns."""

    __slots__ = ("compute", "handoffs", "typical", "window")

    def __init__(self) -> None:
        self.compute: float | None = None  # running mean, seconds
        self.handoffs: deque[float] = deque(maxlen=_HANDOFF_SAMPLES)
        self.typical: float | None = None  # median hand-off, once there are enough
        self.window = 1

    def observe(self, compute: float, handoff: float | None) -> None:
        """Fold one answer in; ``handoff`` is ``None`` unless the job rode alone."""
        if self.compute is not None:
            compute = self.compute + _SMOOTHING * (compute - self.compute)
        self.compute = compute
        if handoff is not None:
            self.handoffs.append(handoff)
            if len(self.handoffs) == _HANDOFF_SAMPLES:
                self.typical = statistics.median(self.handoffs)
        typical = self.typical
        if typical is None:
            return
        if typical <= _NEGLIGIBLE_HANDOFF * compute:
            self.window = 1
        elif _HANDOFF_COVER * typical >= (_WINDOW_CAP - 1) * compute:
            self.window = _WINDOW_CAP
        else:
            # the running job, plus enough queued seconds to cover the hand-off
            self.window = 1 + math.ceil(_HANDOFF_COVER * typical / compute)


class ScheduleStream:
    """Pull-driven incremental form of the paper's master loop (Fig. 4).

    This is the **only** master loop in the system: every scheduler is a
    :class:`DispatchPolicy` plugged into it, and running one to completion
    is just a stream drained in one call (``ScheduleStream(...).finish()``).
    The futures API (:mod:`repro.api.futures`) builds on the same object:

    * construction runs the strategy's load pass where the workers queue
      what they are sent (:meth:`~repro.core.strategies.TransmissionStrategy.load`:
      ``sload`` makes every job's bytes), starts the backend's run, then sends the
      policy's initial wave (one job per slave for Robin Hood, the full
      pre-partition for static blocks, one chunk per slave for the chunked
      policy);
    * each :meth:`collect_next` blocks until any worker answers, asks the
      policy how to refill the freed worker, and returns the completed job
      -- ``MPI_Probe`` on any source followed by ``MPI_Recv_Obj`` -- and is
      the only way a result reaches the master;
    * :meth:`cancel_job` withdraws a job that is still queued master-side;
    * :meth:`finish` drains whatever is left, sends the stop messages and
      finalizes the backend into the familiar :class:`ScheduleOutcome`.

    A drained stream makes the same backend calls, in the same order, as the
    historical run-to-completion loops: the scheduler/backend matrix test
    pins the simulated virtual times bit for bit.

    **The in-flight window.**  Where the workers queue what they are sent
    (``backend.queues_jobs``: worker processes, remote hosts) and the policy
    is :attr:`~DispatchPolicy.windowed`, one job per slave is only the
    *starting* state.  The stream times every job category as the answers
    come in -- the worker-reported compute time, and the hand-off left of a
    solo job's round trip once the compute is taken out -- and lets a worker
    hold as many jobs of a kind as keep the hand-off covered by queued work
    (never more than ``_WINDOW_CAP``; one, where the hand-off is negligible
    against the compute or the kind has not been timed yet).
    :attr:`ScheduleOutcome.peak_window` reports what a run reached.  A job
    inside a worker's window is a dispatched job like any other:
    :meth:`cancel_job` returns ``False`` for it, :meth:`cancel_pending`
    leaves at most ``_WINDOW_CAP x n_workers`` jobs to drain, and a backend
    that loses a worker loses (and re-sends, or reports) its whole window.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        backend: WorkerBackend,
        strategy: TransmissionStrategy,
        policy: DispatchPolicy | None = None,
    ) -> None:
        _check_jobs(jobs)
        self.backend = backend
        self.strategy = strategy
        self.policy = policy if policy is not None else RobinHoodPolicy()
        # real payloads are prepared only for backends that execute them
        self._executing: bool = getattr(backend, "requires_payload", True)
        queues: bool = getattr(backend, "queues_jobs", False)
        # no worker-side queue, no hand-off to hide: the simulated cluster and
        # the in-process backend keep Fig. 4's one job per slave, and so do
        # the policies whose refill is bookkeeping
        self._windowed: bool = queues and self.policy.windowed
        self._in_flight = 0
        self._held = [0] * backend.n_workers  # jobs in flight, per worker
        self._peak = [0] * backend.n_workers
        self._timings: dict[str, _CategoryTimings] = {}
        #: timings of the category last sent to each worker: they size its window
        self._sizing = [_CategoryTimings()] * backend.n_workers
        #: job id -> (its category's timings, dispatch stamp if it rode alone)
        self._sent: dict[int, tuple[_CategoryTimings, float | None]] = {}
        self._completed: list[CompletedJob] = []
        self._cancelled: list[Job] = []
        self._outcome: ScheduleOutcome | None = None
        #: ids of the jobs neither dispatched nor withdrawn yet
        self._unsent = {job.job_id for job in jobs}
        load = getattr(strategy, "load", None)  # a duck-typed strategy may have none
        if self._executing and queues and load is not None:
            # the strategy's work before the loop (sload: every job's bytes),
            # done before a pool of worker processes forks.  Not in-process,
            # where dispatch prices at once: there it would only hold the
            # first result back (90 ms on a 3,000-position book)
            load(jobs)
        backend.on_run_start(len(jobs))
        self.policy.plan(list(jobs), backend.n_workers)
        for worker_id, wave in self.policy.initial_wave():
            self._dispatch(worker_id, wave)

    def _dispatch(self, worker_id: int, wave: list[Job]) -> None:
        if not wave:
            return
        prepare = self.strategy.prepare if self._executing else None
        if len(wave) > 1:
            messages = [prepare(job) for job in wave] if prepare else None
            self.backend.dispatch_batch(worker_id, wave, messages)
        else:
            self.backend.dispatch(worker_id, wave[0], prepare(wave[0]) if prepare else None)
        for job in wave:
            self._unsent.discard(job.job_id)
        held = self._held[worker_id]
        if self._windowed:
            # only a job sent to an empty worker times the hand-off: behind
            # another job its wait is queueing, not transport
            stamp = _clock() if held == 0 else None
            for job in wave:
                timings = self._timings.get(job.category)
                if timings is None:
                    timings = self._timings[job.category] = _CategoryTimings()
                self._sent[job.job_id] = (timings, stamp)
                stamp = None
            self._sizing[worker_id] = timings
        self._in_flight += len(wave)
        held += len(wave)
        self._held[worker_id] = held
        if held > self._peak[worker_id]:
            self._peak[worker_id] = held

    # -- state -------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Jobs not yet collected (queued master-side or on a worker)."""
        return self.policy.n_queued + self._in_flight

    @property
    def completed(self) -> list[CompletedJob]:
        """Results collected so far, in completion order."""
        return list(self._completed)

    @property
    def cancelled_jobs(self) -> list[Job]:
        """Jobs withdrawn from the queue before they were dispatched."""
        return list(self._cancelled)

    def queued(self, job_id: int) -> bool:
        """Whether job ``job_id`` of this stream is still held master-side."""
        return job_id in self._unsent

    # -- collection --------------------------------------------------------------
    def _account(self, done: CompletedJob) -> CompletedJob:
        self._completed.append(done)
        self._in_flight -= 1
        worker_id = done.worker_id
        self._held[worker_id] -= 1
        if not self._windowed:
            wave = self.policy.refill(worker_id)
            if wave:
                self._dispatch(worker_id, wave)
            return done
        # The worker reports its compute time; the master stamps dispatch
        # (once the backend has taken the job) and collection.  What is left
        # of a solo round trip after the compute is the hand-off a queued
        # successor would have hidden.
        timings, sent_at = self._sent.pop(done.job_id)
        timings.observe(
            done.compute_time,
            None if sent_at is None else max(0.0, _clock() - sent_at - done.compute_time),
        )
        # the worker's window is that of the category it was last sent: a
        # closed one (1) makes exactly Fig. 4's call, one refill per answer;
        # one that shrank drains before anything more is sent
        while self._held[worker_id] < self._sizing[worker_id].window:
            wave = self.policy.refill(worker_id)
            if not wave:
                break
            self._dispatch(worker_id, wave)
        return done

    def collect_next(self, timeout: float | None = None) -> CompletedJob:
        """Block until the next result arrives; refill the freed worker.

        ``timeout`` bounds the wait on backends with a real clock
        (multiprocessing, remote); immediate backends ignore it.
        """
        if self.remaining == 0:
            raise SchedulingError("stream exhausted: every job was collected")
        if timeout is None:
            # let the backend apply its own safety default (multiprocessing
            # uses 300 s; immediate backends have none)
            return self._account(self.backend.collect())
        return self._account(self.backend.collect(timeout))

    def __iter__(self) -> Iterator[CompletedJob]:
        while self.remaining:
            yield self.collect_next()

    # -- cancellation ------------------------------------------------------------
    def cancel_job(self, job_id: int) -> bool:
        """Withdraw a still-queued job; ``False`` once it is on a worker."""
        job = self.policy.withdraw(job_id)
        if job is None:
            return False
        self._unsent.discard(job_id)
        self._cancelled.append(job)
        return True

    def cancel_pending(self) -> list[Job]:
        """Withdraw every job not yet dispatched (in-flight ones finish)."""
        dropped = self.policy.withdraw_all()
        self._unsent.clear()
        self._cancelled.extend(dropped)
        return dropped

    # -- termination -------------------------------------------------------------
    def finish(self) -> ScheduleOutcome:
        """Drain remaining results, stop the slaves, finalize the backend."""
        if self._outcome is None:
            while self.remaining:
                self.collect_next()
            # tell every slave to stop working (the empty message of Fig. 4)
            for worker_id in range(self.backend.n_workers):
                self.backend.send_stop(worker_id)
        return self.close()

    def close(self) -> ScheduleOutcome:
        """Finalize the backend and keep what was collected: how :meth:`finish`
        ends, and all a stream whose workers are gone gets."""
        if self._outcome is None:
            self._outcome = ScheduleOutcome(
                self._completed,
                self.backend.finalize(),
                self.policy.name,
                peak_window=dict(enumerate(self._peak)),
            )
        return self._outcome


def simulate_hierarchical(jobs: Sequence[Job], n_workers: int, n_groups: int) -> dict[str, Any]:
    """Two-level master organisation evaluated on the simulated cluster.

    "one way of encompassing this difficulty is to divide the nodes into
    sub-groups, each group having its own master.  Then, each sub-master could
    apply a naive load balancing but since it has fewer slave processes to
    monitor the speedups would be better."

    The global master deals jobs to ``n_groups`` sub-masters round-robin (a
    cheap name-only message per job); each sub-master then runs its own Robin
    Hood loop over its share of the workers, sending ``serialized_load``
    messages.  Each group uses an independent :class:`SimulatedClusterBackend`
    on the paper's default cluster model; the reported makespan
    (``total_time``) is the slowest of ``group_times`` plus the global
    master's ``master_dealing_time``.
    """
    if n_groups < 1:
        raise SchedulingError("n_groups must be >= 1")
    if n_workers < n_groups:
        raise SchedulingError("need at least one worker per group")
    _check_jobs(jobs)
    comm = CommunicationModel()

    # the global master only forwards file names to the sub-masters
    dealing_time = len(jobs) * (
        comm.nfs_master_overhead + comm.network.transfer_time(comm.name_message_bytes)
    )

    # split workers and jobs across groups (round-robin keeps the expensive
    # jobs spread out, like the paper's single-master dealing order)
    group_sizes = [n_workers // n_groups] * n_groups
    for i in range(n_workers % n_groups):
        group_sizes[i] += 1
    group_jobs = [list(jobs[group::n_groups]) for group in range(n_groups)]

    group_times: list[float] = []
    for size, sub_jobs in zip(group_sizes, group_jobs):
        if not sub_jobs:
            group_times.append(0.0)
            continue
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(size))
        stream = ScheduleStream(sub_jobs, backend, get_strategy("serialized_load"))
        group_times.append(stream.finish().total_time)

    return {
        "total_time": dealing_time + max(group_times),
        "group_times": group_times,
        "master_dealing_time": dealing_time,
        "n_groups": n_groups,
        "n_workers": n_workers,
    }
