"""The :class:`ValuationSession` facade -- one typed entry point for the stack.

The paper's workflow is *build a Premia-style problem, serialize it,
distribute it over a master/worker cluster, collect speedup tables*.  A
session bundles the backend/strategy/scheduler choices once and exposes the
whole workflow as methods::

    from repro.api import ValuationSession

    session = ValuationSession(backend="simulated", strategy="serialized_load")
    price   = session.price(model="BlackScholes1D", option="CallEuro",
                            method="CF_Call",
                            model_params={"spot": 100, "rate": 0.05,
                                          "volatility": 0.2},
                            option_params={"strike": 100, "maturity": 1.0})
    run     = session.run(portfolio)                       # -> RunResult
    for price in session.stream(portfolio):                # completion order
        ...
    sweep   = session.sweep(portfolio, cpu_counts=[2, 4, 8])  # -> SweepResult
    tables  = session.compare(portfolio, cpu_counts=[2, 4])   # -> ComparisonResult
    futures = session.submit_many(problems)                # -> JobSet of futures

Since the streaming redesign, **every execution path flows through the
incremental master loop** (:class:`~repro.core.scheduler.ScheduleStream`):
``submit_many`` returns real :class:`~repro.api.futures.PricingFuture`
objects whose ``result()`` pumps the loop only until that job answers,
``stream`` yields results in completion order, and the synchronous ``run``
is a thin drain over the same pipeline.  Cache hits resolve their futures
immediately; coalesced :class:`~repro.pricing.batch.ProblemBatch` super-jobs
resolve every member future when the batch is collected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.api.config import BackendSpec, RetryPolicy, RunConfig, SweepConfig
from repro.api.futures import (
    CancelToken,
    JobSet,
    PricingFuture,
    StreamingRun,
    StreamProgress,
    _StreamCore,
)
from repro.api.results import ComparisonResult, PriceResult, RunResult, SweepResult
from repro.cluster.backends import Job, WorkerBackend, create_backend
from repro.cluster.costmodel import CostModel, paper_cost_model
from repro.cluster.simcluster.comm import STRATEGY_NAMES, CommunicationModel
from repro.core.portfolio import Portfolio
from repro.core.runner import RunReport
from repro.core.scheduler import SCHEDULERS, RobinHoodScheduler, Scheduler
from repro.core.strategies import TransmissionStrategy, get_strategy
from repro.errors import ClusterError, SchedulingError, ValuationError, WorkerLostError
from repro.pricing.batch import ProblemBatch, batch_digest, plan_batches
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.engine import PricingProblem
from repro.serial import serialize

__all__ = ["ValuationSession"]

#: backend names whose workers execute payloads in this process tree and can
#: therefore share an on-disk result cache via the ``cache_dir`` option
_EXECUTING_BACKENDS = ("local", "sequential", "multiprocessing")


def _coerce_cache(cache: "ResultCache | str | Path | bool | None") -> ResultCache | None:
    """Normalise the session ``cache=`` option into a :class:`ResultCache`."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, Path)):
        return ResultCache(directory=cache)
    raise ValuationError(
        f"cache must be a ResultCache, a directory path or a bool, "
        f"got {type(cache).__name__}"
    )


def _merged_config(config: RunConfig | None, **overrides: Any) -> RunConfig:
    """``config`` (default ``RunConfig()``) with every non-``None`` override applied."""
    given = {name: value for name, value in overrides.items() if value is not None}
    return replace(config or RunConfig(), **given)


@dataclass
class _RunPlan:
    """Everything one campaign needs, prepared before anything executes."""

    backend: WorkerBackend
    executing: bool
    strategy_name: str
    #: jobs to dispatch (cache hits removed, batches coalesced)
    jobs: list[Job]
    #: submission-ordered ids of every position (pre-coalescing, pre-cache)
    original_ids: list[int]
    n_total: int
    problem_by_id: dict[int, PricingProblem]
    cached_results: dict[int, dict[str, Any]] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)
    batch_members: dict[int, tuple[int, ...]] = field(default_factory=dict)
    run_cache: ResultCache | None = None
    portfolio: Portfolio | None = None


class ValuationSession:
    """Facade bundling backend, strategy, scheduler and cost-model choices.

    Parameters
    ----------
    backend:
        Registered backend name (any entry of
        :func:`~repro.cluster.backends.list_backends` -- e.g. ``"local"``,
        ``"multiprocessing"``, ``"remote"``, ``"simulated"``), a
        :class:`~repro.api.config.BackendSpec`, or a ready-made
        :class:`~repro.cluster.backends.WorkerBackend` instance.
        Name/spec sessions build a **fresh** backend per run and are reusable;
        instance sessions are one-shot (backends are finalized by the
        scheduler at the end of a run).
    strategy:
        Default problem-transmission strategy (``full_load``, ``nfs``,
        ``serialized_load``) or a :class:`TransmissionStrategy` instance.
    n_workers:
        Worker count for name/spec backends (ignored for instances).
    scheduler:
        ``None`` (Robin-Hood), a scheduler name from
        :data:`~repro.core.scheduler.SCHEDULERS`, a
        :class:`~repro.core.scheduler.Scheduler` instance, or a zero-argument
        factory returning fresh schedulers.  Every registered scheduler
        streams (they are all policies over the one incremental master
        loop), so ``stream``/``submit_many``/``progress``/``cancel`` work
        with any of them.
    cost_model:
        :class:`~repro.cluster.costmodel.CostModel` used to estimate per-job
        compute costs when building jobs from portfolios / submissions
        (default: the paper's calibrated model).
    comm:
        Shared :class:`CommunicationModel` for sweeps (warm NFS cache
        semantics, the paper's experimental artefact).
    comm_factory:
        Factory producing a fresh :class:`CommunicationModel` per sweep run
        or per compared strategy; this is how custom NFS settings survive
        ``share_nfs_cache=False`` runs.
    backend_options:
        Extra keyword options for the backend factory (e.g.
        ``{"start_method": "spawn"}`` for multiprocessing).
    cache:
        Digest-keyed result cache (see :mod:`repro.pricing.cache`).
        ``True`` builds an in-memory LRU, a path string / :class:`~pathlib.Path`
        builds a disk-backed cache (also shared with multiprocessing workers
        through the backend's ``cache_dir`` option), a ready-made
        :class:`~repro.pricing.cache.ResultCache` is used as given, and
        ``None``/``False`` (default) disables caching.
    """

    def __init__(
        self,
        backend: str | BackendSpec | WorkerBackend = "simulated",
        strategy: str | TransmissionStrategy = "serialized_load",
        *,
        n_workers: int | None = None,
        scheduler: str | Scheduler | Callable[[], Scheduler] | None = None,
        cost_model: CostModel | None = None,
        comm: CommunicationModel | None = None,
        comm_factory: Callable[[], CommunicationModel] | None = None,
        backend_options: Mapping[str, Any] | None = None,
        cache: ResultCache | str | Path | bool | None = None,
    ) -> None:
        coerced = BackendSpec.coerce(backend, n_workers=n_workers, options=backend_options)
        if isinstance(coerced, WorkerBackend):
            self._backend_spec: BackendSpec | None = None
            self._backend_instance: WorkerBackend | None = coerced
        else:
            self._backend_spec = coerced
            self._backend_instance = None
        self._backend_consumed = False
        self.strategy = strategy
        self.scheduler = scheduler
        self.cost_model = cost_model or paper_cost_model()
        self.comm = comm
        self.comm_factory = comm_factory
        self._cache = _coerce_cache(cache)
        self._pending: list[tuple[PricingProblem, PricingFuture, str]] = []
        self._pending_by_digest: dict[str, PricingFuture] = {}
        self._active_cores: list[_StreamCore] = []
        self._next_job_id = 0
        self._validate()

    # -- configuration helpers ---------------------------------------------------
    def _validate(self) -> None:
        if isinstance(self.strategy, str):
            get_strategy(self.strategy)  # raises SchedulingError on bad names
        if isinstance(self.scheduler, str) and self.scheduler not in SCHEDULERS:
            raise ValuationError(
                f"unknown scheduler {self.scheduler!r}; known: {sorted(SCHEDULERS)}"
            )

    @property
    def backend_spec(self) -> BackendSpec | None:
        """The spec used to build backends (``None`` for instance sessions)."""
        return self._backend_spec

    @property
    def cache(self) -> ResultCache | None:
        """The session's result cache (``None`` when caching is disabled)."""
        return self._cache

    def with_options(self, **changes: Any) -> "ValuationSession":
        """A new session sharing this one's choices, with ``changes`` applied."""
        current: dict[str, Any] = {
            "backend": self._backend_spec
            if self._backend_spec is not None
            else self._backend_instance,
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "cost_model": self.cost_model,
            "comm": self.comm,
            "comm_factory": self.comm_factory,
            "cache": self._cache,
        }
        current.update(changes)
        return ValuationSession(**current)

    def _new_scheduler(self) -> Scheduler:
        if self.scheduler is None:
            return RobinHoodScheduler()
        if isinstance(self.scheduler, Scheduler):
            return self.scheduler
        if isinstance(self.scheduler, str):
            return SCHEDULERS[self.scheduler]()
        return self.scheduler()

    def _strategy_name(self, strategy: str | TransmissionStrategy | None) -> str:
        chosen = strategy if strategy is not None else self.strategy
        return chosen if isinstance(chosen, str) else chosen.name

    def _acquire_backend(
        self, strategy_name: str, cache: ResultCache | None = None
    ) -> WorkerBackend:
        if self._backend_instance is not None:
            if self._backend_consumed:
                raise ValuationError(
                    "this session wraps a backend instance, which the scheduler "
                    "finalizes after one run; pass a backend name or BackendSpec "
                    "for a reusable session"
                )
            self._backend_consumed = True
            return self._backend_instance
        assert self._backend_spec is not None
        extra: dict[str, Any] = {}
        if self._backend_spec.name == "simulated" and self.comm is not None:
            extra["comm"] = self.comm
        if (
            cache is not None
            and cache.directory is not None
            and self._backend_spec.name in _EXECUTING_BACKENDS
            and "cache_dir" not in dict(self._backend_spec.options)
        ):
            # share the run's disk-backed cache with the workers (skipped
            # when the run bypasses caching via cache=False)
            extra["cache_dir"] = str(cache.directory)
        return self._backend_spec.create(strategy=strategy_name, **extra)

    # -- the synchronous engine (simulated-cluster sweeps) -----------------------
    def _execute_jobs(
        self,
        jobs: Sequence[Job],
        backend: WorkerBackend,
        strategy: str | TransmissionStrategy | None,
        scheduler: Scheduler | None = None,
    ) -> RunReport:
        """Dispatch ``jobs`` run-to-completion, check and normalise the report.

        Only simulated-cluster sweeps go through here (``run()`` there is
        ``stream().finish()`` anyway); everything else flows through the
        streaming pipeline of :meth:`_make_core`.
        """
        chosen = strategy if strategy is not None else self.strategy
        strategy_obj = get_strategy(chosen) if isinstance(chosen, str) else chosen
        runner = scheduler or self._new_scheduler()
        outcome = runner.run(jobs, backend, strategy_obj)
        if len(outcome.completed) != len(jobs):
            raise SchedulingError(
                f"scheduler returned {len(outcome.completed)} results for {len(jobs)} jobs"
            )
        return RunReport.from_outcome(outcome, jobs, strategy_obj.name)

    def _portfolio_jobs(
        self,
        portfolio: Portfolio,
        backend: WorkerBackend,
        store: Any = None,
        attach_problems: bool | None = None,
        cost_model: CostModel | None = None,
    ) -> list[Job]:
        if attach_problems is None:
            attach_problems = getattr(backend, "requires_payload", True) and store is None
        return portfolio.build_jobs(
            cost_model=cost_model or self.cost_model,
            store=store,
            attach_problems=attach_problems,
        )

    # -- pricing -----------------------------------------------------------------
    def price(
        self,
        model: Any = None,
        option: Any = None,
        method: Any = None,
        *,
        model_params: Mapping[str, Any] | None = None,
        option_params: Mapping[str, Any] | None = None,
        method_params: Mapping[str, Any] | None = None,
        asset: str = "equity",
        label: str | None = None,
        problem: PricingProblem | None = None,
    ) -> PriceResult:
        """Price one option and return a :class:`PriceResult`.

        Accepts either registry names plus parameter mappings (the
        Premia-style spelling) or model/option/method *instances*; or a fully
        specified :class:`PricingProblem` via ``problem=``.  Single-option
        pricing always computes in-process -- the session's backend is for
        portfolio-scale work.
        """
        if problem is not None:
            if model is not None or option is not None or method is not None:
                raise ValuationError("pass either problem= or model/option/method, not both")
            return self.price_problem(problem)
        if model is None or option is None or method is None:
            raise ValuationError("price() needs model, option and method (or problem=)")
        names = [isinstance(part, str) for part in (model, option, method)]
        if all(names):
            built = PricingProblem(label=label)
            built.set_asset(asset)
            built.set_model(model, **dict(model_params or {}))
            built.set_option(option, **dict(option_params or {}))
            built.set_method(method, **dict(method_params or {}))
        elif not any(names):
            built = PricingProblem.from_instances(
                model, option, method, asset=asset, label=label
            )
        else:
            raise ValuationError(
                "price() takes either all names or all instances for "
                "model/option/method, not a mix"
            )
        return self.price_problem(built)

    def price_problem(self, problem: PricingProblem) -> PriceResult:
        """Compute a fully specified problem in-process.

        With a session cache, the problem digest is looked up first and a
        fresh result is stored back, so repeated ``price(...)`` calls over
        identical problems skip pricing entirely.
        """
        if self._cache is not None:
            digest = problem_digest(problem)
            cached = self._cache.get(digest)
            if cached is not None:
                problem._result = cached
                return PriceResult.from_pricing(
                    cached, label=problem.label, method=problem.method_name
                )
            result = problem.compute()
            self._cache.put(digest, result)
        else:
            result = problem.compute()
        return PriceResult.from_pricing(
            result, label=problem.label, method=problem.method_name
        )

    # -- campaign preparation ----------------------------------------------------
    def _prepare_plan(
        self,
        jobs: list[Job],
        problem_by_id: dict[int, PricingProblem],
        options: RunConfig,
        *,
        strategy_name: str,
        run_cache: ResultCache | None,
        backend: WorkerBackend,
        portfolio: Portfolio | None,
    ) -> _RunPlan:
        """Apply the cache pass and batch coalescing to a prepared job list."""
        if not jobs:
            raise SchedulingError("cannot schedule an empty job list")
        executing = getattr(backend, "requires_payload", True)
        if options.batch and strategy_name == "nfs" and executing:
            raise ValuationError(
                "batch=True cannot be combined with the nfs strategy on an "
                "executing backend: coalesced batch jobs have no per-position "
                "problem files"
            )
        plan = _RunPlan(
            backend=backend,
            executing=executing,
            strategy_name=strategy_name,
            jobs=list(jobs),
            original_ids=[job.job_id for job in jobs],
            n_total=len(jobs),
            problem_by_id=problem_by_id,
            run_cache=run_cache,
            portfolio=portfolio,
        )

        # cache pass: positions already priced never reach the backend
        if run_cache is not None and executing:
            for job in plan.jobs:
                problem = problem_by_id.get(job.job_id)
                if problem is None:
                    continue
                digest = problem_digest(problem)
                plan.digests[job.job_id] = digest
                hit = run_cache.get(digest)
                if hit is not None:
                    entry = hit.as_dict()
                    entry["cache_hit"] = True
                    plan.cached_results[job.job_id] = entry
            if plan.cached_results:
                plan.jobs = [
                    job for job in plan.jobs if job.job_id not in plan.cached_results
                ]

        if options.batch:
            plan.jobs, plan.batch_members = self._coalesce_jobs(
                plan.jobs, problem_by_id, options
            )
        return plan

    def _make_core(
        self,
        plan: _RunPlan,
        scheduler: Scheduler,
        strategy: str | TransmissionStrategy | None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> tuple[_StreamCore, JobSet]:
        """Build the streaming core and fresh futures for a prepared plan."""
        futures: dict[int, PricingFuture] = {}
        for job_id in plan.original_ids:
            problem = plan.problem_by_id.get(job_id)
            futures[job_id] = PricingFuture(
                job_id,
                label=getattr(problem, "label", None),
                method=getattr(problem, "method_name", None),
            )
        core = self._attach_campaign(
            plan, futures, runner=scheduler, strategy=strategy,
            progress=progress, cancel=cancel,
        )
        return core, JobSet([futures[job_id] for job_id in plan.original_ids])

    def _assemble_run_result(
        self,
        plan: _RunPlan,
        dispatched: list[Job],
        outcome: Any,
        cancelled_jobs: list[Job],
    ) -> RunResult:
        """Fold a drained stream back into a deterministic :class:`RunResult`."""
        if outcome is not None:
            if len(outcome.completed) + len(cancelled_jobs) != len(dispatched):
                raise SchedulingError(
                    f"stream collected {len(outcome.completed)} results for "
                    f"{len(dispatched)} dispatched jobs "
                    f"({len(cancelled_jobs)} cancelled)"
                )
            report = RunReport.from_outcome(outcome, dispatched, plan.strategy_name)
        else:
            # every position was answered from the cache: nothing to dispatch
            stats = plan.backend.finalize()
            report = RunReport(
                n_jobs=0,
                n_workers=stats.n_workers,
                strategy=plan.strategy_name,
                scheduler="cache",
                total_time=stats.total_time,
                master_busy=stats.master_busy,
                worker_busy=dict(stats.worker_busy),
                bytes_sent=stats.bytes_sent,
            )
        return self._postprocess_report(report, plan, cancelled_jobs)

    def _postprocess_report(
        self, report: RunReport, plan: _RunPlan, cancelled_jobs: Sequence[Job] = ()
    ) -> RunResult:
        """Expand batches, merge cache hits, mark cancellations, fix ordering."""
        if plan.batch_members:
            report = self._expand_batch_report(report, plan.batch_members)
        for job in cancelled_jobs:
            for member in plan.batch_members.get(job.job_id, (job.job_id,)):
                report.results[member] = None
                report.errors[member] = "cancelled before dispatch"
        if plan.cached_results:
            report.results.update(plan.cached_results)
            report.n_jobs = plan.n_total
        # deterministic submission ordering, whatever order results landed in
        report.results = {
            job_id: report.results[job_id]
            for job_id in plan.original_ids
            if job_id in report.results
        }
        report.errors = {
            job_id: report.errors[job_id]
            for job_id in plan.original_ids
            if job_id in report.errors
        }
        if plan.run_cache is not None and plan.executing:
            self._store_run_results(plan.run_cache, report, plan.digests)
        return RunResult(report=report, portfolio=plan.portfolio)

    def _source_plan(
        self,
        source: Portfolio | Sequence[Job],
        options: RunConfig,
        *,
        strategy_name: str,
        store: Any,
    ) -> _RunPlan:
        """Build the campaign plan for a portfolio or prepared job list."""
        run_cache = self._resolve_run_cache(options.cache)
        backend = self._acquire_backend(strategy_name, cache=run_cache)
        if isinstance(source, Portfolio):
            attach_problems = options.attach_problems
            if options.batch and attach_problems is None and store is None:
                attach_problems = True  # batch execution ships the problems
            jobs = self._portfolio_jobs(
                source, backend, store, attach_problems, options.cost_model
            )
            portfolio: Portfolio | None = source
            problem_by_id = {
                job.job_id: position.problem for job, position in zip(jobs, source)
            }
        else:
            jobs = list(source)
            portfolio = None
            problem_by_id = {
                job.job_id: job.problem for job in jobs if job.problem is not None
            }
        return self._prepare_plan(
            jobs,
            problem_by_id,
            options,
            strategy_name=strategy_name,
            run_cache=run_cache,
            backend=backend,
            portfolio=portfolio,
        )

    # -- portfolio runs ----------------------------------------------------------
    def run(
        self,
        source: Portfolio | Sequence[Job],
        *,
        strategy: str | TransmissionStrategy | None = None,
        scheduler: Scheduler | None = None,
        store: Any = None,
        attach_problems: bool | None = None,
        config: RunConfig | None = None,
        batch: bool | None = None,
        batch_group_size: int | None = None,
        kernel: str | None = None,
        min_group_size: int | None = None,
        cache: bool | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> RunResult:
        """Value a portfolio (or a prepared job list) on the session backend.

        A thin synchronous wrapper over the streaming core: the whole
        campaign is streamed through the incremental master loop and drained
        to completion.  ``batch=True`` coalesces positions with equal
        simulation signatures into shared-path
        :class:`~repro.pricing.batch.ProblemBatch` jobs; prices are
        bit-identical to the unbatched run (on the simulated backend the
        batch-aware cost model prices one shared simulation per group).
        ``progress`` is called once per collected position; ``cancel`` (a
        :class:`CancelToken`) withdraws still-queued positions, which the
        result marks as ``"cancelled before dispatch"`` errors.
        """
        options = _merged_config(
            config, attach_problems=attach_problems, batch=batch,
            batch_group_size=batch_group_size, kernel=kernel,
            min_group_size=min_group_size, cache=cache, progress=progress,
            cancel=cancel,
        )
        if strategy is None and config is not None:
            strategy = config.strategy
        scheduler_factory: Callable[[], Scheduler] = (
            options.scheduler_factory()
            if scheduler is None and options.scheduler is not None
            else self._new_scheduler
        )

        def make_runner() -> Scheduler:
            return scheduler if scheduler is not None else scheduler_factory()

        plan = self._source_plan(
            source, options, strategy_name=self._strategy_name(strategy), store=store
        )
        core, jobs = self._make_core(
            plan, make_runner(), strategy, options.progress, options.cancel
        )
        retry = options.retry
        if (
            retry is not None
            and retry.max_attempts > 1
            and self._backend_spec is not None
        ):
            return self._run_with_retry(
                plan, core, jobs, retry, make_runner,
                strategy=strategy, progress=options.progress, cancel=options.cancel,
            )
        return core.finish()

    # -- pool-loss retry layer ---------------------------------------------------
    def _run_with_retry(
        self,
        plan: _RunPlan,
        core: _StreamCore,
        jobs: JobSet,
        retry: RetryPolicy,
        make_runner: Callable[[], Scheduler],
        *,
        strategy: str | TransmissionStrategy | None,
        progress: Callable[[StreamProgress], None] | None,
        cancel: CancelToken | None,
    ) -> RunResult:
        """Drain the campaign, resubmitting pool losses per the retry policy.

        Each :class:`~repro.errors.WorkerLostError` consumes one attempt:
        results already collected are harvested from the resolved futures, a
        fresh backend is built from the session's :class:`BackendSpec` after
        the policy's backoff, and only the unresolved positions go back out.
        A backend that cannot even be rebuilt (workers still down at
        connect time) consumes an attempt too, so the backoff schedule also
        paces re-connection storms.  Results from every attempt merge into
        one submission-ordered report, bit-identical to a clean run.
        """
        settled: dict[int, tuple[dict[str, Any] | None, str | None]] = {}
        cur_plan, cur_core = plan, core
        cur_futures: dict[int, PricingFuture] = {f.job_id: f for f in jobs}
        retries = 0
        last_error: Exception | None = None
        for attempt in range(1, retry.max_attempts + 1):
            if cur_core is not None:
                try:
                    result = cur_core.finish()
                except WorkerLostError as exc:
                    last_error = exc
                    for job_id, future in cur_futures.items():
                        if future.done() and job_id not in settled:
                            settled[job_id] = (future._result, future._error)
                    try:
                        cur_plan.backend.finalize()
                    # repro-lint: disable=except-swallow -- best-effort teardown of a pool that WorkerLostError already proved dead; any error here is noise on the retry path
                    except Exception:
                        pass  # the pool is already gone; nothing to release
                else:
                    return self._merge_retry_result(plan, result, settled, retries)
            if attempt == retry.max_attempts:
                break
            delay = retry.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            try:
                cur_plan = self._retry_plan(plan, settled)
                cur_core, retry_jobs = self._make_core(
                    cur_plan, make_runner(), strategy, progress, cancel
                )
                cur_futures = {f.job_id: f for f in retry_jobs}
                retries += 1
            except ClusterError as exc:
                # the replacement pool could not even be dialed: consume the
                # attempt and let the backoff schedule pace the next try
                last_error = exc
                cur_core = None
        assert last_error is not None
        raise last_error

    def _retry_plan(
        self,
        plan: _RunPlan,
        settled: Mapping[int, tuple[dict[str, Any] | None, str | None]],
    ) -> _RunPlan:
        """A fresh-backend plan covering only the still-unresolved positions."""
        unresolved = [jid for jid in plan.original_ids if jid not in settled]
        if not unresolved:
            raise SchedulingError(
                "worker pool lost but every position already resolved"
            )
        unresolved_set = set(unresolved)
        backend = self._acquire_backend(plan.strategy_name, cache=plan.run_cache)
        retry_jobs = [
            job
            for job in plan.jobs
            if any(
                member in unresolved_set
                for member in plan.batch_members.get(job.job_id, (job.job_id,))
            )
        ]
        return _RunPlan(
            backend=backend,
            executing=getattr(backend, "requires_payload", True),
            strategy_name=plan.strategy_name,
            jobs=retry_jobs,
            original_ids=unresolved,
            n_total=len(unresolved),
            problem_by_id=plan.problem_by_id,
            digests={
                jid: digest
                for jid, digest in plan.digests.items()
                if jid in unresolved_set
            },
            batch_members={
                job.job_id: plan.batch_members[job.job_id]
                for job in retry_jobs
                if job.job_id in plan.batch_members
            },
            run_cache=plan.run_cache,
            portfolio=None,
        )

    def _merge_retry_result(
        self,
        plan: _RunPlan,
        result: RunResult,
        settled: Mapping[int, tuple[dict[str, Any] | None, str | None]],
        retries: int,
    ) -> RunResult:
        """Fold earlier attempts' harvested results into the final report."""
        if retries == 0:
            return result
        report = result.report
        results = dict(report.results)
        errors = dict(report.errors)
        for job_id, (entry, error) in settled.items():
            if error is not None:
                errors.setdefault(job_id, error)
                results.setdefault(job_id, None)
            else:
                results.setdefault(job_id, entry)
        report.results = {
            jid: results[jid] for jid in plan.original_ids if jid in results
        }
        report.errors = {
            jid: errors[jid] for jid in plan.original_ids if jid in errors
        }
        report.n_jobs = plan.n_total
        report.extra["retries"] = retries
        return RunResult(report=report, portfolio=plan.portfolio)

    def stream(
        self,
        source: Portfolio | Sequence[Job],
        *,
        strategy: str | TransmissionStrategy | None = None,
        store: Any = None,
        attach_problems: bool | None = None,
        config: RunConfig | None = None,
        batch: bool | None = None,
        batch_group_size: int | None = None,
        kernel: str | None = None,
        min_group_size: int | None = None,
        cache: bool | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> StreamingRun:
        """Value a portfolio incrementally, yielding results as they land.

        Returns a :class:`~repro.api.futures.StreamingRun`: iterate it for
        one :class:`PriceResult` per position **in completion order** (the
        paper's master collecting from any source), then call
        :meth:`~repro.api.futures.StreamingRun.result` for the deterministic
        submission-ordered :class:`RunResult` -- bit-identical to what the
        synchronous :meth:`run` returns for the same inputs.  The underlying
        :class:`~repro.api.futures.JobSet` is reachable as ``.jobs`` for
        ``as_completed()`` / ``wait()`` access to individual futures.
        """
        options = _merged_config(
            config, attach_problems=attach_problems, batch=batch,
            batch_group_size=batch_group_size, kernel=kernel,
            min_group_size=min_group_size, cache=cache, progress=progress,
            cancel=cancel,
        )
        if strategy is None and config is not None:
            strategy = config.strategy
        runner = self._new_scheduler()
        plan = self._source_plan(
            source, options, strategy_name=self._strategy_name(strategy), store=store
        )
        core, jobs = self._make_core(
            plan, runner, strategy, options.progress, options.cancel
        )
        return StreamingRun(core, jobs)

    # -- risk campaigns ----------------------------------------------------------
    def _run_scenario_grid(
        self,
        problems: Sequence[PricingProblem],
        scenarios: Sequence[Any],
        *,
        on_missing: str,
        name: str,
        config: RunConfig | None,
    ) -> list[dict[str, float]]:
        """Price (problems x scenarios) as one batched campaign on the backend.

        The expanded cells are wrapped into a synthetic portfolio and run with
        ``batch=True, min_group_size=1``: cells sharing a simulation signature
        coalesce into :class:`~repro.pricing.batch.ProblemBatch` super-jobs
        (which ride the shm transport on local backends and the wire protocol
        on remote ones), and the kernel of ``config`` prices each super-job's
        members against one shared path set.  Returns one ``{scenario name:
        price}`` mapping per input problem, exactly like
        :func:`repro.pricing.scenarios.price_scenarios` -- bound to ``name``
        and ``config`` it is the ``price_grid`` the :mod:`repro.core.risk`
        measures take.
        """
        from repro.core.portfolio import Position
        from repro.pricing.scenarios import collect_cell_prices, expand_scenarios

        expanded, cells = expand_scenarios(problems, scenarios, on_missing=on_missing)
        grid_positions = [
            Position(
                problem=problem,
                quantity=1.0,
                category="scenario",
                label=problem.label or f"cell{index:06d}",
            )
            for index, problem in enumerate(expanded)
        ]
        grid = Portfolio(name=f"{name}_scenarios", positions=grid_positions)
        result = self.run(grid, config=config, batch=True, min_group_size=1)
        prices = result.prices()
        missing = [index for index in range(len(expanded)) if index not in prices]
        if missing:
            details = {i: result.report.errors.get(i) for i in missing[:5]}
            raise ValuationError(
                f"{len(missing)} scenario cells failed to price: {details}"
            )
        flat = [prices[index] for index in range(len(expanded))]
        return collect_cell_prices(flat, cells, scenarios, len(problems))

    def greeks(
        self,
        portfolio: Portfolio,
        *,
        spot_bump: float = 0.01,
        vol_bump: float = 0.01,
        rate_bump: float = 0.0001,
        theta_bump: float = 1.0 / 365.0,
        config: RunConfig | None = None,
    ) -> "Any":
        """Full finite-difference Greek ladder of a portfolio, batched.

        :func:`repro.core.risk.portfolio_greeks` with the scenario grid
        priced as a single campaign on the session backend: same
        :class:`~repro.core.risk.PortfolioRiskReport`, bit-identical
        numbers, and the cells parallelise over workers like any other
        batched run.
        """
        from repro.core.risk import portfolio_greeks

        return portfolio_greeks(
            portfolio, spot_bump=spot_bump, vol_bump=vol_bump,
            rate_bump=rate_bump, theta_bump=theta_bump,
            price_grid=partial(
                self._run_scenario_grid, name=portfolio.name, config=config
            ),
        )

    def risk(
        self,
        portfolio: Portfolio,
        *,
        spot_returns: Sequence[float] | None = None,
        param: str | None = None,
        bumps: Sequence[float] | None = None,
        relative: bool = True,
        confidence: float = 0.99,
        config: RunConfig | None = None,
    ) -> dict[Any, Any]:
        """Run a risk campaign (historical VaR or a sensitivity sweep), batched.

        ``spot_returns`` runs :func:`repro.core.risk.historical_var` (same
        summary dict); ``param`` + ``bumps`` runs
        :func:`repro.core.risk.sensitivity_sweep` (same ``{bump: value}``
        mapping).  Either way the whole (positions x scenarios) grid prices
        as one batched campaign on the session backend.
        """
        from repro.core.risk import historical_var, sensitivity_sweep

        if (spot_returns is None) == (param is None or bumps is None):
            raise ValuationError(
                "risk() needs either spot_returns=... (historical VaR) or "
                "param=... and bumps=... (sensitivity sweep)"
            )
        price_grid = partial(
            self._run_scenario_grid, name=portfolio.name, config=config
        )
        if spot_returns is not None:
            return historical_var(
                portfolio, spot_returns, confidence, price_grid=price_grid
            )
        assert param is not None and bumps is not None
        return sensitivity_sweep(
            portfolio, param, bumps, relative, price_grid=price_grid
        )

    # -- batch & cache helpers ---------------------------------------------------
    def _resolve_run_cache(self, cache: bool | None) -> ResultCache | None:
        if cache is False:
            return None
        if cache is True and self._cache is None:
            raise ValuationError(
                "cache=True was requested but the session has no result cache; "
                "construct the session with cache=True / a directory / a ResultCache"
            )
        return self._cache

    def _coalesce_jobs(
        self,
        jobs: list[Job],
        problem_by_id: Mapping[int, PricingProblem],
        options: RunConfig,
    ) -> tuple[list[Job], dict[int, tuple[int, ...]]]:
        """Merge shared-simulation jobs into :class:`ProblemBatch` super-jobs."""
        model = options.cost_model or self.cost_model
        min_group_size = options.min_group_size
        plan = plan_batches(
            [problem_by_id.get(job.job_id) for job in jobs],
            min_group_size=min_group_size if min_group_size is not None else 2,
            max_group_size=options.batch_group_size,
        )
        group_by_first: dict[int, Any] = {g.indices[0]: g for g in plan.groups}
        grouped = {index for group in plan.groups for index in group.indices}
        out: list[Job] = []
        members_map: dict[int, tuple[int, ...]] = {}
        for index, job in enumerate(jobs):
            group = group_by_first.get(index)
            if group is not None:
                member_jobs = [jobs[i] for i in group.indices]
                problems = [problem_by_id[j.job_id] for j in member_jobs]
                bundle = ProblemBatch(
                    problems, keys=[j.job_id for j in member_jobs],
                    kernel=options.kernel,
                )
                super_job = Job(
                    job_id=job.job_id,
                    path=f"/virtual/batch/{batch_digest(bundle)[:16]}.pb",
                    file_size=sum(j.file_size for j in member_jobs),
                    # one shared simulation plus cheap per-member payoff sweeps
                    compute_cost=model.estimate_batch_jobs(
                        [j.compute_cost for j in member_jobs]
                    ),
                    category=job.category,
                    problem=bundle,
                )
                out.append(super_job)
                members_map[job.job_id] = tuple(j.job_id for j in member_jobs)
            elif index not in grouped:
                out.append(job)
        return out, members_map

    def _expand_batch_report(
        self, report: RunReport, batch_members: Mapping[int, tuple[int, ...]]
    ) -> RunReport:
        """Rewrite a report over super-jobs into per-position results."""
        results: dict[int, dict[str, Any] | None] = {}
        member_errors: dict[int, str] = {}
        for job_id, result in report.results.items():
            members = batch_members.get(job_id)
            if members is None:
                results[job_id] = result
            elif isinstance(result, dict) and result.get("batch"):
                for key, entry in result["results"].items():
                    if isinstance(entry, dict) and "error" in entry:
                        results[int(key)] = None
                        member_errors[int(key)] = entry["error"]
                    else:
                        results[int(key)] = entry
            else:  # failed (or payload-less) batch job: propagate to members
                for member in members:
                    results[member] = None
        errors: dict[int, str] = dict(member_errors)
        for job_id, message in report.errors.items():
            members = batch_members.get(job_id)
            if members is None:
                errors[job_id] = message
            else:
                for member in members:
                    errors[member] = message
        report.results = results
        report.errors = errors
        report.n_jobs += sum(len(members) - 1 for members in batch_members.values())
        return report

    @staticmethod
    def _store_run_results(
        run_cache: ResultCache, report: RunReport, digests: Mapping[int, str]
    ) -> None:
        for job_id, result in report.results.items():
            if (
                result is None
                or result.get("cache_hit")
                or result.get("price") is None
                or job_id in report.errors
                or job_id not in digests
            ):
                continue
            run_cache.put(digests[job_id], result)

    # -- futures-based submission ------------------------------------------------
    def submit_many(
        self,
        problems: Iterable[PricingProblem],
        *,
        category: str = "submitted",
    ) -> JobSet:
        """Queue problems for valuation; returns a :class:`JobSet` of futures.

        Nothing executes until a future is read (or :meth:`gather` runs):
        the first ``result()`` starts the campaign and pumps the master loop
        **only until that job answers** -- never a full-batch gather.
        Several ``submit_many`` calls before the first read coalesce into a
        single master/worker campaign.

        Duplicate submissions of the same problem (equal
        :func:`~repro.pricing.cache.problem_digest`) are deduplicated: the
        same :class:`PricingFuture` object is returned for every duplicate
        and the problem is priced once.
        """
        futures: list[PricingFuture] = []
        for problem in problems:
            if not isinstance(problem, PricingProblem):
                raise ValuationError(
                    f"submit_many expects PricingProblem items, got {type(problem).__name__}"
                )
            digest: str | None
            try:
                digest = problem_digest(problem)
            except Exception:
                digest = None  # incomplete problems fail later, at job build
            existing = self._pending_by_digest.get(digest) if digest else None
            if existing is not None and not existing.done():
                futures.append(existing)
                continue
            future = PricingFuture(
                self._next_job_id,
                label=problem.label,
                method=getattr(problem, "method_name", None),
                starter=self._start_pending_campaign,
            )
            self._next_job_id += 1
            self._pending.append((problem, future, category))
            if digest is not None:
                self._pending_by_digest[digest] = future
            futures.append(future)
        return JobSet(futures)

    @property
    def n_pending(self) -> int:
        """Number of submitted problems whose campaign has not started yet."""
        return len(self._pending)

    def _start_pending_campaign(self) -> None:
        """Turn the pending submissions into one campaign (lazy)."""
        if not self._pending:
            return
        # keep the queue intact until the campaign launches: a failure while
        # building jobs leaves the futures pending, with the real exception
        # propagating, instead of stranding them unresolved
        pending = [
            (problem, future, category)
            for problem, future, category in self._pending
            if not future.cancelled()
        ]
        if not pending:
            # everything was cancelled before anything executed
            self._pending = []
            self._pending_by_digest = {}
            return
        jobs = [
            Job(
                job_id=future.job_id,
                path=f"/virtual/session/{future.job_id:06d}.pb",
                file_size=serialize(problem).nbytes + 4,
                compute_cost=self.cost_model.estimate(problem),
                category=category,
                problem=problem,
            )
            for problem, future, category in pending
        ]
        strategy_name = self._strategy_name(None)
        runner = self._new_scheduler()
        backend = self._acquire_backend(strategy_name, cache=self._cache)
        problem_by_id = {future.job_id: problem for problem, future, _ in pending}
        plan = self._prepare_plan(
            jobs,
            problem_by_id,
            RunConfig(),
            strategy_name=strategy_name,
            run_cache=self._cache,
            backend=backend,
            portfolio=None,
        )
        futures = {future.job_id: future for _, future, _ in pending}
        core = self._attach_campaign(plan, futures, runner=runner)
        self._pending = []
        self._pending_by_digest = {}
        self._active_cores = [
            live for live in self._active_cores if not live.finished
        ]
        self._active_cores.append(core)

    def _attach_campaign(
        self,
        plan: _RunPlan,
        futures: dict[int, PricingFuture],
        runner: Scheduler | None = None,
        strategy: str | TransmissionStrategy | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> _StreamCore:
        """Wire futures onto a prepared plan and open the schedule stream."""
        runner = runner or self._new_scheduler()
        # cache hits resolve immediately -- they never enter the stream
        for job_id, entry in plan.cached_results.items():
            futures[job_id]._resolve(entry, None)
        chosen = strategy if strategy is not None else plan.strategy_name
        strategy_obj = get_strategy(chosen) if isinstance(chosen, str) else chosen
        dispatched = list(plan.jobs)
        stream = (
            runner.stream(dispatched, plan.backend, strategy_obj)
            if dispatched
            else None
        )

        def _finalize(outcome: Any, cancelled_jobs: list[Job]) -> RunResult:
            return self._assemble_run_result(plan, dispatched, outcome, cancelled_jobs)

        core = _StreamCore(
            stream,
            futures,
            batch_members=plan.batch_members,
            total=plan.n_total,
            progress=progress,
            cancel=cancel,
            finalize_cb=_finalize,
        )
        core.attach(futures)
        if stream is None:
            # nothing to dispatch (every position answered from the cache):
            # finalize the backend right away instead of waiting for a
            # result()/gather() that may never come
            core.finish()
        return core

    def gather(self) -> RunResult:
        """Drain every submitted problem and return the campaign's result.

        Starts the pending campaign if none is live, then drains the active
        streams to completion.  With several interleaved campaigns, the
        result of the most recent one is returned (every campaign is still
        drained, so all futures resolve).
        """
        if not self._pending and not self._active_cores:
            raise ValuationError("no pending submissions to gather")
        self._start_pending_campaign()
        if not self._active_cores:
            raise ValuationError(
                "every pending submission was cancelled before gathering"
            )
        result: RunResult | None = None
        for core in self._active_cores:
            result = core.finish()
        self._active_cores = []
        assert result is not None
        return result

    # -- sweeps and comparisons --------------------------------------------------
    def sweep(
        self,
        source: Portfolio | Sequence[Job],
        cpu_counts: Sequence[int] | None = None,
        *,
        strategy: str | None = None,
        share_nfs_cache: bool | None = None,
        label: str | None = None,
        comm: CommunicationModel | None = None,
        comm_factory: Callable[[], CommunicationModel] | None = None,
        config: SweepConfig | None = None,
        batch: bool | None = None,
        batch_group_size: int | None = None,
    ) -> SweepResult:
        """Simulate the same workload over several cluster sizes.

        Always runs on the simulated cluster (that is the point of a sweep),
        whatever the session backend is.  ``share_nfs_cache=True`` (default)
        reuses one :class:`CommunicationModel` across the sweep, reproducing
        the paper's warm-NFS-cache artefact; ``False`` gives every CPU count
        an independent cold run built by ``comm_factory`` when provided, or
        by :meth:`CommunicationModel.cold_copy` otherwise -- either way any
        customised NFS settings are preserved.

        ``batch=True`` coalesces shared-simulation families with the
        batch-aware cost model (one shared path simulation plus per-member
        payoff sweeps), regenerating the paper's tables "with batching".
        """
        if config is not None:
            cpu_counts = cpu_counts if cpu_counts is not None else config.cpu_counts
            strategy = strategy or config.strategy
            if share_nfs_cache is None:
                share_nfs_cache = config.share_nfs_cache
            label = label or config.label
            if batch is None:
                batch = config.batch
            if batch_group_size is None:
                batch_group_size = config.batch_group_size
        if share_nfs_cache is None:
            share_nfs_cache = True
        if not cpu_counts:
            raise SchedulingError("cpu_counts must not be empty")
        strategy_name = self._strategy_name(strategy)
        jobs = self._sweep_jobs(source, batch=bool(batch), batch_group_size=batch_group_size)
        comm_factory = comm_factory or self.comm_factory
        base_comm = comm if comm is not None else self.comm
        if base_comm is None:
            base_comm = comm_factory() if comm_factory else CommunicationModel()
        times: dict[int, float] = {}
        for n_cpus in cpu_counts:
            if share_nfs_cache:
                run_comm = base_comm
            elif comm_factory is not None:
                run_comm = comm_factory()
            else:
                run_comm = base_comm.cold_copy()
            backend = self._simulated_backend(n_cpus, strategy_name, run_comm)
            report = self._execute_jobs(jobs, backend, strategy_name)
            times[n_cpus] = report.total_time
        from repro.core.speedup import SpeedupTable

        return SweepResult(SpeedupTable.from_times(label or strategy_name, times))

    def compare(
        self,
        source: Portfolio | Sequence[Job],
        cpu_counts: Sequence[int],
        *,
        strategies: Sequence[str] = STRATEGY_NAMES,
        share_nfs_cache: bool = True,
        comm_factory: Callable[[], CommunicationModel] | None = None,
        batch: bool = False,
        batch_group_size: int | None = None,
    ) -> ComparisonResult:
        """Run the CPU-count sweep for several transmission strategies.

        Reproduces the full layout of the paper's Tables II and III.  Each
        strategy gets its own communication model (its own NFS cache
        history), built by ``comm_factory`` when provided.  ``batch=True``
        regenerates the tables with shared-simulation batching.
        """
        comm_factory = comm_factory or self.comm_factory
        jobs = self._sweep_jobs(source, batch=batch, batch_group_size=batch_group_size)
        tables: dict[str, Any] = {}
        for strategy in strategies:
            comm = comm_factory() if comm_factory else CommunicationModel()
            tables[strategy] = self.sweep(
                jobs,
                cpu_counts,
                strategy=strategy,
                share_nfs_cache=share_nfs_cache,
                comm=comm,
                comm_factory=comm_factory,
                label=strategy,
            ).table
        return ComparisonResult(tables)

    def _sweep_jobs(
        self,
        source: Portfolio | Sequence[Job],
        batch: bool = False,
        batch_group_size: int | None = None,
    ) -> list[Job]:
        if isinstance(source, Portfolio):
            jobs = source.build_jobs(cost_model=self.cost_model)
            problem_by_id = {
                job.job_id: position.problem for job, position in zip(jobs, source)
            }
        else:
            jobs = list(source)
            problem_by_id = {
                job.job_id: job.problem for job in jobs if job.problem is not None
            }
        if batch:
            jobs, _members = self._coalesce_jobs(
                jobs, problem_by_id, RunConfig(batch_group_size=batch_group_size)
            )
        return jobs

    def _simulated_backend(
        self, n_cpus: int, strategy_name: str, comm: CommunicationModel
    ) -> WorkerBackend:
        options: dict[str, Any] = {}
        if self._backend_spec is not None and self._backend_spec.name == "simulated":
            options.update(dict(self._backend_spec.options))
        options.pop("comm", None)
        return create_backend(
            "simulated",
            n_workers=n_cpus - 1,
            strategy=strategy_name,
            comm=comm,
            **options,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        backend = (
            self._backend_spec.name
            if self._backend_spec is not None
            else type(self._backend_instance).__name__
        )
        return (
            f"ValuationSession(backend={backend!r}, "
            f"strategy={self._strategy_name(None)!r}, pending={self.n_pending})"
        )
