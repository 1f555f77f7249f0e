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

The session resolves options and owns the backend lifecycle; every campaign
-- ``run``, ``stream``, ``submit_many`` -- is planned by
:func:`repro.api.plan.build_plan`, executed by a
:class:`repro.api.campaign.Campaign` over the incremental master loop
(:class:`~repro.core.scheduler.ScheduleStream`) into one
:class:`~repro.core.runner.ResultTable`, which the final report carries and
of which a :class:`~repro.api.futures.PricingFuture` is a one-row view.
``run(...)`` is ``stream(...).result()``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.api.campaign import Campaign
from repro.api.config import BackendSpec, RunConfig
from repro.api.futures import (
    CancelToken,
    JobSet,
    PricingFuture,
    StreamingRun,
    StreamProgress,
)
from repro.api.plan import build_plan
from repro.api.results import ComparisonResult, PriceResult, RunResult, SweepResult
from repro.cluster.backends import Job, WorkerBackend, create_backend
from repro.cluster.costmodel import CostModel, paper_cost_model
from repro.cluster.simcluster.comm import STRATEGY_NAMES, CommunicationModel
from repro.core.portfolio import Portfolio
from repro.core.scheduler import DispatchPolicy, ScheduleStream, policy_factory
from repro.core.speedup import SpeedupTable
from repro.core.strategies import TransmissionStrategy, get_strategy
from repro.errors import SchedulingError, ValuationError
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.engine import PricingProblem
from repro.pricing.scenarios import Scenario, ScenarioGrid

__all__ = ["ValuationSession"]

#: backend names whose workers execute payloads in this process tree and can
#: therefore share an on-disk result cache via the ``cache_dir`` option
_EXECUTING_BACKENDS = ("local", "multiprocessing")


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
        :data:`~repro.core.scheduler.SCHEDULERS`, or a zero-argument callable
        returning a fresh :class:`~repro.core.scheduler.DispatchPolicy` (a
        policy class is one).  Every scheduler is a policy over the one
        incremental master loop, so ``stream``/``submit_many``/``progress``/
        ``cancel`` work with any of them.
    cost_model:
        :class:`~repro.cluster.costmodel.CostModel` used to estimate per-job
        compute costs when building jobs from portfolios / submissions
        (default: the paper's calibrated model).
    comm:
        Shared :class:`CommunicationModel` for sweeps (warm NFS cache
        semantics, the paper's experimental artefact); a cold run gets a
        :meth:`~CommunicationModel.cold_copy` of it, custom NFS settings kept.
    backend_options:
        Extra keyword options for the backend factory (e.g.
        ``{"hosts": pool.hosts, "reconnect": True}`` for remote).
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
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        cost_model: CostModel | None = None,
        comm: CommunicationModel | None = None,
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
        self._cache = _coerce_cache(cache)
        self._pending: list[tuple[PricingProblem, PricingFuture, str]] = []
        self._pending_by_digest: dict[str, PricingFuture] = {}
        self._campaigns: list[Campaign] = []
        self._next_job_id = 0
        self._resolve_strategy()  # raises SchedulingError on bad names
        policy_factory(scheduler)  # raises ValuationError on bad spellings

    # -- configuration helpers ---------------------------------------------------
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
            "backend": self._backend_spec or self._backend_instance,
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "cost_model": self.cost_model,
            "comm": self.comm,
            "cache": self._cache,
        }
        current.update(changes)
        return ValuationSession(**current)

    def _resolve_strategy(
        self, strategy: str | TransmissionStrategy | None = None
    ) -> TransmissionStrategy:
        chosen = strategy if strategy is not None else self.strategy
        return get_strategy(chosen) if isinstance(chosen, str) else chosen

    def _resolve_run_cache(self, cache: bool | None) -> ResultCache | None:
        if cache is False:
            return None
        if cache is True and self._cache is None:
            raise ValuationError(
                "cache=True was requested but the session has no result cache; "
                "construct the session with cache=True / a directory / a ResultCache"
            )
        return self._cache

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

    # -- portfolio runs ----------------------------------------------------------
    def _open_campaign(
        self,
        source: Portfolio | Sequence[Job] | ScenarioGrid,
        *,
        strategy: str | TransmissionStrategy | None = None,
        store: Any = None,
        config: RunConfig | None = None,
        futures: Mapping[int, PricingFuture] | None = None,
        **overrides: Any,
    ) -> Campaign:
        """Resolve the options, acquire a backend, plan and open one campaign.

        Precedence, most specific first: a keyword given to the call, the
        ``config`` field, the session's own choice.
        """
        given = {name: value for name, value in overrides.items() if value is not None}
        options = replace(config or RunConfig(), **given)
        strategy_obj = self._resolve_strategy(
            strategy if strategy is not None else options.strategy
        )
        new_policy = policy_factory(options.scheduler or self.scheduler)
        run_cache = self._resolve_run_cache(options.cache)
        new_backend = partial(self._acquire_backend, strategy_obj.name, run_cache)
        backend = new_backend()
        try:
            executing = getattr(backend, "requires_payload", True)
            if strategy_obj.name == "nfs" and executing:
                if options.batch or isinstance(source, ScenarioGrid):
                    raise ValuationError(
                        "batch=True and risk campaigns cannot be combined with the "
                        "nfs strategy on an executing backend: coalesced batch jobs "
                        "and scenario-grid slices have no per-position problem files"
                    )
                if isinstance(source, Portfolio) and store is None:
                    raise ValuationError(
                        "the nfs strategy sends file names, and a portfolio names "
                        "no problem file until it is saved: pass "
                        "store=portfolio.to_store(directory) on an executing backend"
                    )
            plan = build_plan(
                source,
                options,
                executing=executing,
                cost_model=self.cost_model,
                run_cache=run_cache,
                store=store,
                n_workers=backend.n_workers,
                queues_jobs=getattr(backend, "queues_jobs", False),
                strategy=strategy_obj.name,
                new_policy=new_policy,
            )
        except BaseException:
            # nothing was dispatched: stop the workers, if they are the session's
            if self._backend_spec is not None:
                with suppress(Exception):  # the planning error is the report
                    backend.finalize()
            raise
        return Campaign(
            plan,
            backend,
            strategy_obj,
            plan.dealer(new_policy),
            futures=futures,
            progress=options.progress,
            cancel=options.cancel,
            # only a name/spec session can rebuild the pool a retry needs
            retry=options.retry if self._backend_spec is not None else None,
            new_backend=new_backend,
        )

    def run(
        self,
        source: Portfolio | Sequence[Job],
        *,
        strategy: str | TransmissionStrategy | None = None,
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        store: Any = None,
        config: RunConfig | None = None,
        batch: bool | None = None,
        kernel: str | None = None,
        min_group_size: int | None = None,
        cache: bool | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> RunResult:
        """Value a portfolio (or a prepared job list) on the session backend.

        ``stream(...).result()`` in one call: the same campaign, drained to
        completion.  ``scheduler`` (spelled like the session's) overrides the
        config's and the session's scheduler for this one run.
        ``batch=True`` coalesces positions with equal simulation signatures
        into shared-path :class:`~repro.pricing.batch.ProblemBatch` jobs;
        prices are bit-identical to the unbatched run (on the simulated
        backend the batch-aware cost model prices one shared simulation per
        group).  ``progress`` is called once per collected position;
        ``cancel`` (a :class:`CancelToken`) withdraws still-queued positions,
        which the result marks as ``"cancelled before dispatch"`` errors.
        """
        return self._open_campaign(
            source, strategy=strategy, scheduler=scheduler, store=store,
            config=config, batch=batch, kernel=kernel,
            min_group_size=min_group_size, cache=cache,
            progress=progress, cancel=cancel,
        ).finish()

    def stream(
        self,
        source: Portfolio | Sequence[Job],
        *,
        strategy: str | TransmissionStrategy | None = None,
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        store: Any = None,
        config: RunConfig | None = None,
        batch: bool | None = None,
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
        return StreamingRun(
            self._open_campaign(
                source, strategy=strategy, scheduler=scheduler, store=store,
                config=config, batch=batch, kernel=kernel,
                min_group_size=min_group_size, cache=cache,
                progress=progress, cancel=cancel,
            )
        )

    # -- risk campaigns ----------------------------------------------------------
    def _run_scenario_grid(
        self,
        problems: Sequence[PricingProblem],
        scenarios: Sequence[Scenario],
        *,
        on_missing: str,
        config: RunConfig | None,
    ) -> list[dict[str, float]]:
        """Price (problems x scenarios) as one campaign of grid slices on the backend.

        The campaign is described by the base problems and the scenarios, and
        that is what travels: :func:`~repro.api.plan.build_plan` cuts the
        scenario list into :class:`~repro.pricing.scenarios.ScenarioGrid`
        slices over one base book, each worker expands its slice next to the
        kernel of ``config`` and answers one record of columns.  No cell
        problem, future or result dictionary exists on the master -- the fold
        reads the result table's price column; a scenario the book cannot
        realise raises here, before a backend is acquired.  Returns one
        ``{scenario name: price}`` mapping per input problem, exactly like
        :func:`repro.pricing.scenarios.price_scenarios` -- bound to ``config``
        it is the ``price_grid`` the :mod:`repro.core.risk` measures take.
        """
        grid = ScenarioGrid(problems, scenarios, on_missing=on_missing)
        grid.columns()  # what the book cannot realise raises before a backend exists
        campaign = self._open_campaign(grid, config=config)
        report, table = campaign.finish().report, campaign.table
        unpriced = table.ids[table.status != table.DONE]
        if len(unpriced):
            details = {cell: report.errors.get(cell) for cell in unpriced[:5].tolist()}
            raise ValuationError(
                f"{len(unpriced)} scenario cells failed to price: {details}"
            )
        return grid.price_rows(table.ids, table.columns.price)

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
            price_grid=partial(self._run_scenario_grid, config=config),
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
        price_grid = partial(self._run_scenario_grid, config=config)
        if spot_returns is not None:
            return historical_var(
                portfolio, spot_returns, confidence, price_grid=price_grid
            )
        assert param is not None and bumps is not None
        return sensitivity_sweep(
            portfolio, param, bumps, relative, price_grid=price_grid
        )

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
                compute_cost=self.cost_model.estimate(problem),
                category=category,
                problem=problem,
            )
            for problem, future, category in pending
        ]
        campaign = self._open_campaign(
            jobs, futures={future.job_id: future for _, future, _ in pending}
        )
        self._pending = []
        self._pending_by_digest = {}
        self._campaigns = [live for live in self._campaigns if not live.finished]
        self._campaigns.append(campaign)

    def gather(self) -> RunResult:
        """Drain every submitted problem and return the campaign's result.

        Starts the pending campaign if none is live, then drains the active
        streams to completion.  With several interleaved campaigns, the
        result of the most recent one is returned (every campaign is still
        drained, so all futures resolve).
        """
        if not self._pending and not self._campaigns:
            raise ValuationError("no pending submissions to gather")
        self._start_pending_campaign()
        if not self._campaigns:
            raise ValuationError(
                "every pending submission was cancelled before gathering"
            )
        results = [campaign.finish() for campaign in self._campaigns]
        self._campaigns = []
        return results[-1]

    # -- sweeps and comparisons --------------------------------------------------
    def sweep(
        self,
        source: Portfolio | Sequence[Job],
        cpu_counts: Sequence[int],
        *,
        strategy: str | None = None,
        share_nfs_cache: bool = True,
        label: str | None = None,
        batch: bool = False,
    ) -> SweepResult:
        """Simulate the same workload over several cluster sizes.

        Always runs on the simulated cluster (that is the point of a sweep),
        whatever the session backend is.  ``share_nfs_cache=True`` (default)
        reuses one :class:`CommunicationModel` across the sweep, reproducing
        the paper's warm-NFS-cache artefact; ``False`` gives every CPU count
        an independent cold run on a :meth:`CommunicationModel.cold_copy` of
        the session's ``comm``, so any customised NFS settings are preserved.

        ``batch=True`` coalesces shared-simulation families with the
        batch-aware cost model (one shared path simulation plus per-member
        payoff sweeps), regenerating the paper's tables "with batching".
        """
        strategy_obj = self._resolve_strategy(strategy)
        jobs = self._simulation_jobs(source, batch)
        shared = None
        if share_nfs_cache:
            shared = self.comm if self.comm is not None else self._own_comm()
        return SweepResult(self._sweep_column(jobs, cpu_counts, strategy_obj, shared, label))

    def compare(
        self,
        source: Portfolio | Sequence[Job],
        cpu_counts: Sequence[int],
        *,
        strategies: Sequence[str] = STRATEGY_NAMES,
        share_nfs_cache: bool = True,
        batch: bool = False,
    ) -> ComparisonResult:
        """Run the CPU-count sweep for several transmission strategies.

        Reproduces the full layout of the paper's Tables II and III.  Each
        strategy gets its own communication model (its own NFS cache
        history) carrying the session's ``comm`` settings.
        ``batch=True`` regenerates the tables with shared-simulation batching.
        """
        jobs = self._simulation_jobs(source, batch)
        return ComparisonResult(
            {
                strategy: self._sweep_column(
                    jobs, cpu_counts, self._resolve_strategy(strategy),
                    self._own_comm() if share_nfs_cache else None, strategy,
                )
                for strategy in strategies
            }
        )

    def _own_comm(self) -> CommunicationModel:
        """A model with its own cold NFS cache that keeps the session's settings."""
        if self.comm is not None:
            return self.comm.cold_copy()
        return CommunicationModel()

    def _sweep_column(
        self,
        jobs: list[Job],
        cpu_counts: Sequence[int],
        strategy: TransmissionStrategy,
        shared_comm: CommunicationModel | None,
        label: str | None,
    ) -> SpeedupTable:
        """One strategy's simulated makespan per CPU count.

        ``shared_comm`` carries one NFS cache history through the whole
        column; ``None`` gives every CPU count a cold model of its own.
        """
        if not cpu_counts:
            raise SchedulingError("cpu_counts must not be empty")
        sim_options: dict[str, Any] = {}
        if self._backend_spec is not None and self._backend_spec.name == "simulated":
            sim_options.update(self._backend_spec.options)
        sim_options.pop("comm", None)
        new_policy = policy_factory(self.scheduler)
        times: dict[int, float] = {}
        for n_cpus in cpu_counts:
            backend = create_backend(
                "simulated", n_workers=n_cpus - 1, strategy=strategy.name,
                comm=shared_comm if shared_comm is not None else self._own_comm(),
                **sim_options,
            )
            outcome = ScheduleStream(jobs, backend, strategy, new_policy()).finish()
            if len(outcome.completed) != len(jobs):
                raise SchedulingError(
                    f"scheduler returned {len(outcome.completed)} results "
                    f"for {len(jobs)} jobs"
                )
            times[n_cpus] = outcome.total_time
        return SpeedupTable.from_times(label or strategy.name, times)

    def _simulation_jobs(self, source: Portfolio | Sequence[Job], batch: bool) -> list[Job]:
        """The jobs a simulated sweep replays: planned like a run, never executed."""
        return build_plan(
            source, RunConfig(batch=batch), executing=False, cost_model=self.cost_model
        ).jobs

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        backend = (
            self._backend_spec.name
            if self._backend_spec is not None
            else type(self._backend_instance).__name__
        )
        return (
            f"ValuationSession(backend={backend!r}, "
            f"strategy={self._resolve_strategy().name!r}, pending={self.n_pending})"
        )
