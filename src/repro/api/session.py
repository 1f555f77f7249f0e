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

import inspect
from contextlib import suppress
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.api.campaign import Campaign
from repro.api.futures import (
    CancelToken,
    JobSet,
    PricingFuture,
    StreamingRun,
    StreamProgress,
)
from repro.api.plan import build_plan
from repro.api.results import ComparisonResult, PriceResult, RunResult, SweepResult
from repro.cluster.backends import _BACKEND_REGISTRY, Job, WorkerBackend, create_backend, list_backends
from repro.cluster.costmodel import CostModel, paper_cost_model
from repro.cluster.simcluster.comm import STRATEGY_NAMES, CommunicationModel
from repro.core.portfolio import Portfolio
from repro.core.scheduler import DispatchPolicy, ScheduleStream, policy_factory
from repro.core.speedup import SpeedupTable
from repro.core.strategies import STRATEGIES, TransmissionStrategy
from repro.errors import ClusterError, SchedulingError, ValuationError
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.engine import PricingProblem
from repro.pricing.kernel import KERNELS
from repro.pricing.scenarios import Scenario, ScenarioGrid
from repro.pricing.validation import check_count

__all__ = ["ValuationSession"]


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


def _check_backend_options(backend: str, options: Mapping[str, Any] | None) -> dict[str, Any]:
    """``options`` bound against ``backend``'s registered factory, before any run.

    The remote backend's ``hosts`` are normalised too, so a bad address
    fails before any socket is opened.  The simulated cluster's
    communication model is the session's ``comm=``, so ``run``, ``sweep``
    and ``compare`` all price with it.
    """
    options = dict(options or {})
    if backend == "simulated" and "comm" in options:
        raise ValuationError(
            "the simulated cluster's communication model is the session's comm= "
            "keyword, not a backend option: "
            "ValuationSession('simulated', comm=CommunicationModel(...))"
        )
    signature = inspect.signature(_BACKEND_REGISTRY[backend])
    try:
        signature.bind(n_workers=None, strategy=None, **options)
    except TypeError as exc:
        takes = [name for name in signature.parameters if name not in ("n_workers", "strategy")]
        raise ValuationError(
            f"backend {backend!r} refuses backend_options {sorted(options)} ({exc}); "
            f"its factory takes {takes}"
        ) from None
    if backend == "remote":
        from repro.cluster.backends.remote import normalize_hosts

        if not options.get("hosts"):
            raise ValuationError(
                "the remote backend needs a non-empty 'hosts' option, e.g. "
                "backend_options={'hosts': ['10.0.0.4:9631']}; "
                "spawn_local_workers(n).hosts gives a loopback pool"
            )
        try:
            options["hosts"] = normalize_hosts(options["hosts"])
        except ClusterError as exc:
            raise ValuationError(str(exc)) from exc
    return options


class ValuationSession:
    """Facade bundling backend, strategy, scheduler and cost-model choices.

    Parameters
    ----------
    backend:
        Registered backend name (any entry of
        :func:`~repro.cluster.backends.list_backends` -- e.g. ``"local"``,
        ``"multiprocessing"``, ``"remote"``, ``"simulated"``).  The session
        builds a **fresh** backend from it for every run; a new engine joins
        through :func:`~repro.cluster.backends.register_backend`.
    strategy:
        Default problem-transmission strategy (``full_load``, ``nfs`` or
        ``serialized_load``).
    n_workers:
        Worker count handed to the backend factory.
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
        It is the one spelling: a ``comm`` backend option is refused.
    backend_options:
        Extra keyword options for the backend factory (e.g.
        ``{"hosts": pool.hosts}`` for remote), checked against the factory's
        keywords here.
    cache:
        Digest-keyed result cache (see :mod:`repro.pricing.cache`).
        ``True`` builds an in-memory LRU, a path string / :class:`~pathlib.Path`
        builds a disk-backed cache, a ready-made
        :class:`~repro.pricing.cache.ResultCache` is used as given, and
        ``None``/``False`` (default) disables caching.  The cache is the
        master's: a run's cache pass answers every position already priced,
        prices a position repeated within the run once, and keeps what it
        prices as it lands; the workers price what they are sent.
    """

    def __init__(
        self,
        backend: str = "simulated",
        strategy: str = "serialized_load",
        *,
        n_workers: int = 2,
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        cost_model: CostModel | None = None,
        comm: CommunicationModel | None = None,
        backend_options: Mapping[str, Any] | None = None,
        cache: ResultCache | str | Path | bool | None = None,
    ) -> None:
        if not isinstance(backend, str) or backend not in _BACKEND_REGISTRY:
            raise ValuationError(
                f"unknown backend {backend!r}; registered backends: {list_backends()}"
            )
        self.backend = backend
        self.n_workers = check_count(n_workers, "n_workers", error=ValuationError, floats=False)
        self.backend_options = _check_backend_options(backend, backend_options)
        self.strategy = strategy
        self.scheduler = scheduler
        self.cost_model = cost_model or paper_cost_model()
        self.comm = comm
        self._cache = _coerce_cache(cache)
        self._pending: list[tuple[PricingProblem, PricingFuture, str]] = []
        self._pending_by_digest: dict[str, PricingFuture] = {}
        self._campaigns: list[Campaign] = []
        self._next_job_id = 0
        self._resolve_strategy()  # raises ValuationError on bad names
        policy_factory(scheduler)  # raises ValuationError on bad spellings

    # -- configuration helpers ---------------------------------------------------
    @property
    def cache(self) -> ResultCache | None:
        """The session's result cache (``None`` when caching is disabled)."""
        return self._cache

    def with_options(self, **changes: Any) -> "ValuationSession":
        """A new session sharing this one's choices, with ``changes`` applied.

        The worker count carries over; the backend options do not follow a
        change of backend unless they are given anew.
        """
        same_backend = changes.get("backend", self.backend) == self.backend
        current: dict[str, Any] = {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "backend_options": self.backend_options if same_backend else None,
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "cost_model": self.cost_model,
            "comm": self.comm,
            "cache": self._cache,
        }
        current.update(changes)
        return ValuationSession(**current)

    def _resolve_strategy(self, strategy: str | None = None) -> TransmissionStrategy:
        chosen = strategy if strategy is not None else self.strategy
        if not isinstance(chosen, str) or chosen not in STRATEGIES:
            raise ValuationError(f"unknown strategy {chosen!r}; known: {sorted(STRATEGIES)}")
        return STRATEGIES[chosen]()

    def _acquire_backend(self, strategy_name: str) -> WorkerBackend:
        options = dict(self.backend_options)
        if self.backend == "simulated" and self.comm is not None:
            options["comm"] = self.comm
        return create_backend(
            self.backend, n_workers=self.n_workers, strategy=strategy_name, **options
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

    # -- portfolio runs ----------------------------------------------------------
    def _open_campaign(
        self,
        source: Portfolio | Sequence[Job] | ScenarioGrid,
        *,
        strategy: str | None = None,
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        store: Any = None,
        batch: bool | None = None,
        kernel: str | None = None,
        min_group_size: int | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
        futures: Mapping[int, PricingFuture] | None = None,
    ) -> Campaign:
        """Check the keywords, acquire a backend, plan and open one campaign
        (a pool of worker processes starts only then, after the plan).

        An option not given to the call (``None``) is the session's choice,
        for ``strategy`` and ``scheduler``, or the default: no ``batch``, the
        default ``kernel``, families of two and more.
        """
        if kernel is not None and kernel not in KERNELS:
            raise ValuationError(f"unknown kernel {kernel!r}; known: {list(KERNELS)}")
        if min_group_size is not None:
            check_count(min_group_size, "min_group_size", error=ValuationError, floats=False)
        strategy_obj = self._resolve_strategy(strategy)
        new_policy = policy_factory(scheduler or self.scheduler)
        new_backend = partial(self._acquire_backend, strategy_obj.name)
        backend = new_backend()
        try:
            executing = getattr(backend, "requires_payload", True)
            if strategy_obj.name == "nfs" and executing:
                if batch or isinstance(source, ScenarioGrid):
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
                executing=executing,
                cost_model=self.cost_model,
                batch=bool(batch),
                kernel=kernel,
                min_group_size=2 if min_group_size is None else min_group_size,
                run_cache=self._cache,
                store=store,
                n_workers=backend.n_workers,
                queues_jobs=getattr(backend, "queues_jobs", False),
                strategy=strategy_obj.name,
                new_policy=new_policy,
            )
            # the campaign's stream makes the jobs' bytes, then starts the pool
            return Campaign(
                plan,
                backend,
                strategy_obj,
                plan.dealer(new_policy),
                new_backend,
                futures=futures,
                progress=progress,
                cancel=cancel,
            )
        except BaseException:
            # a planning or load error: stop whatever workers started
            with suppress(Exception):  # the error is the report
                backend.finalize()
            raise

    def run(
        self,
        source: Portfolio | Sequence[Job],
        *,
        strategy: str | None = None,
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        store: Any = None,
        batch: bool | None = None,
        kernel: str | None = None,
        min_group_size: int | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> RunResult:
        """Value a portfolio (or a prepared job list) on the session backend.

        ``stream(...).result()`` in one call: the same campaign, drained to
        completion.  ``strategy`` and ``scheduler`` (spelled like the
        session's) override the session's for this one run.
        ``batch=True`` coalesces positions with equal simulation signatures
        -- families of at least ``min_group_size``, two by default -- into
        shared-path :class:`~repro.pricing.batch.ProblemBatch` jobs priced by
        ``kernel``; prices are bit-identical to the unbatched run (on the
        simulated backend the batch-aware cost model prices one shared
        simulation per group).  ``progress`` is called once per collected
        position; ``cancel`` (a :class:`CancelToken`) withdraws still-queued
        positions, which the result marks as ``"cancelled before dispatch"``
        errors.  A campaign survives losing its whole pool of real workers:
        the positions still unanswered are sent again to a pool rebuilt on
        the re-dial schedule (:data:`~repro.cluster.backends.base.REDIAL_DELAYS_S`);
        a simulated cluster that loses every worker raises, its loss being
        the simulation's result.
        """
        return self._open_campaign(
            source, strategy=strategy, scheduler=scheduler, store=store,
            batch=batch, kernel=kernel, min_group_size=min_group_size,
            progress=progress, cancel=cancel,
        ).finish()

    def stream(
        self,
        source: Portfolio | Sequence[Job],
        *,
        strategy: str | None = None,
        scheduler: str | Callable[[], DispatchPolicy] | None = None,
        store: Any = None,
        batch: bool | None = None,
        kernel: str | None = None,
        min_group_size: int | None = None,
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
        ``as_completed()`` / ``wait()`` access to individual futures.  The
        keywords are :meth:`run`'s, and iteration, the futures and
        ``result()`` all survive a lost pool as :meth:`run` does.
        """
        return StreamingRun(
            self._open_campaign(
                source, strategy=strategy, scheduler=scheduler, store=store,
                batch=batch, kernel=kernel, min_group_size=min_group_size,
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
        progress: Callable[[StreamProgress], None] | None,
        cancel: CancelToken | None,
    ) -> list[dict[str, float]]:
        """Price (problems x scenarios) as one campaign of grid slices on the backend.

        The campaign is described by the base problems and the scenarios, and
        that is what travels: :func:`~repro.api.plan.build_plan` cuts the
        scenario list into :class:`~repro.pricing.scenarios.ScenarioGrid`
        slices over one base book, each worker expands its slice next to the
        default kernel and answers one record of columns.  No cell problem,
        future or result dictionary exists on the master -- the fold reads
        the result table's price column; a scenario the book cannot realise
        raises here, before a backend is acquired.  Returns one
        ``{scenario name: price}`` mapping per input problem, exactly like
        :func:`repro.pricing.scenarios.price_scenarios` -- bound to the
        lifecycle keywords it is the ``price_grid`` the :mod:`repro.core.risk`
        measures take.
        """
        grid = ScenarioGrid(problems, scenarios, on_missing=on_missing)
        grid.columns()  # what the book cannot realise raises before a backend exists
        campaign = self._open_campaign(grid, progress=progress, cancel=cancel)
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
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> "Any":
        """Full finite-difference Greek ladder of a portfolio, batched.

        :func:`repro.core.risk.portfolio_greeks` with the scenario grid
        priced as a single campaign on the session backend: same
        :class:`~repro.core.risk.PortfolioRiskReport`, bit-identical
        numbers, and the cells parallelise over workers like any other
        batched run.  The campaign takes the session's strategy and
        scheduler; ``progress`` and ``cancel`` are :meth:`run`'s,
        ticking and cancelling scenario cells.
        """
        from repro.core.risk import portfolio_greeks

        return portfolio_greeks(
            portfolio, spot_bump=spot_bump, vol_bump=vol_bump,
            rate_bump=rate_bump, theta_bump=theta_bump,
            price_grid=partial(self._run_scenario_grid, progress=progress, cancel=cancel),
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
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> dict[Any, Any]:
        """Run a risk campaign (historical VaR or a sensitivity sweep), batched.

        ``spot_returns`` runs :func:`repro.core.risk.historical_var` (same
        summary dict); ``param`` + ``bumps`` runs
        :func:`repro.core.risk.sensitivity_sweep` (same ``{bump: value}``
        mapping).  Either way the whole (positions x scenarios) grid prices
        as one batched campaign on the session backend, with the lifecycle
        keywords of :meth:`greeks`.
        """
        from repro.core.risk import historical_var, sensitivity_sweep

        if (spot_returns is None) == (param is None or bumps is None):
            raise ValuationError(
                "risk() needs either spot_returns=... (historical VaR) or "
                "param=... and bumps=... (sensitivity sweep)"
            )
        price_grid = partial(self._run_scenario_grid, progress=progress, cancel=cancel)
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
        cpu_counts = _distinct(cpu_counts, "cpu_counts", _CPU_COUNT)
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
        cpu_counts = _distinct(cpu_counts, "cpu_counts", _CPU_COUNT)
        strategies = _distinct(
            strategies, "strategies", lambda name: self._resolve_strategy(name).name
        )
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
        sim_options = self.backend_options if self.backend == "simulated" else {}
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
            source, executing=False, cost_model=self.cost_model, batch=batch
        ).jobs

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ValuationSession(backend={self.backend!r}, "
            f"strategy={self._resolve_strategy().name!r}, pending={self.n_pending})"
        )


#: a sweep's CPU count: the master and at least one slave
_CPU_COUNT = partial(
    check_count, field="cpu_counts (at least 2 CPUs: 1 master + 1 worker)", minimum=2,
    error=SchedulingError, floats=False,
)


def _distinct(values: Iterable[Any], name: str, check: Callable[[Any], Any]) -> list[Any]:
    """``values`` through ``check``, each once: a table's rows or columns."""
    checked: list[Any] = []
    for value in values:
        value = check(value)
        if value in checked:
            raise SchedulingError(f"{name} lists {value!r} twice")
        checked.append(value)
    if not checked:
        raise SchedulingError(f"{name} must not be empty")
    return checked
