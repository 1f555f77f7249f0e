"""repro -- a risk-management benchmark for testing parallel architectures.

This package is a from-scratch Python reproduction of the system described in
*"Using Premia and Nsp for Constructing a Risk Management Benchmark for
Testing Parallel Architecture"* (Chancelier, Lapeyre, Lelong).  It provides:

``repro.api``
    The **unified entry point**: the :class:`~repro.api.session.ValuationSession`
    facade, configured by keywords (a backend by name or ``BackendSpec``),
    and a normalized result hierarchy, unifying pricing,
    portfolio runs, batch submission and cluster sweeps the way Premia's
    ``PremiaModel`` object unified pricing.

``repro.pricing``
    A self-contained option pricing library (the *Premia* substitute):
    models, products and numerical methods (closed form, PDE, trees,
    Monte-Carlo, Longstaff-Schwartz, Fourier/COS), plus the
    :class:`~repro.pricing.engine.PricingProblem` abstraction mirroring
    Premia's ``PremiaModel`` objects.

``repro.serial``
    Architecture-independent serialization of pricing problems (the *Nsp*
    ``Serial``/XDR substitute) including ``save``/``load``/``sload`` and
    compressed serial buffers.

``repro.cluster``
    The master/worker execution backends (the MPI substitute),
    resolvable by registered name (:func:`~repro.cluster.backends.list_backends`
    enumerates them; the built-ins run in-process, on local worker
    processes, on remote ``repro-worker`` TCP servers, and on a
    discrete-event *simulated cluster* -- nodes, Gigabit-Ethernet-like
    network, NFS server with cache -- used to reproduce the paper's speedup
    tables at laptop scale).

``repro.core``
    The paper's contribution: portfolio construction, the three
    problem-transmission strategies (*full load*, *NFS*, *serialized load*),
    the Robin-Hood master/worker scheduler and its extensions, the speedup
    harness, the non-regression workload and portfolio risk aggregation.

Quickstart
----------

One session object drives the whole workflow:

>>> import repro
>>> session = repro.ValuationSession(backend="simulated",
...                                  strategy="serialized_load")
>>> result = session.price(
...     model="BlackScholes1D", option="CallEuro", method="CF_Call",
...     model_params={"spot": 100.0, "rate": 0.05, "volatility": 0.2},
...     option_params={"strike": 100.0, "maturity": 1.0})
>>> round(result.price, 4)
10.4506
>>> portfolio = repro.build_toy_portfolio(n_options=100)
>>> sweep = session.sweep(portfolio, cpu_counts=[2, 4, 8])
>>> sweep.cpu_counts()
[2, 4, 8]

The Premia-style :class:`~repro.pricing.engine.PricingProblem` spelling from
the paper's scripts still works unchanged:

>>> p = repro.PricingProblem()
>>> p.set_asset("equity")
>>> p.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
>>> p.set_option("CallEuro", strike=100.0, maturity=1.0)
>>> p.set_method("CF_Call")
>>> _ = p.compute()
>>> round(p.get_method_results().price, 4)
10.4506

Every name below is re-exported lazily: ``import repro`` stays fast (only the
version is loaded eagerly) and subpackages are imported on first attribute
access.
"""

from repro._version import __version__

#: top-level name -> defining module, resolved lazily by ``__getattr__``
_LAZY_EXPORTS = {
    # unified API (repro.api)
    "ValuationSession": "repro.api",
    "PricingFuture": "repro.api",
    "JobSet": "repro.api",
    "StreamingRun": "repro.api",
    "StreamProgress": "repro.api",
    "CancelToken": "repro.api",
    "BackendSpec": "repro.api",
    "ValuationResult": "repro.api",
    "PriceResult": "repro.api",
    "RunResult": "repro.api",
    "SweepResult": "repro.api",
    "ComparisonResult": "repro.api",
    # pricing (repro.pricing)
    "PricingProblem": "repro.pricing",
    "premia_create": "repro.pricing",
    "ResultCache": "repro.pricing",
    "problem_digest": "repro.pricing",
    "ProblemBatch": "repro.pricing",
    "plan_batches": "repro.pricing",
    "price_problems": "repro.pricing",
    "list_models": "repro.pricing",
    "list_products": "repro.pricing",
    "list_methods": "repro.pricing",
    "compatible_methods": "repro.pricing",
    # serialization (repro.serial)
    "save": "repro.serial",
    "load": "repro.serial",
    "sload": "repro.serial",
    "serialize": "repro.serial",
    "unserialize": "repro.serial",
    # cluster backends (repro.cluster.backends)
    "create_backend": "repro.cluster.backends",
    "list_backends": "repro.cluster.backends",
    "register_backend": "repro.cluster.backends",
    "SequentialBackend": "repro.cluster.backends",
    "MultiprocessingBackend": "repro.cluster.backends",
    # remote worker pool (repro.cluster.worker)
    "spawn_local_workers": "repro.cluster.worker",
    "LocalWorkerPool": "repro.cluster.worker",
    # benchmark core (repro.core)
    "Portfolio": "repro.core",
    "Position": "repro.core",
    "build_toy_portfolio": "repro.core",
    "build_realistic_portfolio": "repro.core",
    "build_regression_portfolio": "repro.core",
    "RunReport": "repro.core",
    "SpeedupTable": "repro.core",
    "format_comparison_table": "repro.core",
    "portfolio_value": "repro.core",
    # subpackages exposed as attributes
    "errors": "repro",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str):
    """Resolve re-exported names on first access (PEP 562 lazy imports)."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    if module_name == "repro":
        value = importlib.import_module(f"repro.{name}")
    else:
        value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
