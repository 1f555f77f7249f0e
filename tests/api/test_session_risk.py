"""``session.greeks`` / ``session.risk`` are the :mod:`repro.core.risk`
measures with the grid priced on the session backend: same numbers (``==``),
same errors, and the run options of ``config`` reach the dispatched jobs."""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.api.plan import build_plan
from repro.cluster.worker import spawn_local_workers
from repro.core.portfolio import Portfolio
from repro.core.risk import historical_var, portfolio_greeks, sensitivity_sweep
from repro.errors import PortfolioError, PricingError, ValuationError
from repro.pricing.kernel import DEFAULT_KERNEL
from repro.pricing.scenarios import expand_scenarios, greek_ladder, historical_scenarios
from repro.pricing.scenarios import ScenarioGrid
from tests.oracles.books import mixed_book

RETURNS = [0.01, -0.02, 0.004, -0.013, 0.007, -0.03, 0.011, -0.006]


@pytest.fixture(scope="module")
def loopback_pool():
    with spawn_local_workers(2) as pool:
        yield pool


@pytest.fixture(params=["local", "multiprocessing", "remote"])
def session(request) -> ValuationSession:
    if request.param == "remote":
        hosts = request.getfixturevalue("loopback_pool").hosts
        return ValuationSession(backend="remote", backend_options={"hosts": hosts})
    return ValuationSession(backend=request.param, n_workers=2)


class TestSameNumbers:
    def test_greeks(self, session):
        report = session.greeks(mixed_book(), spot_bump=0.02)
        reference = portfolio_greeks(mixed_book(), spot_bump=0.02)
        assert report == reference  # dataclass equality: field by field, every position
        assert report.positions[-1].vega is None  # no volatility-like parameter

    def test_historical_var(self, session):
        var = session.risk(mixed_book(), spot_returns=RETURNS, confidence=0.75)
        assert var == historical_var(mixed_book(), RETURNS, confidence=0.75)

    def test_sensitivity_sweep(self, session):
        bumps = [-0.02, 0.0, 0.02]
        surface = session.risk(
            mixed_book(), param="volatility", bumps=bumps, relative=False
        )
        assert surface == sensitivity_sweep(
            mixed_book(), "volatility", bumps, relative=False
        )


class TestSameErrors:
    """One body per measure: the session raises what the module function does."""

    @pytest.fixture
    def local(self) -> ValuationSession:
        return ValuationSession(backend="local")

    def test_a_bump_out_of_the_models_domain(self, session):
        # raised on the master, before a backend exists -- never a base-state cell
        with pytest.raises(PricingError, match="hist0001.*'spot'"):
            session.risk(mixed_book(), spot_returns=[0.01, -1.5, -0.02], confidence=0.75)
        with pytest.raises(PricingError, match=r"volatility\[0\].*'volatility'"):
            session.risk(mixed_book(), param="volatility", bumps=[-0.5, 0.0], relative=False)

    def test_empty_portfolio(self, local):
        empty = Portfolio(name="empty")
        with pytest.raises(PortfolioError):
            local.greeks(empty)
        with pytest.raises(PortfolioError):
            local.risk(empty, spot_returns=RETURNS)
        with pytest.raises(PortfolioError):
            local.risk(empty, param="spot", bumps=[0.01])

    def test_var_validation(self, local):
        with pytest.raises(PortfolioError):
            local.risk(mixed_book(), spot_returns=RETURNS, confidence=0.3)
        with pytest.raises(PortfolioError):
            local.risk(mixed_book(), spot_returns=[])

    def test_measure_selection_stays_a_session_error(self, local):
        with pytest.raises(ValuationError):
            local.risk(mixed_book())
        with pytest.raises(ValuationError):
            local.risk(mixed_book(), spot_returns=RETURNS, param="spot", bumps=[0.01])


def test_cell_futures_carry_the_labels_of_the_expanded_problems(session):
    """No cell problem exists on the master, yet every progress event and
    price result is labelled as the expanded cell would have been."""
    book = mixed_book()
    ladder = greek_ladder()
    expanded, _cells = expand_scenarios(
        [position.problem for position in book], ladder, on_missing="skip"
    )
    events = []
    session.greeks(book, progress=events.append)
    assert sorted(event.label for event in events) == sorted(p.label for p in expanded)
    assert {event.label for event in events} >= {"mc_K95", "mc_K95|theta_down", "cf_put|vol_up"}
    assert "sigma_only|vol_up" not in {event.label for event in events}  # skipped cell
    assert {(event.result.label, event.result.method) for event in events} == {
        (problem.label, problem.method_name) for problem in expanded
    }
    assert [event.done for event in events] == list(range(1, len(expanded) + 1))

    # on_missing="base": an unrealisable cell keeps the base label it is priced under
    events.clear()
    session.risk(book, param="volatility", bumps=[0.01], relative=False,
                 progress=events.append)
    assert sorted(event.label for event in events) == [
        "cf_put|volatility[0]+0.01", "mc_K105|volatility[0]+0.01",
        "mc_K95|volatility[0]+0.01", "sigma_only",
    ]


def test_the_futures_of_a_risk_campaign_are_labelled_like_the_expanded_cells():
    book = mixed_book()
    grid = ScenarioGrid(
        [position.problem for position in book], historical_scenarios(RETURNS),
        on_missing="base",
    )
    campaign = ValuationSession(backend="local")._open_campaign(grid)
    jobs = campaign.jobs
    assert [future.job_id for future in jobs] == [c for column in grid.columns() for c in column]
    labels = {future.job_id: future.label for future in jobs}
    n = grid.n_scenarios
    assert labels[0] == book.positions[0].problem.label  # the base scenario keeps the base label
    assert labels[1] == f"{book.positions[0].problem.label}|hist0000"
    assert labels[2 * n + 3] == f"{book.positions[2].problem.label}|hist0002"
    assert {future.method for future in jobs} == {p.problem.method_name for p in book}
    assert not jobs[5].done() and jobs[5].price_result() is None
    campaign.finish()
    assert all(future.done() and future.result()["price"] > 0 for future in jobs)
    assert jobs[5].price_result().label == labels[jobs[5].job_id]


def test_a_risk_campaign_prices_its_slices_with_the_default_kernel(monkeypatch):
    session = ValuationSession(backend="local")
    dispatched: list[ScenarioGrid] = []

    def spy(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        assert all(isinstance(job.problem, ScenarioGrid) for job in plan.jobs)
        dispatched.extend(job.problem for job in plan.jobs)
        return plan

    monkeypatch.setattr("repro.api.session.build_plan", spy)
    greeks = session.greeks(mixed_book())
    var = session.risk(mixed_book(), spot_returns=RETURNS, confidence=0.75)
    assert dispatched and {part.kernel for part in dispatched} == {DEFAULT_KERNEL}
    # the stacked kernel replays the serial references' IEEE operation sequence
    assert greeks == portfolio_greeks(mixed_book())
    assert var == historical_var(mixed_book(), RETURNS, confidence=0.75)
