"""Tests of the CRN scenario-grid engine (:mod:`repro.pricing.scenarios`).

Two families:

* **differential** -- the scenario grid must reproduce the serial
  bump-and-revalue oracle of ``tests/oracles`` *bit for bit* on base
  prices, and the assembled finite-difference Greeks must match across
  the antithetic and Sobol axes (the CRN cohorts replay the very same
  seeded draws, so there is no tolerance to hide behind);
* **properties** -- scenario expansion is a row-major partition of the
  (problems x scenarios) grid, and cell coordinates round-trip from the
  flat list back to (problem, scenario).

Uses ``hypothesis`` when installed; otherwise a seeded random sweep
exercises the same properties.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import PricingError
from repro.pricing import PricingProblem, compute_greeks
from repro.pricing.models.black_scholes import BlackScholesModel
from repro.pricing.scenarios import (
    VOL_PARAM,
    Scenario,
    ScenarioCell,
    apply_scenario,
    collect_cell_prices,
    expand_scenarios,
    greek_ladder,
    greeks_from_prices,
    historical_scenarios,
    price_scenarios,
    shock_scenarios,
)
from tests.oracles import serial_greeks

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False


def _mc_problem(
    strike: float = 100.0,
    *,
    seed: int = 0,
    n_paths: int = 20_000,
    antithetic: bool = True,
    rng_kind: str = "pcg64",
    maturity: float = 1.0,
    label: str | None = None,
) -> PricingProblem:
    problem = PricingProblem(label=label or f"call_K{strike:g}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
    problem.set_option("CallEuro", strike=strike, maturity=maturity)
    problem.set_method(
        "MC_European",
        n_paths=n_paths,
        seed=seed,
        antithetic=antithetic,
        rng_kind=rng_kind,
    )
    return problem


def _cf_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"cf_K{strike:g}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


class TestDifferentialGreeks:
    """CRN ladder == serial bump-and-revalue oracle, bit for bit."""

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("rng_kind", ["pcg64", "sobol"])
    def test_ladder_matches_serial_oracle(self, antithetic, rng_kind):
        problem = _mc_problem(
            105.0, seed=11, n_paths=16_000, antithetic=antithetic, rng_kind=rng_kind
        )
        serial = serial_greeks(problem.model, problem.product, problem.method)
        batched = compute_greeks(problem.model, problem.product, problem.method)
        assert batched.price == serial.price  # base draws are literally shared
        assert batched.delta == serial.delta
        assert batched.gamma == serial.gamma
        assert batched.vega == serial.vega
        assert batched.rho == serial.rho
        assert batched.theta == serial.theta

    def test_ladder_prices_match_solo_pricing(self):
        problem = _mc_problem(95.0, seed=3)
        grid = price_scenarios([problem], greek_ladder())[0]
        # every cell equals pricing its bumped problem on its own: CRN comes
        # from shared draw cohorts, not from changing the estimates
        for scenario in greek_ladder():
            solo = apply_scenario(problem, scenario).compute().price
            assert grid[scenario.name] == solo

    def test_closed_form_grid_safe(self):
        grid = price_scenarios([_cf_problem()], greek_ladder())[0]
        report = greeks_from_prices(
            _cf_problem().model, _cf_problem().product, grid
        )
        serial = serial_greeks(
            _cf_problem().model, _cf_problem().product, _cf_problem().method
        )
        assert report.price == serial.price
        assert report.delta == serial.delta
        assert report.theta == serial.theta

    def test_multi_position_grid_matches_per_position(self):
        problems = [_mc_problem(k, seed=5, n_paths=8_000) for k in (90.0, 100.0, 110.0)]
        grids = price_scenarios(problems, greek_ladder())
        for problem, grid in zip(problems, grids):
            solo = price_scenarios([problem], greek_ladder())[0]
            assert grid == solo


class TestThetaRegression:
    """GreekReport.theta: maturity-bump theta, production and oracle."""

    @pytest.mark.parametrize("greeks", [serial_greeks, compute_greeks])
    def test_long_call_theta_negative(self, greeks):
        problem = _mc_problem(100.0, seed=7)
        report = greeks(problem.model, problem.product, problem.method)
        assert report.theta is not None
        assert report.theta < 0.0  # a long vanilla call loses value with time

    def test_theta_close_to_closed_form(self):
        from repro.pricing import ClosedFormCall, EuropeanCall, analytics

        model = BlackScholesModel(spot=100.0, rate=0.045, volatility=0.22)
        report = compute_greeks(
            model, EuropeanCall(strike=100.0, maturity=1.0), ClosedFormCall(),
            theta_bump=1e-5,
        )
        s, k, r, sigma, t = 100.0, 100.0, 0.045, 0.22, 1.0
        exact = float(analytics.bs_call_theta(s, k, r, sigma, t))
        assert report.theta == pytest.approx(exact, rel=1e-3)

    def test_theta_step_clamped_near_expiry(self):
        # a product one hour from expiry cannot be rolled a whole day down
        problem = _mc_problem(100.0, maturity=1.0 / (365.0 * 24.0))
        report = compute_greeks(problem.model, problem.product, problem.method)
        assert report.theta is not None  # clamped step keeps maturity positive
        assert report == serial_greeks(problem.model, problem.product, problem.method)


class TestScenarioValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(PricingError):
            Scenario(name="")

    def test_unknown_target_rejected(self):
        with pytest.raises(PricingError):
            Scenario(name="x", target="quantum")

    def test_model_scenario_needs_param(self):
        with pytest.raises(PricingError):
            Scenario(name="x", target="model")

    def test_maturity_scenario_needs_positive_step(self):
        with pytest.raises(PricingError):
            Scenario(name="x", target="maturity", bump=0.0)

    @pytest.mark.parametrize("bump", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bump_rejected(self, bump):
        # used to surface only after simulation, as a non-finite price
        with pytest.raises(PricingError, match="finite bump"):
            Scenario(name="x", target="model", param="spot", bump=bump, relative=True)
        with pytest.raises(PricingError, match="hist0001"):
            historical_scenarios([0.01, bump])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PricingError):
            expand_scenarios(
                [_cf_problem()], [Scenario(name="a"), Scenario(name="a")]
            )

    def test_unknown_on_missing_rejected(self):
        with pytest.raises(PricingError):
            expand_scenarios([_cf_problem()], [Scenario(name="base")], on_missing="drop")

    def test_unresolvable_vol_param_raises(self):
        scenario = Scenario(name="v", target="model", param=VOL_PARAM, bump=0.01)
        problem = _cf_problem()
        bumped = apply_scenario(problem, scenario)  # BS model resolves fine
        assert bumped is not problem

    @pytest.mark.parametrize("on_missing", ["raise", "skip", "base"])
    @pytest.mark.parametrize("scenario", [
        Scenario(name="crash", target="model", param="spot", bump=-1.5, relative=True),
        Scenario(name="novol", target="model", param=VOL_PARAM, bump=-0.5),
    ])
    def test_invalid_bump_raises_under_every_on_missing(self, scenario, on_missing):
        """Only "the model has no such parameter" is unrealisable; a bump out of
        the model's domain used to fall back to the base state silently."""
        param = "spot" if scenario.name == "crash" else "volatility"
        with pytest.raises(PricingError, match=f"{scenario.name}.*{param}"):
            expand_scenarios(
                [_cf_problem()], [Scenario(name="base"), scenario], on_missing=on_missing
            )
        with pytest.raises(PricingError, match=f"{scenario.name}.*{param}"):
            price_scenarios([_cf_problem()], [scenario], on_missing=on_missing)
        with pytest.raises(PricingError, match=f"{scenario.name}.*{param}"):
            apply_scenario(_cf_problem(), scenario)

    def test_a_missing_parameter_is_still_skipped_or_based(self):
        bad = Scenario(name="bad", target="model", param="skewness", bump=0.1)
        problem = _cf_problem()
        assert expand_scenarios([problem], [bad], on_missing="skip") == ([], [])
        assert expand_scenarios([problem], [bad], on_missing="base")[0] == [problem]
        with pytest.raises(PricingError, match="no parameter 'skewness'"):
            expand_scenarios([problem], [bad])

    def test_base_scenario_returns_original_instance(self):
        problem = _cf_problem()
        assert apply_scenario(problem, Scenario(name="base")) is problem


class TestStandardSets:
    def test_greek_ladder_names(self):
        names = [s.name for s in greek_ladder()]
        assert names == ["base", "spot_up", "spot_down", "vol_up", "vol_down",
                         "rate_up", "rate_down", "theta_down"]

    def test_greek_ladder_without_a_vol_param_has_no_vega_axis(self):
        names = [s.name for s in greek_ladder(vol_param=None)]
        assert names == ["base", "spot_up", "spot_down", "rate_up", "rate_down", "theta_down"]

    def test_shock_scenarios_keep_duplicate_bumps_distinct(self):
        scenarios = shock_scenarios([-0.1, 0.0, 0.1, 0.1])
        assert len({s.name for s in scenarios}) == 4

    @pytest.mark.parametrize("name", ["spot_bump", "vol_bump", "rate_bump", "theta_bump"])
    @pytest.mark.parametrize("bump", [0.0, float("nan"), float("inf")])
    def test_greek_ladder_rejects_degenerate_bumps(self, name, bump):
        # the assembled Greeks divide by every bump: 0 was a ZeroDivisionError
        with pytest.raises(PricingError, match=name):
            greek_ladder(**{name: bump})
        problem = _cf_problem()
        with pytest.raises(PricingError, match=name):
            compute_greeks(problem.model, problem.product, problem.method, **{name: bump})

    def test_historical_scenarios_lead_with_base(self):
        scenarios = historical_scenarios([0.01, -0.02])
        assert scenarios[0].name == "base"
        assert len(scenarios) == 3


# -- expansion properties ---------------------------------------------------------

_SCENARIO_POOL = (
    Scenario(name="base"),
    Scenario(name="su", target="model", param="spot", bump=0.01, relative=True),
    Scenario(name="sd", target="model", param="spot", bump=-0.01, relative=True),
    Scenario(name="vu", target="model", param=VOL_PARAM, bump=0.01),
    Scenario(name="ru", target="model", param="rate", bump=1e-4),
    Scenario(name="td", target="maturity", bump=1.0 / 365.0),
    Scenario(name="bad", target="model", param="skewness", bump=0.1),
)


def _check_expansion(n_problems: int, scenario_picks: list[int], on_missing: str):
    problems = [_cf_problem(90.0 + i) for i in range(n_problems)]
    scenarios = [_SCENARIO_POOL[p] for p in sorted(set(scenario_picks))]
    has_bad = any(s.name == "bad" for s in scenarios)
    if has_bad and on_missing == "raise" and n_problems:  # no problems, no cells
        with pytest.raises(PricingError):
            expand_scenarios(problems, scenarios, on_missing=on_missing)
        return
    expanded, cells = expand_scenarios(problems, scenarios, on_missing=on_missing)
    assert len(expanded) == len(cells)

    # partition: every realisable (problem, scenario) cell appears exactly once
    seen = {(cell.problem_index, cell.scenario_index) for cell in cells}
    assert len(seen) == len(cells)
    expected = {
        (i, j)
        for i in range(n_problems)
        for j, scenario in enumerate(scenarios)
        if not (scenario.name == "bad" and on_missing == "skip")
    }
    assert seen == expected

    # row-major: cells sort identically to their flat emission order
    assert cells == sorted(cells, key=lambda c: (c.problem_index, c.scenario_index))

    # round-trip: each flat problem is its coordinates' scenario applied to
    # its coordinates' input (modulo the on_missing="base" fallback)
    for flat, cell in zip(expanded, cells):
        scenario = scenarios[cell.scenario_index]
        source = problems[cell.problem_index]
        if scenario.name == "bad":
            assert flat is source  # on_missing="base" priced the unbumped problem
        elif scenario.target == "base":
            assert flat is source
        else:
            assert flat.label == f"{source.label}|{scenario.name}"

    # collect_cell_prices inverts the flattening
    grid = collect_cell_prices(
        [float(i) for i in range(len(cells))], cells, scenarios, n_problems
    )
    for flat_index, cell in enumerate(cells):
        name = scenarios[cell.scenario_index].name
        assert grid[cell.problem_index][name] == float(flat_index)


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        n_problems=st.integers(min_value=0, max_value=5),
        scenario_picks=st.lists(
            st.integers(min_value=0, max_value=len(_SCENARIO_POOL) - 1),
            min_size=1, max_size=len(_SCENARIO_POOL),
        ),
        on_missing=st.sampled_from(["raise", "skip", "base"]),
    )
    def test_expansion_properties(n_problems, scenario_picks, on_missing):
        _check_expansion(n_problems, scenario_picks, on_missing)

else:  # pragma: no cover - exercised only without hypothesis

    def test_expansion_properties():
        rng = random.Random(2026)
        for _ in range(60):
            _check_expansion(
                rng.randrange(6),
                [rng.randrange(len(_SCENARIO_POOL)) for _ in range(rng.randrange(1, 8))],
                rng.choice(["raise", "skip", "base"]),
            )


class TestCollectValidation:
    def test_price_count_must_match_cells(self):
        with pytest.raises(PricingError):
            collect_cell_prices([1.0], [], [Scenario(name="base")], 1)

    def test_missing_scenarios_assemble_to_none(self):
        model = BlackScholesModel(spot=100.0, rate=0.045, volatility=0.22)
        from repro.pricing import EuropeanCall

        product = EuropeanCall(strike=100.0, maturity=1.0)
        report = greeks_from_prices(
            model, product, {"base": 10.0, "spot_up": 10.6, "spot_down": 9.4}
        )
        assert report.vega is None
        assert report.rho is None
        assert report.theta is None
        assert report.delta == pytest.approx((10.6 - 9.4) / 2.0)
