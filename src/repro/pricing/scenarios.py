"""Scenario-grid planning: common-random-numbers bump campaigns on the batch engine.

The paper's motivating workload is daily portfolio risk -- "price the
contingent claims for various values of these model parameters ... a huge
number of atomic computations (around 10^6)".  Bump-and-revalue risk is a
*scenario grid*: (portfolio positions) x (bumped market states), where every
cell prices the same product under a slightly perturbed model.  Priced
naively, every cell re-simulates its own path set; priced through this
module, the grid is expanded into :func:`~repro.pricing.batch.plan_batches`
groups tagged with their scenario coordinates and evaluated by
``price_problems(kernel="stacked")`` -- and because the stacked kernel's
draw cohorts (:func:`repro.pricing.kernel.run_groups`) key on the *method*
(rng kind, seed, antithetic, path counts) and the time grid but **not** on
the model parameters of stackable schemes, every bumped variant of a
position lands in the same cohort as its base and consumes the **one**
shared normal stream with its own drift/vol broadcast.

Common random numbers therefore hold *by construction*: the bumped and base
estimates differ only in the deterministic per-group arithmetic applied to
one shared draw, not by the convention that re-seeding reproduces the same
stream.  A full Greek ladder over a single-model book collapses to two
simulations (one cohort for the spot/vol/rate bumps, one for the
shorter-maturity theta scenario, which changes the time grid) instead of
one simulation per (position, bump) cell.

Building blocks:

* :class:`Scenario` -- one named market perturbation (a model-parameter
  bump, a maturity roll-down, or the base state);
* :func:`greek_ladder` / :func:`shock_scenarios` /
  :func:`historical_scenarios` -- standard scenario sets;
* :func:`apply_scenario` / :func:`expand_scenarios` -- expand (problems x
  scenarios) into a flat problem list plus :class:`ScenarioCell`
  coordinates (the round-trip from flat index back to (position, scenario)
  is what the property tests pin);
* :class:`ScenarioGrid` -- the grid as a dispatch unit: a base book and a
  slice of scenarios that a cluster worker expands and prices itself, so a
  risk campaign travels as its description instead of as its cells;
* :func:`price_scenarios` -- a whole grid computed in this process
  (:meth:`ScenarioGrid.compute`: every cell is its own signature group, and
  the stacked kernel clusters them into shared-draw cohorts), folded to one
  ``{scenario name: price}`` mapping per input problem;
* :func:`greeks_from_prices` -- assemble finite-difference Greeks from a
  priced ladder with exactly the IEEE expressions of the bump-and-revalue
  reference in ``tests/oracles``, so the Greeks match that oracle bit for
  bit when the prices do.

This module is under the repro-lint determinism contract: it never reads a
wall clock or an entropy source.  All randomness is the seeded generators
of the methods it prices; elapsed-time stamping happens inside the
Monte-Carlo layer, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.errors import PricingError, SerializationError
from repro.pricing.batch import _Digests, _leg_digest, answer_members, price_problems
from repro.pricing.book import _is_count, read_book, write_book
from repro.pricing.cache import legs_digest
from repro.pricing.engine import PricingProblem
from repro.pricing.greeks import GreekReport, _vol_param, bump_model, maturity_step
from repro.pricing.kernel import resolve_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pricing.methods.base import ResultColumns
    from repro.pricing.models.base import Model
    from repro.pricing.products.base import Product

__all__ = [
    "VOL_PARAM",
    "Scenario",
    "ScenarioCell",
    "greek_ladder",
    "shock_scenarios",
    "historical_scenarios",
    "apply_scenario",
    "expand_scenarios",
    "ScenarioGrid",
    "collect_cell_prices",
    "price_scenarios",
    "maturity_step",
    "greeks_from_prices",
]

#: symbolic volatility parameter: resolved per model against the
#: volatility-like names of :mod:`repro.pricing.greeks` at expansion time,
#: so one ladder serves a book mixing 1d, basket and stochastic-vol models
VOL_PARAM = "__vol__"

#: scenario targets: the unbumped state, a model-parameter bump, or a
#: calendar roll-down of the product maturity (the theta scenario)
_TARGETS = ("base", "model", "maturity")

#: how expansion treats a scenario a problem cannot realise (see
#: :func:`expand_scenarios`)
_ON_MISSING = ("raise", "skip", "base")


@dataclass(frozen=True)
class Scenario:
    """One named perturbation of the market state.

    ``target="base"`` is the unbumped state (the cell reuses the original
    problem instance).  ``target="model"`` bumps one model parameter --
    ``param`` may be the symbolic :data:`VOL_PARAM`, resolved per model.
    ``target="maturity"`` rolls the product maturity *down* by
    ``maturity_step(maturity, bump)`` (clamped so maturity stays positive),
    which is the calendar-time theta scenario.
    """

    name: str
    target: str = "base"
    param: str | None = None
    bump: float = 0.0
    relative: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise PricingError("a scenario needs a non-empty name")
        if self.target not in _TARGETS:
            raise PricingError(
                f"unknown scenario target {self.target!r}; expected one of {_TARGETS}"
            )
        if self.target == "model" and not self.param:
            raise PricingError("a model scenario needs the bumped parameter name")
        if not math.isfinite(self.bump):
            raise PricingError(
                f"scenario {self.name!r} needs a finite bump, got {self.bump!r}"
            )
        if self.target == "maturity" and not self.bump > 0.0:
            raise PricingError("a maturity scenario needs a positive calendar step")


@dataclass(frozen=True)
class ScenarioCell:
    """Coordinates of one expanded problem: (input problem, scenario)."""

    problem_index: int
    scenario_index: int


# -- standard scenario sets ------------------------------------------------------


def greek_ladder(
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
    vol_param: str | None = VOL_PARAM,
) -> tuple[Scenario, ...]:
    """The bump set behind a full finite-difference Greek report.

    Base + up/down spot (relative), up/down volatility (absolute, on
    ``vol_param``; pass ``None`` to drop the vega axis entirely), up/down
    rate (absolute) and the one-sided maturity roll-down for theta.  Every
    bump is a finite-difference step the assembled Greeks divide by, so each
    must be finite and non-zero.
    """
    for name, bump in (("spot_bump", spot_bump), ("vol_bump", vol_bump),
                       ("rate_bump", rate_bump), ("theta_bump", theta_bump)):
        if not math.isfinite(bump) or bump == 0.0:
            raise PricingError(f"{name} must be finite and non-zero, got {bump!r}")
    scenarios = [
        Scenario(name="base"),
        Scenario(name="spot_up", target="model", param="spot",
                 bump=spot_bump, relative=True),
        Scenario(name="spot_down", target="model", param="spot",
                 bump=-spot_bump, relative=True),
    ]
    if vol_param is not None:
        scenarios += [
            Scenario(name="vol_up", target="model", param=vol_param, bump=vol_bump),
            Scenario(name="vol_down", target="model", param=vol_param, bump=-vol_bump),
        ]
    scenarios += [
        Scenario(name="rate_up", target="model", param="rate", bump=rate_bump),
        Scenario(name="rate_down", target="model", param="rate", bump=-rate_bump),
        Scenario(name="theta_down", target="maturity", bump=theta_bump),
    ]
    return tuple(scenarios)


def shock_scenarios(
    bumps: Sequence[float], param: str = "spot", relative: bool = True
) -> tuple[Scenario, ...]:
    """One scenario per bump of one model parameter (sensitivity surfaces).

    Names carry the grid index so duplicate bump values stay distinct cells.
    """
    return tuple(
        Scenario(name=f"{param}[{index}]{float(bump):+g}", target="model",
                 param=param, bump=float(bump), relative=relative)
        for index, bump in enumerate(bumps)
    )


def historical_scenarios(spot_returns: Sequence[float]) -> tuple[Scenario, ...]:
    """Base + one relative spot shock per historical return (VaR campaigns)."""
    shocks = tuple(
        Scenario(name=f"hist{index:04d}", target="model", param="spot",
                 bump=float(shock), relative=True)
        for index, shock in enumerate(spot_returns)
    )
    return (Scenario(name="base"),) + shocks


# -- expansion -------------------------------------------------------------------


def apply_scenario(problem: PricingProblem, scenario: Scenario) -> PricingProblem:
    """The problem priced under ``scenario``.

    The base scenario returns the *original instance* (its result slot is
    where ``price_problems`` stores the base price); bump scenarios return
    a fresh clone sharing the unbumped components, so the input problem is
    never mutated.  Raises :class:`~repro.errors.PricingError` when the
    problem cannot realise the scenario (unknown model parameter, no
    volatility-like parameter for :data:`VOL_PARAM`) or the bump leaves the
    model's domain (a non-positive spot or volatility).
    """
    _check_grid([problem], [scenario], "raise")
    cell = _apply(problem, scenario, _Bumps())
    if cell is None:
        raise _unrealisable(problem.model, scenario)
    return cell


def _bumped_param(model: "Model", scenario: Scenario) -> str | None:
    """The parameter of ``model`` a ``target="model"`` scenario bumps, or
    ``None`` when the model has none: the one realisability predicate."""
    if scenario.param == VOL_PARAM:
        return _vol_param(model)
    return scenario.param if scenario.param in model.to_params() else None


def _unrealisable(model: "Model", scenario: Scenario) -> PricingError:
    if scenario.param == VOL_PARAM:
        return PricingError(
            f"model {model.model_name!r} has no volatility-like parameter to bump"
        )
    return PricingError(
        f"model {model.model_name!r} has no parameter {scenario.param!r}; "
        f"available: {sorted(model.to_params())}"
    )


class _Bumps:
    """The bumped models of one grid, one per (base model parameters, scenario).

    Whether a problem can realise a model scenario depends only on its
    model's parameter names, and the bumped model only on its parameter
    values: positions whose base models have equal parameters share **one**
    answer and one bumped model object, so a book on one underlying costs one
    model per scenario, not one per cell.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], "Model | None"] = {}

    def get(self, model: "Model", scenario: Scenario) -> "Model | None":
        """``model`` under ``scenario``; ``None`` when it has no such parameter.

        A bump the model has the parameter for but cannot take (spot or
        volatility driven non-positive) is an error under every
        ``on_missing``: falling back to the base state would report the
        unbumped value as the scenario's.
        """
        key = (model.param_digest(), scenario.name)
        if key not in self._memo:
            param = _bumped_param(model, scenario)
            if param is None:
                self._memo[key] = None
            else:
                try:
                    self._memo[key] = bump_model(
                        model, param, scenario.bump, relative=scenario.relative
                    )
                except PricingError as exc:
                    raise PricingError(
                        f"scenario {scenario.name!r} bumps parameter {param!r} of "
                        f"model {model.model_name!r} by {scenario.bump!r} into an "
                        f"invalid state: {exc}"
                    ) from exc
        return self._memo[key]


def _cell_label(problem: PricingProblem, scenario: Scenario) -> str:
    return f"{problem.label}|{scenario.name}" if problem.label else scenario.name


def _cell_legs(
    problem: PricingProblem, scenario: Scenario, bumps: _Bumps
) -> "tuple[Model, Product] | None":
    """The (model, product) a cell prices; ``None`` when ``problem`` cannot
    realise ``scenario``."""
    if scenario.target == "base":
        return problem.model, problem.product
    if scenario.target == "model":
        bumped = bumps.get(problem.model, scenario)
        return None if bumped is None else (bumped, problem.product)
    # maturity roll-down: clone the product one calendar step closer to expiry
    product = problem.product
    params = product.to_params()
    params["maturity"] = product.maturity - maturity_step(product.maturity, scenario.bump)
    return problem.model, type(product).from_params(params)


def _apply(
    problem: PricingProblem, scenario: Scenario, bumps: _Bumps
) -> PricingProblem | None:
    """The cell's problem; ``None`` when ``problem`` cannot realise ``scenario``."""
    if scenario.target == "base":
        return problem
    legs = _cell_legs(problem, scenario, bumps)
    if legs is None:
        return None
    return PricingProblem.from_instances(
        *legs, problem.method, asset=problem.asset, label=_cell_label(problem, scenario)
    )


def _check_grid(
    problems: Sequence[PricingProblem], scenarios: Sequence[Scenario], on_missing: str
) -> None:
    if on_missing not in _ON_MISSING:
        raise PricingError(
            f"unknown on_missing {on_missing!r}; expected one of {_ON_MISSING}"
        )
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise PricingError("scenario names must be unique within one grid")
    if not all(map(attrgetter("is_complete"), problems)):
        raise PricingError("scenario expansion needs fully-specified problems")


def expand_scenarios(
    problems: Sequence[PricingProblem],
    scenarios: Sequence[Scenario],
    on_missing: str = "raise",
) -> tuple[list[PricingProblem], list[ScenarioCell]]:
    """Expand (problems x scenarios) into a flat list plus cell coordinates.

    Cells are emitted problem-major then scenario-major, so the flat list is
    a row-major walk of the grid.  ``on_missing`` controls cells whose
    scenario the problem cannot realise (its model has no such parameter):
    ``"raise"`` raises, ``"skip"`` drops the cell (its Greek assembles to
    ``None``), ``"base"`` prices the *unbumped* problem in the cell
    (mixed-portfolio sweeps and VaR keep every position's value in every
    scenario total).  A bump that drives a parameter the model *has* out of
    its domain raises under every ``on_missing`` (see :class:`_Bumps`).

    Within one scenario, positions whose base models have equal parameters
    share **one** bumped model object (as :func:`apply_scenario` shares the
    product and the method).
    """
    _check_grid(problems, scenarios, on_missing)
    bumps = _Bumps()
    expanded: list[PricingProblem] = []
    cells: list[ScenarioCell] = []
    for i, problem in enumerate(problems):
        for j, scenario in enumerate(scenarios):
            cell_problem = _apply(problem, scenario, bumps)
            if cell_problem is None:
                if on_missing == "raise":
                    raise _unrealisable(problem.model, scenario)
                if on_missing == "skip":
                    continue
                cell_problem = problem
            expanded.append(cell_problem)
            cells.append(ScenarioCell(problem_index=i, scenario_index=j))
    return expanded, cells


# -- the grid as a dispatch unit --------------------------------------------------


def _checked_rows(rows: Any, n_problems: int) -> np.ndarray:
    """``rows`` as the int64 column a grid keeps and writes."""
    try:
        column = np.asarray(rows)
    except ValueError:  # a ragged list
        column = np.empty(0)
    if column.dtype.kind in "iu" and column.shape == (n_problems,):
        column = column.astype(np.int64)
        values = column.tolist()  # checked in C passes: no array operation a check
        if min(values) >= 0 and len(set(values)) == n_problems:
            return column
    raise PricingError("'rows' must name one distinct non-negative row per base problem")


class _Book:
    """The base problems of a grid and their bytes, made once however many
    slices re-send them (the paper's ``sload`` argument, as for
    :meth:`repro.cluster.backends.Job.wire_bytes`)."""

    __slots__ = ("problems", "_wire")

    def __init__(self, problems: Sequence[PricingProblem], wire: bytes | None = None):
        self.problems = list(problems)
        self._wire = wire

    def wire_bytes(self) -> bytes:
        if self._wire is None:
            self._wire = write_book(self.problems)
        return self._wire


class ScenarioGrid:
    """(base problems) x (a slice of scenarios), priced next to the kernel.

    A risk campaign is described by its base book and its scenario list;
    the (problems x scenarios) cells only need to exist where they are
    priced.  A grid is what the master ships instead of the cells: the base
    book (bytes shared by every slice of one campaign), the slice's
    :class:`Scenario` records and the slice's ``offset`` in the campaign's
    full list of ``n_scenarios``.  :meth:`compute` expands and prices on the
    worker and answers one record of columns keyed by cell id, a cell's id being
    ``row * n_scenarios + scenario_index`` in the full grid.  A base problem's
    row is its index, unless ``rows`` names the rows: a grid may then hold any
    subset of a campaign's positions -- a *book slice* is some positions
    under the base scenario alone, each cell's id the position's own.
    ``answered`` lists cells the master already holds (run-cache hits) or no
    longer wants (:meth:`leave_out`): they are left out of the pricing, which
    never changes the other cells' prices.

    The master works on the same object without materialising a cell:
    :meth:`columns` (which cells exist, decided per distinct base model),
    :meth:`describe`, :meth:`cell_digest` and :meth:`slice`.
    """

    def __init__(
        self,
        problems: "Sequence[PricingProblem] | _Book",
        scenarios: Sequence[Scenario],
        *,
        on_missing: str = "raise",
        kernel: str | None = None,
        offset: int = 0,
        n_scenarios: int | None = None,
        answered: Sequence[int] = (),
        rows: "Sequence[int] | np.ndarray | None" = None,
    ):
        book = problems if isinstance(problems, _Book) else _Book(problems)
        if not book.problems:
            raise PricingError("a ScenarioGrid needs at least one base problem")
        _check_grid(book.problems, scenarios, on_missing)
        #: the full grid's row of each base problem (``None``: its index)
        self.rows = None if rows is None else _checked_rows(rows, len(book.problems))
        self._book = book
        self.scenarios = tuple(scenarios)
        self.on_missing = on_missing
        self.kernel = resolve_kernel(kernel)
        self.offset = offset
        self.n_scenarios = offset + len(self.scenarios) if n_scenarios is None else n_scenarios
        if self.n_scenarios < offset + len(self.scenarios):
            raise PricingError(
                "a ScenarioGrid slice must lie inside its full scenario list: "
                f"'n_scenarios' {self.n_scenarios} < 'offset' {offset} + {len(self.scenarios)}")
        self.answered = frozenset(answered)
        self._bumps = _Bumps()
        self._columns: list[list[int]] | None = None

    @property
    def problems(self) -> list[PricingProblem]:
        return self._book.problems

    @property
    def label(self) -> str:
        stop = self.offset + len(self.scenarios)
        return f"grid[{len(self.problems)}x{self.offset}:{stop}/{self.n_scenarios}]"

    # -- the master's view: cells without cell problems ----------------------------
    def columns(self) -> list[list[int]]:
        """The ids of the cells this grid answers, one list per scenario.

        Whether a cell exists is decided once per (distinct base model,
        scenario) -- never per cell: an unrealisable scenario raises under
        ``on_missing="raise"``, empties its cells under ``"skip"`` and keeps
        them (priced unbumped) under ``"base"``; a bump that invalidates the
        model raises here, before anything is dispatched.  Models are told
        apart by digest, one digest made per model value
        (:func:`~repro.pricing.batch._leg_digest`: equal parameters held by
        separate objects share it).
        """
        if self._columns is None:
            by_model: dict[str, tuple["Model", list[int]]] = {}
            digests: _Digests = {}
            for problem, first in zip(self.problems, self._first_cells()):
                by_model.setdefault(
                    _leg_digest(problem.model, digests), (problem.model, [])
                )[1].append(first)
            columns: list[list[int]] = [[] for _ in self.scenarios]
            for model, rows in by_model.values():
                for j, scenario in enumerate(self.scenarios):
                    if not self._realises(model, scenario):
                        if self.on_missing == "raise":
                            raise _unrealisable(model, scenario)
                        if self.on_missing == "skip":
                            continue
                    columns[j].extend(row + j for row in rows)
            if self.answered:
                columns = [
                    [cell for cell in column if cell not in self.answered]
                    for column in columns
                ]
            self._columns = columns
        return self._columns

    def _first_cells(self) -> list[int]:
        """The id of each base problem's cell under this slice's first scenario."""
        rows = range(len(self.problems)) if self.rows is None else self.rows.tolist()
        return [row * self.n_scenarios + self.offset for row in rows]

    def _realises(self, model: "Model", scenario: Scenario) -> bool:
        return scenario.target != "model" or self._bumps.get(model, scenario) is not None

    def _coordinates(self, cell_id: int) -> tuple[PricingProblem, Scenario]:
        index, number = divmod(cell_id, self.n_scenarios)
        if self.rows is not None:
            index = int(np.flatnonzero(self.rows == index)[0])
        return self.problems[index], self.scenarios[number - self.offset]

    def describe(self, cell_id: int) -> tuple[str | None, str | None]:
        """``(label, method name)`` of a cell: those of the problem
        :func:`expand_scenarios` would put there."""
        problem, scenario = self._coordinates(cell_id)
        if scenario.target == "base" or not self._realises(problem.model, scenario):
            return problem.label, problem.method_name
        return _cell_label(problem, scenario), problem.method_name

    def cell_digest(self, cell_id: int) -> str:
        """:func:`~repro.pricing.cache.problem_digest` of the cell's problem,
        from its legs: the bumped model's memoised digest is shared by every
        cell of its (base model, scenario)."""
        problem, scenario = self._coordinates(cell_id)
        model, product = (
            _cell_legs(problem, scenario, self._bumps) or (problem.model, problem.product)
        )
        return legs_digest(model, product, problem.method)

    def slice(
        self, start: int, stop: int, *, kernel: str | None = None,
        answered: Sequence[int] = (),
    ) -> "ScenarioGrid":
        """Scenarios ``start:stop`` of this grid over the same base book
        (and the same book bytes, once they are made)."""
        part = ScenarioGrid(
            self._book, self.scenarios[start:stop], on_missing=self.on_missing,
            kernel=kernel, offset=self.offset + start, n_scenarios=self.n_scenarios,
            answered=answered, rows=self.rows,
        )
        part._bumps = self._bumps  # what the book can realise was decided once
        return part

    def leave_out(self, cell_id: int) -> None:
        """Stop pricing ``cell_id``, as if it had been ``answered``.

        Bytes written of the grid before (:meth:`wire_view`) still list the
        cell, and are to be written again; the book's bytes are kept, they
        do not depend on which cells are answered.  Whether a cell may still
        leave is its campaign's to say: not once its job was dispatched.
        """
        self.answered |= {cell_id}
        self._columns = None

    # -- pricing -----------------------------------------------------------------
    def compute(self) -> "ResultColumns":
        """Expand, price as one stacked campaign, answer one
        :class:`~repro.pricing.methods.base.ResultColumns` keyed by cell id.

        Cells in :attr:`answered` are left out.  If the shared pass fails,
        the cells are priced one by one so only the bad ones land in
        ``errors`` (as a :class:`ProblemBatch` does).
        """
        expanded, cells = expand_scenarios(self.problems, self.scenarios, self.on_missing)
        first_cells = self._first_cells()
        members: list[tuple[int, PricingProblem]] = []
        for problem, cell in zip(expanded, cells):
            cell_id = first_cells[cell.problem_index] + cell.scenario_index
            if cell_id not in self.answered:
                members.append((cell_id, problem))
        try:
            results: Sequence[Any] = price_problems(
                [problem for _, problem in members], min_group_size=1, kernel=self.kernel
            )
        except Exception:  # noqa: BLE001 - isolate the failing cells below
            results = [None] * len(members)
        return answer_members(members, results)

    def price_rows(self, ids: np.ndarray, prices: np.ndarray) -> list[dict[str, float]]:
        """Fold a whole grid's cell prices into one ``{scenario name: price}``
        mapping per base problem.

        A cell's id is ``problem_index * n_scenarios + scenario_index``: the
        prices, scattered by id, are the (problems x scenarios) matrix; a
        skipped cell was never priced and stays NaN (no price is).
        """
        flat = np.full(len(self.problems) * self.n_scenarios, np.nan)
        flat[ids] = prices
        names = [scenario.name for scenario in self.scenarios]
        return [
            {name: price for name, price in zip(names, row) if price == price}
            for row in flat.reshape(len(self.problems), self.n_scenarios).tolist()
        ]

    # -- serialization ----------------------------------------------------------
    def wire_view(self) -> dict[str, Any]:
        """The grid as the codec writes it: the book's bytes as they are, the
        slice's scenarios as plain records, ``rows`` where the grid names them."""
        view: dict[str, Any] = {
            "book": self._book.wire_bytes(),
            "scenarios": [
                {"name": scenario.name, "target": scenario.target, "param": scenario.param,
                 "bump": scenario.bump, "relative": scenario.relative}
                for scenario in self.scenarios
            ],
            "offset": self.offset,
            "n_scenarios": self.n_scenarios,
            "on_missing": self.on_missing,
            "kernel": self.kernel,
            "answered": sorted(self.answered),
        }
        if self.rows is not None:
            view["rows"] = self.rows
        return view

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioGrid":
        """Rebuild a grid; a payload of the wrong shape raises
        :class:`~repro.errors.SerializationError` naming the field."""
        records = data.get("scenarios")
        if not isinstance(records, list):
            raise SerializationError("ScenarioGrid payload: 'scenarios' must be a list")
        scenarios = []
        for index, record in enumerate(records):
            try:
                scenarios.append(Scenario(**record))
            except (TypeError, PricingError) as exc:
                raise SerializationError(
                    f"ScenarioGrid payload: scenarios[{index}] is not a scenario: {exc}"
                ) from exc
        for field in ("offset", "n_scenarios"):
            if not _is_count(data.get(field)):
                raise SerializationError(
                    f"ScenarioGrid payload: '{field}' must be a non-negative integer"
                )
        answered = data.get("answered", [])
        if not isinstance(answered, list) or not all(_is_count(cell) for cell in answered):
            raise SerializationError(
                "ScenarioGrid payload: 'answered' must list non-negative cell ids"
            )
        book = data.get("book")
        problems = read_book(book, "ScenarioGrid")
        try:
            return cls(
                _Book(problems, wire=book), scenarios, on_missing=data.get("on_missing"),
                kernel=data.get("kernel"), offset=data["offset"],
                n_scenarios=data["n_scenarios"], answered=answered, rows=data.get("rows"),
            )
        except PricingError as exc:
            raise SerializationError(f"ScenarioGrid payload: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ScenarioGrid({self.label}, on_missing={self.on_missing!r})"


def collect_cell_prices(
    prices: Sequence[float],
    cells: Sequence[ScenarioCell],
    scenarios: Sequence[Scenario],
    n_problems: int,
) -> list[dict[str, float]]:
    """Fold flat cell prices back into one ``{scenario name: price}`` per problem."""
    if len(prices) != len(cells):
        raise PricingError("need exactly one price per scenario cell")
    grid: list[dict[str, float]] = [{} for _ in range(n_problems)]
    for cell, price in zip(cells, prices):
        grid[cell.problem_index][scenarios[cell.scenario_index].name] = float(price)
    return grid


def price_scenarios(
    problems: Sequence[PricingProblem],
    scenarios: Sequence[Scenario],
    on_missing: str = "raise",
) -> list[dict[str, float]]:
    """Price a whole scenario grid in this process, as a worker prices a slice.

    One :meth:`ScenarioGrid.compute` over the full scenario list: base and
    bumps that share a simulation signature consume the same normal stream
    (common random numbers by construction), cells of other methods are
    priced alone, so grids over mixed books are always safe.  A cell that
    fails to price raises :class:`~repro.errors.PricingError` naming it.
    """
    grid = ScenarioGrid(problems, scenarios, on_missing=on_missing)
    reply = grid.compute()
    if reply.errors:
        cell_id, message = next(iter(reply.errors.items()))
        raise PricingError(
            f"scenario cell {grid.describe(cell_id)[0]!r} failed to price: {message}"
        )
    return grid.price_rows(reply.ids, reply.price)


# -- Greek assembly --------------------------------------------------------------


def greeks_from_prices(
    model: "Model",
    product: "Product",
    prices: Mapping[str, float],
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
) -> GreekReport:
    """Finite-difference Greeks from a priced :func:`greek_ladder`.

    The expressions replicate the bump-and-revalue reference of
    ``tests/oracles`` operation for operation (same differences, same
    parenthesisation), so when the ladder prices are bit-identical to
    repricing cell by cell -- which the stacked kernel's CRN cohorts
    guarantee -- the assembled Greeks are too.
    Scenarios absent from ``prices`` (skipped cells, a ladder without vega)
    assemble to ``None``.
    """
    base = float(prices["base"])
    price_up = float(prices["spot_up"])
    price_down = float(prices["spot_down"])
    h = float(np.asarray(model.spot).mean()) * spot_bump
    delta = (price_up - price_down) / (2.0 * h)
    gamma = (price_up - 2.0 * base + price_down) / h**2

    vega = None
    if "vol_up" in prices and "vol_down" in prices:
        vega = (float(prices["vol_up"]) - float(prices["vol_down"])) / (2.0 * vol_bump)

    rho = None
    if "rate_up" in prices and "rate_down" in prices:
        rho = (float(prices["rate_up"]) - float(prices["rate_down"])) / (2.0 * rate_bump)

    theta = None
    if "theta_down" in prices:
        step = maturity_step(product.maturity, theta_bump)
        theta = (float(prices["theta_down"]) - base) / step

    return GreekReport(price=base, delta=float(delta), gamma=float(gamma),
                       vega=vega, rho=rho, theta=theta)
