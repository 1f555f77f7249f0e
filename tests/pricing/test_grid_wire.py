"""The :class:`ScenarioGrid` wire form: the book once, scenarios as records,
typed decode errors, and slices that price what the whole grid prices."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.cluster.backends import PAYLOAD_SERIAL, execute_payload
from repro.errors import PricingError, SerializationError
from repro.pricing.book import write_book
from repro.pricing.methods.base import ResultColumns
from repro.pricing.scenarios import (
    Scenario,
    ScenarioGrid,
    greek_ladder,
    historical_scenarios,
    price_scenarios,
)
from repro.serial import serialize, unserialize, xdr
from tests.oracles import solo_cell_pricer
from tests.oracles.book_writer import pack, unpack
from tests.oracles.books import mixed_book

RETURNS = [0.01, -0.02, 0.004, -0.013, 0.007, -0.03, 0.011]


def _problems():
    return [position.problem for position in mixed_book()]


def _prices(grid: ScenarioGrid, replies: list[dict]) -> list[dict[str, float]]:
    """Fold ``compute()`` replies of the slices of ``grid`` by cell id."""
    out: list[dict[str, float]] = [{} for _ in grid.problems]
    for reply in replies:
        for cell, entry in reply.items():
            index, number = divmod(cell, grid.n_scenarios)
            out[index][grid.scenarios[number].name] = entry["price"]
    return out


class TestWireForm:
    def test_round_trip_keeps_the_grid_and_shares_the_headers(self):
        grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS), on_missing="base")
        part = grid.slice(2, 5, kernel="loop", answered=[3])
        rebuilt = unserialize(serialize(part))
        assert isinstance(rebuilt, ScenarioGrid)
        assert rebuilt.scenarios == part.scenarios == grid.scenarios[2:5]
        assert (rebuilt.offset, rebuilt.n_scenarios) == (2, len(RETURNS) + 1)
        assert (rebuilt.on_missing, rebuilt.kernel, rebuilt.answered) == (
            "base", "loop", frozenset([3]))
        for before, after in zip(grid.problems, rebuilt.problems):
            assert after == before and after.label == before.label
        # one Model object per model header, one PricingMethod per method header
        assert len({id(problem.model) for problem in rebuilt.problems}) == 2
        assert rebuilt.problems[0].model is rebuilt.problems[1].model
        assert rebuilt.problems[0].method is rebuilt.problems[1].method
        assert {cell: entry["price"] for cell, entry in rebuilt.compute().items()} == {
            cell: entry["price"] for cell, entry in part.compute().items()
        }

    def test_the_book_is_written_once_and_every_slice_resends_its_bytes(self):
        grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS))
        view = unpack(write_book(grid.problems))
        assert sum(table["rows"] for table in view["model"]["tables"]) == 2
        assert sum(table["rows"] for table in view["option"]["tables"]) == len(grid.problems)
        first, second = grid.slice(0, 4).wire_view(), grid.slice(4, 8).wire_view()
        assert first["book"] is second["book"]  # the same bytes object, not a re-encode
        assert first["book"] == write_book(grid.problems) == pack(view)
        # a slice is its book plus tens of bytes per scenario
        assert len(serialize(grid.slice(4, 8)).to_bytes()) - len(first["book"]) < 4 * 120 + 200


class TestSlicesPriceWhatTheGridPrices:
    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("measure", ["ladder", "var"])
    def test_any_slice_width(self, measure, width):
        """The theta scenario changes the time grid (two draw cohorts): a
        slice boundary may fall anywhere without moving a price."""
        scenarios, on_missing = {
            "ladder": (greek_ladder(), "skip"),
            "var": (historical_scenarios(RETURNS), "base"),
        }[measure]
        grid = ScenarioGrid(_problems(), scenarios, on_missing=on_missing)
        replies = [
            grid.slice(start, start + width).compute()
            for start in range(0, len(scenarios), width)
        ]
        assert sum(len(reply) for reply in replies) == sum(map(len, grid.columns()))
        sliced = _prices(grid, replies)
        assert sliced == price_scenarios(_problems(), scenarios, on_missing=on_missing)
        assert sliced == solo_cell_pricer(_problems(), scenarios, on_missing=on_missing)

    def test_answered_cells_are_left_out_and_move_no_price(self):
        grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS), on_missing="base")
        cells = [cell for column in grid.columns() for cell in column]
        whole = grid.compute()
        assert sorted(whole) == sorted(cells)
        part = grid.slice(0, len(grid.scenarios), answered=cells[::3])
        assert [cell for column in part.columns() for cell in column] == [
            cell for cell in cells if cell not in cells[::3]]
        rest = part.compute()
        assert sorted(rest) == sorted(set(cells) - set(cells[::3]))
        assert all(rest[cell]["price"] == whole[cell]["price"] for cell in rest)

    def test_a_poison_cell_fails_alone(self, monkeypatch):
        from repro.pricing.methods.closed_form import ClosedFormPut

        def refuse(self, model, product):
            raise ValueError("poisoned")

        grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS[:2]), on_missing="base")
        healthy = grid.compute()
        monkeypatch.setattr(ClosedFormPut, "_price", refuse)
        reply, _elapsed, error = execute_payload(PAYLOAD_SERIAL, serialize(grid).to_bytes())
        assert error is None and isinstance(reply, ResultColumns)
        assert sorted(reply) == sorted(healthy)
        assert set(reply.errors) == {2 * 3 + j for j in range(3)}  # the closed-form put's row
        assert all("poisoned" in message for message in reply.errors.values())
        assert all(reply[cell]["price"] == healthy[cell]["price"]
                   for cell in reply.ids.tolist())


class TestRows:
    """``rows`` names the base problems' rows in the campaign's full grid: a
    grid may hold any subset of the positions, a book slice under the base
    scenario alone answers under the positions' own ids."""

    ROWS = [40, 7, 19, 3]

    def test_a_book_slice_answers_under_its_positions_ids(self):
        part = ScenarioGrid(_problems(), [Scenario(name="base")], rows=self.ROWS, kernel="loop")
        assert part.columns() == [self.ROWS]
        alone = [problem.compute().price for problem in _problems()]
        for grid in (part, unserialize(serialize(part))):
            assert grid.rows.dtype == np.int64 and grid.rows.tolist() == self.ROWS
            reply = grid.compute()
            assert reply.ids.tolist() == self.ROWS and not reply.errors
            assert reply.price.tolist() == alone
        assert part.describe(19) == ("cf_put", "CF_Put")
        assert part.cell_digest(3) == ScenarioGrid(
            _problems(), [Scenario(name="base")]).cell_digest(3)

    def test_a_cell_id_is_its_row_times_the_scenario_count_plus_its_scenario(self):
        scenarios = historical_scenarios(RETURNS)
        whole = ScenarioGrid(_problems(), scenarios, on_missing="base")
        part = ScenarioGrid(_problems()[1:3], scenarios, on_missing="base", rows=[1, 2])
        assert part.columns() == [column[1:3] for column in whole.columns()]
        assert part.slice(2, 5).rows.tolist() == [1, 2]  # a scenario slice keeps the rows
        everything, some = whole.compute(), part.slice(2, 5).compute()
        assert sorted(some) == [row * len(scenarios) + j for row in (1, 2) for j in (2, 3, 4)]
        assert all(some[cell]["price"] == everything[cell]["price"] for cell in some)

    def test_grids_without_rows_are_written_as_before(self):
        grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS), on_missing="base")
        assert grid.rows is None and "rows" not in grid.slice(1, 3).wire_view()
        assert "rows" in ScenarioGrid(
            _problems(), [Scenario(name="base")], rows=self.ROWS).wire_view()

    @pytest.mark.parametrize("rows", [
        [1, 2, 3], [1, 2, 3, 4, 5], [1, 2, 2, 3], [0, -1, 2, 3], [0.0, 1.0, 2.0, 3.0],
        "abcd", [[0, 1], [2, 3]], [True, False, True, False], [1, [2], 3, 4],
    ])
    def test_validation(self, rows):
        with pytest.raises(PricingError, match="'rows' must name one distinct"):
            ScenarioGrid(_problems(), [Scenario(name="base")], rows=rows)

    def test_a_cell_left_out_after_the_grid_is_written_is_answered_in_its_next_bytes(self):
        part = ScenarioGrid(_problems(), [Scenario(name="base")], rows=self.ROWS)
        part.leave_out(19)
        assert part.columns() == [[40, 7, 3]]
        wire = serialize(part).to_bytes()
        book = part._book.wire_bytes()
        part.leave_out(7)  # a campaign lets a member leave only a queued slice
        assert part.columns() == [[40, 3]]
        rewritten = serialize(part).to_bytes()
        assert part._book.wire_bytes() is book  # the book's bytes are kept
        replies = [execute_payload(PAYLOAD_SERIAL, data) for data in (wire, rewritten)]
        assert [error for _reply, _elapsed, error in replies] == [None, None]
        assert [reply.ids.tolist() for reply, _elapsed, _error in replies] == [[40, 7, 3], [40, 3]]


class TestConstruction:
    def test_validation(self):
        with pytest.raises(PricingError, match="at least one base problem"):
            ScenarioGrid([], [Scenario(name="base")])
        with pytest.raises(PricingError, match="on_missing"):
            ScenarioGrid(_problems(), [Scenario(name="base")], on_missing="drop")
        with pytest.raises(PricingError, match="unique"):
            ScenarioGrid(_problems(), [Scenario(name="a"), Scenario(name="a")])
        with pytest.raises(PricingError, match="inside its full scenario list"):
            ScenarioGrid(_problems(), [Scenario(name="a")], offset=3, n_scenarios=3)

    def test_unrealisable_scenarios_are_decided_per_model_not_per_cell(self):
        vol = Scenario(name="vol", target="model", param="volatility", bump=0.01)
        scenarios = [Scenario(name="base"), vol]
        with pytest.raises(PricingError, match="no parameter 'volatility'"):
            ScenarioGrid(_problems(), scenarios).columns()
        skipped = ScenarioGrid(_problems(), scenarios, on_missing="skip").columns()
        assert skipped == [[0, 2, 4, 6], [1, 3, 5]]  # sigma_only has no "volatility"
        based = ScenarioGrid(_problems(), scenarios, on_missing="base")
        assert based.columns() == [[0, 2, 4, 6], [1, 3, 5, 7]]
        assert based.describe(7) == ("sigma_only", "MC_European")
        assert based.describe(5) == ("cf_put|vol", "CF_Put")


def _good() -> dict:
    grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS), on_missing="base")
    return dict(grid.slice(1, 3).wire_view())


def _with(**changes) -> dict:
    return {**_good(), **changes}


def _without(field: str) -> dict:
    wire = _good()
    del wire[field]
    return wire


def _scenario_with(**changes) -> dict:
    wire = _good()
    wire["scenarios"] = [wire["scenarios"][0], {**wire["scenarios"][1], **changes}]
    return wire


def _book_with(**changes) -> dict:
    return _with(book=pack({**unpack(_good()["book"]), **changes}))


def _leg_with(leg: str, **changes) -> dict:
    book = unpack(_good()["book"])
    book[leg] = {**book[leg], **changes}
    return _with(book=pack(book))


def _table_with(leg: str, number: int, **changes) -> dict:
    book = unpack(_good()["book"])
    tables = book[leg]["tables"]
    tables[number] = {**tables[number], **changes}
    return _with(book=pack(book))


def _option_table_twice() -> dict:
    book = unpack(_good()["book"])
    book["option"]["tables"].append(book["option"]["tables"][0])
    return _with(book=pack(book))


MALFORMED = [
    pytest.param({}, "'scenarios'", id="empty"),
    pytest.param(_with(scenarios="hist"), "'scenarios'", id="scenarios-not-a-list"),
    pytest.param(_with(scenarios=[7]), r"scenarios\[0\]", id="scenario-not-a-record"),
    pytest.param(_scenario_with(target="quantum"), r"scenarios\[1\].*target", id="unknown-target"),
    pytest.param(_scenario_with(bump=float("nan")), r"scenarios\[1\].*finite", id="nan-bump"),
    pytest.param(_scenario_with(colour="red"), r"scenarios\[1\]", id="unknown-scenario-field"),
    pytest.param(_with(on_missing="drop"), "on_missing", id="unknown-on-missing"),
    pytest.param(_with(kernel="quantum"), "kernel", id="unknown-kernel"),
    pytest.param(_with(offset=-1), "'offset'", id="negative-offset"),
    pytest.param(_with(offset=True), "'offset'", id="bool-offset"),
    pytest.param(_with(n_scenarios="8"), "'n_scenarios'", id="count-not-an-int"),
    pytest.param(_with(n_scenarios=2), "inside its full scenario list", id="count-too-small"),
    pytest.param(_with(answered=[-4]), "'answered'", id="negative-answered-cell"),
    pytest.param(_with(rows=np.array([0, 1, 2])), "'rows'", id="rows-too-few"),
    pytest.param(_with(rows=np.array([0, 1, 1, 2])), "'rows'", id="rows-twice"),
    pytest.param(_with(rows=np.array([0.0, 1.0, 2.0, 3.0])), "'rows'", id="rows-not-integers"),
    pytest.param(_with(rows={"first": 0}), "'rows'", id="rows-not-a-column"),
    pytest.param(_without("book"), "'book'", id="no-book"),
    pytest.param(_with(book=xdr.encode([1, 2])), "'book'", id="book-not-a-layout"),
    pytest.param(_book_with(labels=[], assets=[]), r"book\.labels", id="empty-book"),
    pytest.param(_table_with("model", 0, rows=0), r"book\.model\.tables\[0\]",
                 id="model-table-of-no-rows"),
    pytest.param(_table_with("method", 0, params={"zz_paths": np.ones(1)}),
                 r"book\.method\[0\]: 'method' does not build.*zz_paths",
                 id="method-with-an-unknown-parameter"),
    pytest.param(_option_table_twice(), r"book\.option\.tables\[\d\]", id="option-table-twice"),
    pytest.param(_leg_with("model", index=np.array([0, 0, 9, 1])), r"book\.model\.index",
                 id="model-out-of-range"),
    pytest.param(_leg_with("option", tables=[]), r"book\.option", id="book-without-options"),
]


def _as_wire_bytes(payload: dict) -> bytes:
    """``payload`` tagged as a serialized ``ScenarioGrid`` object."""
    name = b"ScenarioGrid"
    tagged = b"O" + struct.pack(">I", len(name)) + name + xdr.encode(payload)
    return b"NSR0" + tagged


class TestMalformedPayload:
    def test_the_tagging_helper_matches_the_codec(self):
        grid = ScenarioGrid(_problems(), historical_scenarios(RETURNS), on_missing="base")
        assert _as_wire_bytes(_good()) == serialize(grid.slice(1, 3)).to_bytes()

    @pytest.mark.parametrize("payload, field", MALFORMED)
    def test_decoder_raises_a_typed_error_naming_the_field(self, payload, field):
        with pytest.raises(SerializationError, match=field):
            ScenarioGrid.from_dict(payload)
        with pytest.raises(SerializationError, match=field):
            unserialize(_as_wire_bytes(payload))

    @pytest.mark.parametrize("payload, field", MALFORMED)
    def test_worker_answers_with_an_error_and_survives(self, payload, field):
        result, _elapsed, error = execute_payload(PAYLOAD_SERIAL, _as_wire_bytes(payload))
        assert result is None
        assert error is not None and error.startswith("SerializationError")
