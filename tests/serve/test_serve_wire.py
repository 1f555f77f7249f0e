"""Tests of the serve wire helpers: SSE encoding and request parsing."""

from __future__ import annotations

import json

import pytest

from repro.errors import RegistryError, ServeError
from repro.serve.parse import portfolio_from_request, problem_from_request
from repro.serve.sse import format_sse

PROBLEM_BODY = {
    "model": "BlackScholes1D",
    "model_params": {"spot": 100.0, "rate": 0.05, "volatility": 0.2},
    "option": "CallEuro",
    "option_params": {"strike": 100.0, "maturity": 1.0},
    "method": "CF_Call",
    "label": "atm_call",
}


class TestFormatSse:
    def test_minimal_block(self):
        block = format_sse({"done": 1})
        assert block == b'data: {"done":1}\n\n'

    def test_full_block_field_order(self):
        block = format_sse({"done": 1}, event="progress", event_id=7)
        assert block == b'id: 7\nevent: progress\ndata: {"done":1}\n\n'

    def test_data_is_single_line_json(self):
        block = format_sse({"text": "line1\nline2"})
        body = block.decode()
        assert body.endswith("\n\n")
        payload = json.loads(body[len("data: ") : -2])
        assert payload == {"text": "line1\nline2"}

    def test_multiline_event_name_rejected(self):
        with pytest.raises(ValueError):
            format_sse({}, event="bad\nname")


class TestProblemFromRequest:
    def test_round_trip_matches_direct_construction(self):
        problem = problem_from_request(PROBLEM_BODY)
        assert problem.label == "atm_call"
        assert problem.method_name == "CF_Call"
        assert problem.compute().price == pytest.approx(10.450583572185565)

    @pytest.mark.parametrize("missing", ["model", "option", "method"])
    def test_missing_leg_rejected(self, missing):
        body = {key: value for key, value in PROBLEM_BODY.items() if key != missing}
        with pytest.raises(ServeError, match=missing):
            problem_from_request(body)

    def test_unknown_registry_name_propagates(self):
        with pytest.raises(RegistryError):
            problem_from_request({**PROBLEM_BODY, "model": "NotAModel"})

    def test_non_mapping_params_rejected(self):
        with pytest.raises(ServeError, match="model_params"):
            problem_from_request({**PROBLEM_BODY, "model_params": [1, 2]})

    def test_non_object_body_rejected(self):
        with pytest.raises(ServeError):
            problem_from_request(["not", "a", "dict"])


class TestPortfolioFromRequest:
    def _body(self, **extra):
        positions = [
            {**PROBLEM_BODY, "label": f"pos_{index}", **extra.pop(index, {})}
            for index in range(3)
        ]
        return {"name": "req", "positions": positions, **extra}

    def test_positions_become_portfolio_in_order(self):
        portfolio, priorities = portfolio_from_request(self._body())
        assert len(portfolio) == 3
        assert [position.label for position in portfolio] == [
            "pos_0",
            "pos_1",
            "pos_2",
        ]
        assert priorities is None

    def test_quantity_category_and_priority(self):
        body = {
            "positions": [
                {**PROBLEM_BODY, "quantity": 2.5, "category": "barrier"},
                {**PROBLEM_BODY, "priority": 9},
            ]
        }
        portfolio, priorities = portfolio_from_request(body)
        positions = list(portfolio)
        assert positions[0].quantity == 2.5
        assert positions[0].category == "barrier"
        assert priorities == {1: 9.0}

    def test_empty_positions_rejected(self):
        with pytest.raises(ServeError, match="positions"):
            portfolio_from_request({"positions": []})

    def test_bad_position_error_names_its_index(self):
        body = {"positions": [PROBLEM_BODY, {"model": "BlackScholes1D"}]}
        with pytest.raises(ServeError, match=r"positions\[1\]"):
            portfolio_from_request(body)

    @pytest.mark.parametrize(
        ("field", "value"), [("priority", float("nan")), ("quantity", float("inf"))]
    )
    def test_non_finite_numbers_name_their_field(self, field, value):
        # over HTTP the body reader refuses the literals NaN / Infinity; a
        # dict handed to the parser directly still gets the per-field check
        body = {"positions": [PROBLEM_BODY, {**PROBLEM_BODY, field: value}]}
        with pytest.raises(ServeError, match=rf"positions\[1\]\.{field}"):
            portfolio_from_request(body)
