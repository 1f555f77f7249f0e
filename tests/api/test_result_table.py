"""The master's one per-position store.

A campaign keeps its positions in a :class:`~repro.core.runner.ResultTable`:
a slice's :class:`~repro.pricing.methods.base.ResultColumns` reply is one
scatter, checked against the job's members; futures are views, minted on
demand; nothing per cell is built on the master of a risk campaign.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.api import CancelToken, ResultCache, ValuationSession
from repro.api import futures as futures_module
from repro.api import results as results_module
from repro.core.portfolio import Portfolio, Position
from repro.core.runner import ResultTable
from repro.errors import ClusterError, ValuationError
from repro.pricing import PricingProblem
from repro.pricing.methods.base import FLOAT_COLUMNS, INT_COLUMNS, PricingResult, ResultColumns
from repro.pricing.scenarios import ScenarioGrid, historical_scenarios
from tests.oracles.books import mixed_book

RETURNS = [0.002 * (k % 11 - 5) for k in range(24)]


def _reply(ids, errors=None) -> ResultColumns:
    return ResultColumns.from_results(
        ids, [PricingResult(price=float(job_id), method_name="CF_Call") for job_id in ids],
        errors=errors,
    )


class TestScatterIsCheckedAgainstTheJobsMembers:
    def test_a_clean_reply_writes_its_rows_and_only_those(self):
        table = ResultTable([10, 11, 12, 13, 14])
        table.scatter(_reply([12, 10], errors={11: "boom"}), members=(10, 11, 12))
        assert table.status.tolist() == [table.DONE, table.FAILED, table.DONE, 0, 0]
        assert table[10]["price"] == 10.0 and table[12]["method_name"] == "CF_Call"
        assert table[11] is None and table.error_of(11) == "boom"
        assert table.prices() == {10: 10.0, 12: 12.0} and table.errors() == {11: "boom"}

    def test_a_member_the_reply_leaves_out_fails_alone(self):
        table = ResultTable([0, 1, 2])
        table.scatter(_reply([0, 2]), members=(0, 1, 2))
        assert table.errors() == {1: "missing from batch reply"}
        assert table.prices() == {0: 0.0, 2: 2.0}

    @pytest.mark.parametrize(
        ("ids", "errors", "message"),
        [
            ([0, 3], None, "id 3, outside its job's members"),  # another job's position
            ([0], {3: "boom"}, "id 3, outside its job's members"),
            ([0, 99], None, "id 99, which this campaign never submitted"),
            ([0, 1, 0], None, "one id twice"),
            ([0, 1], {1: "boom"}, "one id twice"),  # answered and failed
        ],
    )
    # each id its row (a portfolio's), or ids mapped to rows through a table
    @pytest.mark.parametrize("submitted", [[0, 1, 2, 3], [3, 2, 1, 0]])
    def test_a_reply_that_strays_is_rejected_whole(self, ids, errors, message, submitted):
        table = ResultTable(submitted)
        with pytest.raises(ClusterError, match=message):
            table.scatter(_reply(ids, errors), members=(0, 1, 2))
        assert not table.status.any()  # nothing was written

    def test_a_grids_permuted_cell_ids_map_to_rows_by_one_gather(self):
        cells = np.random.default_rng(5).permutation(48)[:40]  # some cells of the span
        table = ResultTable(cells)
        assert table._row_by_id is None  # no id -> row dict
        members = cells[8:16].tolist()
        answered = [cell for cell in members[::-1] if cell != members[3]]
        table.scatter(_reply(answered, errors={members[3]: "boom"}), members=members)
        assert table.rows_of(np.array(members)).tolist() == list(range(8, 16))
        assert table.prices() == {cell: float(cell) for cell in members if cell != members[3]}
        assert table.errors() == {members[3]: "boom"}
        absent = int(np.setdiff1d(np.arange(48), cells)[0])
        for stray in (absent, 48, -1):
            with pytest.raises(KeyError):
                table.row_of(stray)
            with pytest.raises(ClusterError, match=f"id {stray}, which this campaign never"):
                table.rows_of([members[0], stray])

    def test_a_result_without_a_finite_price_is_an_error_not_a_nan_row(self):
        table = ResultTable([0, 1, 2])
        table.write(0, {"price": float("nan")}, None)
        table.write(1, {"delta": 0.5}, None)
        table.write(2, None, None)  # a timing-only backend: no result, no error
        assert table.status.tolist() == [table.FAILED, table.FAILED, table.NO_RESULT]
        assert "no finite price" in table.error_of(0) and table[2] is None


def _lossy(transform):
    """``execute_payload`` of the local backend with its replies passed through ``transform``."""
    from repro.cluster.backends.execution import execute_payload

    def patched(kind, payload):
        result, elapsed, error = execute_payload(kind, payload)
        if isinstance(result, ResultColumns):
            result = transform(result)
        return result, elapsed, error

    return patched


def test_a_malformed_reply_fails_its_jobs_members_not_the_master_loop(monkeypatch):
    def stray(reply: ResultColumns) -> ResultColumns:
        columns = {name: getattr(reply, name) for name in (*INT_COLUMNS, *FLOAT_COLUMNS)}
        columns["ids"] = columns["ids"] + 10_000
        return ResultColumns(columns, reply.method_names)

    monkeypatch.setattr("repro.cluster.backends.local.execute_payload", _lossy(stray))
    book = mixed_book()
    with pytest.raises(ValuationError, match="scenario cells failed to price") as excinfo:
        ValuationSession(backend="local").risk(book, spot_returns=RETURNS[:3])
    assert "ClusterError: reply answers id" in str(excinfo.value)


class TestNothingPerCellOnTheMaster:
    @pytest.fixture
    def counts(self, monkeypatch) -> Counter:
        counts: Counter = Counter()

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(futures_module.PricingFuture, "__init__", "futures")
        counting(results_module.PriceResult, "__init__", "price_results")
        counting(ResultColumns, "row", "row_dicts")
        # a record pickles as ``getattr(ResultColumns, "from_bytes")``: the counter
        # must stay a classmethod of that name, or no worker could send a reply
        uncounted = ResultColumns.from_bytes.__func__

        def from_bytes(cls, data):
            counts["records_decoded"] += 1
            return uncounted(cls, data)

        monkeypatch.setattr(ResultColumns, "from_bytes", classmethod(from_bytes))
        return counts

    def test_a_risk_campaign_mints_no_future_and_builds_no_cell_object(self, counts):
        book = mixed_book()
        n_cells = len(book) * (len(RETURNS) + 1)
        campaigns = []
        session = ValuationSession(backend="multiprocessing", n_workers=2)
        open_campaign = session._open_campaign
        session._open_campaign = lambda *a, **k: campaigns.append(open_campaign(*a, **k)) or campaigns[-1]
        summary = session.risk(book, spot_returns=RETURNS)
        assert summary == ValuationSession(backend="local").risk(book, spot_returns=RETURNS)
        (campaign,) = campaigns
        n_slices = len(campaign.plan.jobs)
        assert len(campaign.table) == n_cells and 1 < n_slices < n_cells / 4
        assert counts["futures"] == 0 and counts["price_results"] == 0
        assert counts["row_dicts"] == 0  # rows materialise on access, and nobody asked
        assert counts["records_decoded"] == n_slices  # one record per slice, unpickled
        assert campaign._minted == {}

    def test_a_plain_run_mints_no_future_either(self, counts):
        book = mixed_book()
        result = ValuationSession(backend="local").run(book)
        assert counts["futures"] == 0 and counts["price_results"] == 0
        assert result.prices() == {
            index: position.problem.compute().price for index, position in enumerate(book)
        }
        assert counts["row_dicts"] == 0
        assert result.report.results[0]["price"] == result.prices()[0]
        assert counts["row_dicts"] == 1

    def test_stream_and_submit_many_mint_one_future_per_position(self, counts):
        book = mixed_book()
        session = ValuationSession(backend="local")
        streamed = session.stream(book)
        assert counts["futures"] == len(book)
        assert len(list(streamed)) == len(book)
        session.submit_many(position.problem for position in book)
        assert counts["futures"] == 2 * len(book)
        session.gather()
        assert counts["futures"] == 2 * len(book)


def _grid_campaign(session: ValuationSession, book: Portfolio, returns=RETURNS, **keywords):
    grid = ScenarioGrid(
        [position.problem for position in book], historical_scenarios(returns),
        on_missing="base",
    )
    return grid, session._open_campaign(grid, **keywords)


def test_a_poisoned_cell_fails_alone_in_the_table(monkeypatch):
    from repro.pricing.methods.closed_form import ClosedFormPut

    def refuse(self, model, product):
        raise ValueError("poisoned")

    monkeypatch.setattr(ClosedFormPut, "_price", refuse)
    book = mixed_book()
    grid, campaign = _grid_campaign(ValuationSession(backend="local"), book)
    table = campaign.finish().report.results
    row = next(i for i, p in enumerate(book) if p.problem.method_name == "CF_Put")
    poisoned = {row * grid.n_scenarios + j for j in range(grid.n_scenarios)}
    assert set(table.errors()) == poisoned
    assert all("ValueError: poisoned" in message for message in table.errors().values())
    assert set(table.prices()) == set(table) - poisoned  # the siblings are priced


def test_a_cancel_before_dispatch_marks_the_slices_rows_cancelled():
    token = CancelToken()
    token.cancel()
    book = mixed_book()
    _grid, campaign = _grid_campaign(
        ValuationSession(backend="local", n_workers=1), book, cancel=token)
    report = campaign.finish().report
    table = report.results
    cancelled = table.ids[table.status == table.CANCELLED].tolist()
    assert cancelled and set(cancelled) == {
        cell for job in campaign.plan.jobs[1:]  # the first wave had already left
        for cell in campaign.plan.batch_members[job.job_id]
    }
    assert all(report.errors[cell] == "cancelled before dispatch" for cell in cancelled)
    assert set(table.prices()) == set(campaign.plan.batch_members[campaign.plan.jobs[0].job_id])


def test_a_half_warm_cache_dispatches_the_missing_cells_and_risk_feeds_run():
    book = mixed_book()
    problems = [position.problem for position in book]
    cache = ResultCache()
    session = ValuationSession(backend="local", cache=cache)
    returns = [0.001 * (k + 1) for k in range(12)]  # distinct: equal bumps share a digest
    half = returns[:6]
    session.risk(book, spot_returns=half)
    puts_before = cache.stats.puts
    assert puts_before == len(book) * (len(half) + 1)

    grid, campaign = _grid_campaign(session, book, returns)
    answered = set(campaign.plan.cached_results)
    assert len(answered) == puts_before  # the base column and the first half
    dispatched = {c for members in campaign.plan.batch_members.values() for c in members}
    assert dispatched == set(campaign.table) - answered
    table = campaign.finish().report.results
    assert table.cache_hit[table.rows_of(sorted(answered))].all()
    assert not table.cache_hit[table.rows_of(sorted(dispatched))].any()
    assert cache.stats.puts == len(table)  # only the fresh cells were written back

    # the base cell of a risk campaign is the plain problem: session.run hits
    replay = session.run(Portfolio(positions=[Position(p) for p in problems]))
    assert all(entry["cache_hit"] for entry in replay.report.results.values())
    assert replay.prices() == {
        index: table[index * grid.n_scenarios]["price"] for index in range(len(problems))
    }


def test_reading_prices_does_not_need_a_price_to_be_a_python_object():
    problem = PricingProblem()
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=100.0, maturity=1.0)
    problem.set_method("CF_Call")
    result = ValuationSession(backend="local").run(Portfolio(positions=[Position(problem)]))
    price = result.prices()[0]
    assert type(price) is float and price == problem.compute().price
    assert result.report.results[0] == {**problem.compute().as_dict(),
                                        "elapsed": result.report.results[0]["elapsed"]}
