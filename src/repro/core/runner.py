"""The canonical :class:`RunReport` of one portfolio valuation.

Runs and CPU-count sweeps are driven by
:class:`~repro.api.session.ValuationSession`; this module holds the report
object every execution path folds its :class:`ScheduleOutcome` into, and the
:class:`ResultTable` a campaign keeps its positions in.
"""

from __future__ import annotations

import math
from operator import index, itemgetter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.cluster.backends.base import Job
from repro.core.scheduler import ScheduleOutcome
from repro.errors import ClusterError
from repro.pricing.methods.base import FLOAT_COLUMNS, ResultColumns

__all__ = ["RunReport", "ResultTable"]

_NAN = float("nan")
#: ids below this many times their number map to rows through an array
_SPAN = 4


#: the fields of a result dictionary, in the order :meth:`ResultTable.columns`
#: folds them, and what stands in for one a backend leaves out
_DEFAULTS = {"price": _NAN, "delta": None, "std_error": None, "confidence_interval": None,
             "elapsed": 0.0, "n_evaluations": 0, "method_name": ""}
_FIELDS = itemgetter(*_DEFAULTS)


class ResultTable(Mapping):
    """The master's one per-position store: result columns and a status byte.

    The paper's master ``MPI_Recv_Obj`` s one result per job; here whatever a
    dispatch unit answers lands in a table with a row per submitted position
    -- the columns of a :class:`~repro.pricing.methods.base.ResultColumns`
    sized to the campaign, a ``status`` byte (:attr:`PENDING`, :attr:`DONE`,
    :attr:`NO_RESULT` for timing-only backends, :attr:`FAILED`,
    :attr:`CANCELLED`), a ``cache_hit`` flag (a row answered by the master's
    cache or copied from its leader) and a sparse error table.  A slice's
    reply is one vectorised :meth:`scatter`, a single job's reply
    :meth:`write` s one row; a row is written once (the campaign answers a
    dispatch unit once).
    Single answers are set aside as they arrive, between two results of the
    master loop, and folded into the columns in one pass by the first read.

    It is also the report's ``results``: a read-only submission-ordered
    ``Mapping[int, dict | None]`` that materialises a row's result dictionary
    on access (``None`` for a position without one) and keeps none.
    """

    PENDING, DONE, NO_RESULT, FAILED, CANCELLED = range(5)

    def __init__(self, ids: Sequence[int]) -> None:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        zeros = np.zeros_like(ids)  # the record copies each column into its blocks
        self._columns = ResultColumns(
            {"ids": ids, **dict.fromkeys(FLOAT_COLUMNS, np.full(len(ids), _NAN)),
             "n_evaluations": zeros, "method": zeros},
            [""],  # the method name of a row nothing was written to
        )
        self.ids = ids
        self.status = np.zeros(len(ids), dtype=np.uint8)
        self.cache_hit = np.zeros(len(ids), dtype=np.bool_)
        #: row number -> the position's error message
        self._errors: dict[int, str] = {}
        #: job id -> row, ``-1`` for an id not submitted: an array where the
        #: ids are distinct, non-negative and below ``_SPAN`` x their number
        #: (a risk grid's permuted cell ids), so an id array is mapped to rows
        #: by one gather, else a dict; neither where each id is its row (a
        #: portfolio's ``0..n-1``), which an id array maps to rows as it is
        self._row_at: np.ndarray | None = None
        self._row_by_id: dict[int, int] | None = None
        if not np.array_equal(ids, np.arange(len(ids))):
            if ids.min() >= 0 and ids.max() < _SPAN * len(ids):
                self._row_at = np.full(ids.max() + 1, -1, dtype=np.intp)
                self._row_at[ids] = np.arange(len(ids))
                if np.count_nonzero(self._row_at >= 0) < len(ids):  # an id twice
                    self._row_at = None
            if self._row_at is None:
                self._row_by_id = {job_id: row for row, job_id in enumerate(ids.tolist())}
        #: (row, result dictionary) of the single answers not folded yet
        self._kept: list[tuple[int, dict[str, Any]]] = []

    @property
    def columns(self) -> ResultColumns:
        """The table's columns (row ``i`` belongs to ``ids[i]``), up to date."""
        if self._kept:
            rows, entries = zip(*self._kept)
            self._kept.clear()
            rows = np.array(rows, dtype=np.intp)
            try:
                fields = list(map(_FIELDS, entries))
            except KeyError:  # not every backend answers a whole as_dict()
                fields = [_FIELDS({**_DEFAULTS, **entry}) for entry in entries]
            price, delta, std_error, interval, elapsed, counts, names = zip(*fields)
            columns = self._columns
            columns.floats[:, rows] = (  # numpy stores a None as NaN
                price, delta, std_error, *zip(*(pair or (_NAN, _NAN) for pair in interval)),
                elapsed)
            columns.n_evaluations[rows] = counts
            codes = {name: self._method_code(name) for name in set(names)}
            columns.method[rows] = [codes[name] for name in names]
        return self._columns

    # -- where a position lives --------------------------------------------------
    def row_of(self, job_id: int) -> int:
        if self._row_by_id is not None:
            return self._row_by_id[job_id]
        try:
            row = index(job_id)
        except TypeError:
            raise KeyError(job_id) from None
        if self._row_at is not None:
            if not 0 <= row < len(self._row_at) or self._row_at[row] < 0:
                raise KeyError(job_id)
            return int(self._row_at[row])
        if not 0 <= row < len(self.ids):
            raise KeyError(job_id)
        return row

    def rows_of(self, job_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row numbers of ``job_ids``; an id the campaign never submitted is a
        :class:`~repro.errors.ClusterError`.  Where each id is its row, an
        array of ids in range is its own rows; where the ids map to rows
        through an array, it is one gather."""
        if self._row_by_id is None:
            rows = np.asarray(job_ids)
            if rows.dtype.kind in "iu" and rows.ndim == 1:
                rows = rows.astype(np.intp, copy=False)
                if not len(rows):
                    return rows
                row_at = self._row_at
                if rows.min() >= 0 and rows.max() < len(self.ids if row_at is None else row_at):
                    if row_at is None:
                        return rows
                    rows = row_at[rows]
                    if rows.min() >= 0:
                        return rows
        if isinstance(job_ids, np.ndarray):
            job_ids = job_ids.tolist()
        row_of = self.row_of
        try:
            return np.array([row_of(job_id) for job_id in job_ids], dtype=np.intp)
        except KeyError as exc:
            raise ClusterError(
                f"reply answers id {exc.args[0]}, which this campaign never submitted"
            ) from None

    def _method_code(self, name: str) -> int:
        names = self._columns.method_names  # a handful at most
        if name not in names:
            names.append(name)
        return names.index(name)

    # -- writing -------------------------------------------------------------------
    def write(self, job_id: int, entry: Any, error: str | None) -> bool:
        """One job's own answer: a result dictionary, an error, or neither (a
        timing-only backend).  An answer without a finite price is an error:
        the columns keep NaN for *absent*.  ``False``, and nothing written,
        if the row was settled before."""
        row = self.row_of(job_id)
        if self.status[row] != self.PENDING:
            return False
        if error is None and entry is not None:
            try:
                priced = math.isfinite(entry["price"])
            except (KeyError, TypeError):
                priced = False
            if not priced:
                error = f"ClusterError: the result of job {job_id} carries no finite price"
        if error is not None or entry is None:
            self._settle(row, self.NO_RESULT if error is None else self.FAILED, error)
        else:
            self._kept.append((row, entry))
            self.status[row] = self.DONE
            if entry.get("cache_hit"):
                self.cache_hit[row] = True
        return True

    def scatter(self, reply: ResultColumns, members: Sequence[int]) -> None:
        """A dispatch unit's reply, one column assignment per field.

        ``members`` are the positions the unit was sent to price.  A reply
        that answers an id outside them, or one id twice, is rejected whole
        with a :class:`~repro.errors.ClusterError` (nothing is written); a
        member it leaves out fails as ``"missing from batch reply"``.
        """
        answered = reply.ids.tolist()
        rows = self.rows_of([*answered, *reply.errors] if reply.errors else reply.ids)
        missing: Any = ()
        if reply.errors or answered != list(members):  # else every member, in order: no mask
            expected = self.rows_of(members)
            unanswered = np.zeros(len(self.ids), dtype=np.bool_)
            unanswered[expected] = True
            if not unanswered[rows].all():
                stray = self.ids[rows[~unanswered[rows]][0]]
                raise ClusterError(f"reply answers id {int(stray)}, outside its job's members")
            unanswered[rows] = False
            missing = np.flatnonzero(unanswered)
            if len(missing) != len(expected) - len(rows):
                raise ClusterError("reply answers one id twice")
        done = rows[: len(reply.ids)]
        columns = self._columns  # a row is written once: none of these is set aside
        # a 1-d assignment a column: a 2-d one of the float block reads slower cold
        for name in (*FLOAT_COLUMNS, "n_evaluations"):
            getattr(columns, name)[done] = getattr(reply, name)
        codes = np.array([self._method_code(name) for name in reply.method_names], dtype=np.int64)
        columns.method[done] = codes[reply.method]
        self.status[done] = self.DONE
        for row, message in zip(rows[len(reply.ids):].tolist(), reply.errors.values()):
            self._settle(row, self.FAILED, message)
        if len(missing):
            self._settle(missing, self.FAILED, "missing from batch reply")

    def copy_rows(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Settle each of ``targets`` as its ``sources`` entry was settled:
        the same status, error and result, flagged ``cache_hit``."""
        source, target = self.rows_of(sources), self.rows_of(targets)
        columns = self.columns  # folds the answers set aside
        columns.floats[:, target] = columns.floats[:, source]
        columns.ints[1:, target] = columns.ints[1:, source]  # n_evaluations, method
        self.cache_hit[target] = True
        self.status[target] = self.status[source]
        for row, copy in zip(source.tolist(), target.tolist()):
            if row in self._errors:
                self._errors[copy] = self._errors[row]

    def mark(self, job_ids: Sequence[int], status: int, error: str | None = None) -> None:
        """Settle ``job_ids`` without a result: failed (with ``error``),
        cancelled, or answered by a timing-only backend."""
        self._settle(self.rows_of(job_ids), status, error)

    def _settle(self, rows: Any, status: int, error: str | None) -> None:
        if error is not None:
            self._errors.update(dict.fromkeys(np.atleast_1d(rows).tolist(), error))
        self.status[rows] = status

    # -- reading -------------------------------------------------------------------
    def __getitem__(self, job_id: int) -> dict[str, Any] | None:
        row = self.row_of(job_id)
        if self.status[row] != self.DONE:
            return None
        entry = self.columns.row(row)
        if self.cache_hit[row]:
            entry["cache_hit"] = True
        return entry

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def error_of(self, job_id: int) -> str | None:
        """The error message of a failed position (``None`` otherwise)."""
        return self._errors.get(self.row_of(job_id))

    def errors(self) -> dict[int, str]:
        """``{job id: message}`` of every failed or cancelled position, in
        submission order."""
        out: dict[int, str] = {}
        for row in np.flatnonzero(self.status >= self.FAILED).tolist():
            out[int(self.ids[row])] = self._errors.get(row, "cancelled before dispatch")
        return out

    def prices(self) -> dict[int, float]:
        """``{job id: price}`` of every priced position, in submission order."""
        done = self.status == self.DONE
        return dict(zip(self.ids[done].tolist(), self.columns.price[done].tolist()))


@dataclass
class RunReport:
    """Outcome of valuing one portfolio on one cluster configuration."""

    n_jobs: int
    n_workers: int
    strategy: str
    scheduler: str
    total_time: float
    master_busy: float
    worker_busy: dict[int, float]
    bytes_sent: int
    #: job id -> result dictionary (``None`` without one), in submission
    #: order; a campaign's report holds its :class:`ResultTable` here
    results: Mapping[int, dict[str, Any] | None] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)
    category_times: dict[str, float] = field(default_factory=dict)
    #: ``{worker_id: most jobs it held at once}``: 1 is one job per slave
    #: (always, on the simulated cluster); more is the in-flight window of
    #: :class:`~repro.core.scheduler.ScheduleStream` opening on cheap jobs
    peak_window: dict[int, int] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def n_cpus(self) -> int:
        """The paper's "number of CPUs" = workers + the master."""
        return self.n_workers + 1

    def prices(self) -> dict[int, float]:
        """Job id -> price, for runs that actually executed the problems."""
        if isinstance(self.results, ResultTable):
            return self.results.prices()
        return {
            job_id: result["price"]
            for job_id, result in self.results.items()
            if result is not None and "price" in result
        }

    @classmethod
    def from_outcome(
        cls,
        outcome: ScheduleOutcome,
        jobs: Sequence[Job],
        strategy_name: str,
    ) -> "RunReport":
        category_by_id = {job.job_id: job.category for job in jobs}
        category_times: dict[str, float] = {}
        by_id: dict[int, Any] = {}
        for completed in outcome.completed:
            category = category_by_id.get(completed.job_id, "generic")
            category_times[category] = category_times.get(category, 0.0) + completed.compute_time
            by_id[completed.job_id] = completed
        # results are keyed in *submission* order, whatever order the workers
        # answered in, so reports are deterministic across backends and runs
        results: dict[int, dict[str, Any] | None] = {}
        errors: dict[int, str] = {}
        for job in jobs:
            completed = by_id.get(job.job_id)
            if completed is None:
                continue
            results[job.job_id] = completed.result
            if completed.error is not None:
                errors[job.job_id] = completed.error
        return cls(
            n_jobs=len(jobs),
            n_workers=outcome.stats.n_workers,
            strategy=strategy_name,
            scheduler=outcome.scheduler_name,
            total_time=outcome.stats.total_time,
            master_busy=outcome.stats.master_busy,
            worker_busy=dict(outcome.stats.worker_busy),
            bytes_sent=outcome.stats.bytes_sent,
            results=results,
            errors=errors,
            category_times=category_times,
            peak_window=dict(outcome.peak_window),
            extra=dict(outcome.stats.extra),
        )
