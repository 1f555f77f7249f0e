"""Request-body parsing: JSON dictionaries -> pricing objects.

The HTTP surface speaks the same Premia-style vocabulary as
``ValuationSession.price`` -- registry names plus parameter mappings -- so a
request body is a direct JSON spelling of a :class:`PricingProblem`:

.. code-block:: text

    {"model": "BlackScholes1D", "model_params": {"spot": 100.0, ...},
     "option": "CallEuro",      "option_params": {"strike": 100.0, ...},
     "method": "CF_Call",       "method_params": {},
     "label": "atm_call"}

and a run body is a list of positions of the same shape plus portfolio
fields (``quantity``, ``category``, ``priority``).  Registry validation
happens inside ``set_model``/``set_option``/``set_method``; anything invalid
raises (and surfaces to the client as HTTP 400) before a job is enqueued.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.core.portfolio import Portfolio, Position
from repro.errors import PricingError, ServeError
from repro.pricing import PricingProblem

__all__ = ["finite_number", "problem_from_request", "portfolio_from_request"]

_PROBLEM_KEYS = ("model", "option", "method")


def _params(body: Mapping[str, Any], key: str) -> dict[str, Any]:
    params = body.get(key) or {}
    if not isinstance(params, Mapping):
        raise ServeError(f"{key!r} must be a JSON object of parameters")
    return dict(params)


def finite_number(value: Any, field: str) -> float:
    """``value`` as a finite float, or a :class:`ServeError` naming ``field``.

    ``json.loads`` admits ``NaN``/``Infinity`` and clients send strings; a
    bare ``float()`` would surface those as HTTP 500 or a mis-sorted queue.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ServeError(f"{field} must be a finite number, got {value!r}")
    return number


def problem_from_request(body: Mapping[str, Any]) -> PricingProblem:
    """Build one fully-specified :class:`PricingProblem` from a JSON body."""
    if not isinstance(body, Mapping):
        raise ServeError("request body must be a JSON object")
    missing = [key for key in _PROBLEM_KEYS if not body.get(key)]
    if missing:
        raise ServeError(f"request is missing {', '.join(missing)}")
    problem = PricingProblem(label=body.get("label"))
    problem.set_asset(str(body.get("asset", "equity")))
    for leg, setter in (
        ("model", problem.set_model),
        ("option", problem.set_option),
        ("method", problem.set_method),
    ):
        params = _params(body, f"{leg}_params")
        try:
            setter(str(body[leg]), **params)
        except (TypeError, ValueError, PricingError) as exc:
            # a constructor choking on or refusing a parameter value ("spot":
            # "abc", "n_paths": "many", an unknown keyword...) is the client's
            # mistake, not a server fault
            raise ServeError(f"invalid {leg}_params for {body[leg]!r}: {exc}") from None
    return problem


def portfolio_from_request(
    body: Mapping[str, Any],
) -> tuple[Portfolio, dict[int, float] | None]:
    """Build a :class:`Portfolio` plus optional per-position priorities.

    The body's ``positions`` list maps one entry to one
    :class:`~repro.core.portfolio.Position`, in submission order -- position
    index *is* the scheduler job id, so the returned priority mapping plugs
    straight into :class:`~repro.core.scheduler.PriorityPolicy`.  The
    mapping is ``None`` when no position names a priority.
    """
    if not isinstance(body, Mapping):
        raise ServeError("request body must be a JSON object")
    entries = body.get("positions")
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ServeError("a run request needs a non-empty 'positions' list")
    portfolio = Portfolio(name=str(body.get("name", "request")))
    priorities: dict[int, float] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ServeError(f"positions[{index}] must be a JSON object")
        try:
            problem = problem_from_request(entry)
        except ServeError as exc:
            raise ServeError(f"positions[{index}]: {exc}") from None
        label = entry.get("label") or problem.label or f"pos_{index}"
        portfolio.add(
            Position(
                problem=problem,
                quantity=finite_number(
                    entry.get("quantity", 1.0), f"positions[{index}].quantity"
                ),
                category=str(entry.get("category", "generic")),
                label=str(label),
            )
        )
        if entry.get("priority") is not None:
            priorities[index] = finite_number(
                entry["priority"], f"positions[{index}].priority"
            )
    return portfolio, (priorities or None)
