"""Worker-side job execution shared by the real backends.

Both the sequential backend and the multiprocessing workers run the same
two code paths as the paper's slave script (Fig. 4):

* receive serialized bytes, unpack/unserialize, rebuild the problem
  (*full load* and *serialized load* strategies);
* receive a file name and read the problem from the shared file system
  (*NFS* strategy).

After rebuilding the problem the worker calls ``compute()`` and returns the
result as a plain dictionary, which is what ``MPI_Send_Obj(L(1)(3), 0, ...)``
ships back in the paper's script.

A payload may also decode to a *payload with members*: a
:class:`~repro.pricing.batch.ProblemBatch` (a whole shared-simulation family
shipped as one message, priced against one path set) or a
:class:`~repro.pricing.scenarios.ScenarioGrid` (a base book and a slice of
scenarios, expanded and priced on the worker).  Either answers ``compute()``
with one :class:`~repro.pricing.methods.base.ResultColumns` record -- a column
per result field, a row per member -- which travels back as it is and which
the master scatters into its per-position table
(:class:`~repro.core.runner.ResultTable`).

A worker prices what it is sent.  The result cache is the master's: its
cache pass answers a position already priced, or repeated within the run,
before anything is dispatched (:mod:`repro.api.plan`).
"""

from __future__ import annotations

import time
from typing import Any

from repro.cluster.backends.base import PAYLOAD_PATH, PAYLOAD_SERIAL
from repro.errors import ClusterError
from repro.pricing.batch import ProblemBatch
from repro.pricing.engine import PricingProblem
from repro.pricing.methods.base import ResultColumns
from repro.pricing.scenarios import ScenarioGrid
from repro.serial import Serial
from repro.serial import load as load_problem_file

__all__ = [
    "materialize_problem",
    "execute_payload",
]


#: the payloads that carry several positions and answer them in one reply
_MEMBER_PAYLOADS = (ProblemBatch, ScenarioGrid)


def materialize_problem(
    kind: str, payload: Any
) -> PricingProblem | ProblemBatch | ScenarioGrid:
    """Rebuild a :class:`PricingProblem` (or a payload with members: a
    :class:`ProblemBatch`, a :class:`ScenarioGrid`) from a transmitted payload."""
    if kind == PAYLOAD_SERIAL:
        if isinstance(payload, Serial):
            problem = payload.unserialize()
        else:
            problem = Serial.from_bytes(payload).unserialize()
    elif kind == PAYLOAD_PATH:
        problem = load_problem_file(payload)
    else:
        raise ClusterError(f"unknown payload kind {kind!r}")
    if not isinstance(problem, (PricingProblem, *_MEMBER_PAYLOADS)):
        raise ClusterError(
            f"payload decoded to {type(problem).__name__}, expected a "
            f"PricingProblem, a ProblemBatch or a ScenarioGrid"
        )
    return problem


def execute_payload(
    kind: str, payload: Any
) -> tuple[dict[str, Any] | ResultColumns | None, float, str | None]:
    """Rebuild and compute a problem (or a payload with members).

    Returns ``(result, compute_seconds, error_message)`` -- ``result`` the
    problem's result dictionary, or the members' :class:`ResultColumns`; errors are
    captured rather than raised so a single bad problem does not bring the
    whole worker down (the master records the error in the run report).
    """
    start = time.perf_counter()
    try:
        problem = materialize_problem(kind, payload)
        if isinstance(problem, _MEMBER_PAYLOADS):
            members = problem.compute()
            return members, time.perf_counter() - start, None
        result = problem.compute()
        elapsed = time.perf_counter() - start
        return result.as_dict(), elapsed, None
    except Exception as exc:  # noqa: BLE001 - worker must survive bad jobs
        elapsed = time.perf_counter() - start
        return None, elapsed, f"{type(exc).__name__}: {exc}"
