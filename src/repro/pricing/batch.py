"""Shared-path batch pricing: plan, group and evaluate problem families.

The paper's realistic portfolio is dominated by huge *families* of
near-identical problems -- 525 puts on the same 40-dimensional basket, 1025
calls under the same local-volatility model -- each priced by Monte-Carlo
with the same model, generator and time grid.  Priced one by one, the path
simulation (by far the dominant cost) is repeated once per position; priced
as a family, the paths can be simulated **once** and every member payoff
evaluated against the shared path array.

This module provides the planning layer on top of
:meth:`~repro.pricing.methods.montecarlo.MonteCarloEuropean.price_many`:

* :func:`simulation_signature` -- the grouping key: model parameters, rng
  kind/seed, antithetic flag, path counts/batching and the effective time
  grid.  Problems with equal signatures consume identical random-number
  streams, so the shared paths are *bit-identical* to the paths each problem
  would simulate alone;
* :func:`plan_batches` -- partition a problem list into shared-simulation
  groups and left-over singletons, preserving input order;
* :class:`ProblemBatch` -- a serializable bundle of grouped problems that
  cluster workers price as one unit (registered with the XDR codec registry,
  so it ships over every transmission strategy that serializes problems),
  written as a columnar book (:mod:`repro.pricing.book`) -- the one book
  format, which a scenario grid's base book shares;
* :func:`price_problems` -- the one-call convenience: plan, price groups via
  the shared-path engine, price singletons individually, return results in
  input order.

Grouping applies when (and only when) two problems use the *same* model
parameters, a shared-simulation-capable method (``MC_European``) with equal
parameters, and products inducing the same time grid and sampling mode.
Everything else -- closed forms, PDEs, trees, Longstaff-Schwartz, mixed
grids -- falls back to per-problem pricing, so batch mode is always safe to
enable.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import PricingError, SerializationError
from repro.pricing.book import read_book, write_book
from repro.pricing.cache import problem_digest, stable_digest
from repro.pricing.engine import PricingProblem
from repro.pricing.kernel import resolve_kernel
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.methods.montecarlo import MonteCarloEuropean, price_groups

__all__ = [
    "SimulationSignature",
    "simulation_signature",
    "BatchGroup",
    "BatchPlan",
    "plan_batches",
    "ProblemBatch",
    "price_problems",
]


@dataclass(frozen=True)
class SimulationSignature:
    """Everything that determines the simulated path set of one problem.

    Two problems with equal signatures use bit-equal model parameters and
    **fully equal method parameters** (rng kind/seed, antithetic flag, path
    counts/batching, control variate, barrier correction, ... -- the whole
    ``method.to_params()`` dictionary, folded into ``method_digest``), and
    induce the same effective time grid and sampling mode.  They therefore
    draw identical random numbers through identical model sampling calls --
    only their payoff evaluation differs.
    """

    model_digest: str
    method_name: str
    method_digest: str
    mode: str  # "paths" (full path simulation) or "terminal" (exact law)
    n_steps: int
    maturity: float


#: a leg's class and pickled parameters -> their digest, for one planning call
_Digests = dict[tuple[type, bytes], str]


def simulation_signature(problem: PricingProblem) -> SimulationSignature | None:
    """The problem's shared-simulation grouping key, or ``None``.

    ``None`` means the problem cannot take part in shared-path pricing (not a
    Monte-Carlo European method, incomplete problem, unsupported pair); it is
    then priced individually by the fallback path of :func:`price_problems`.
    Memoized on the problem until one of its legs is replaced.
    """
    return _signature(problem, None)


def _signature(
    problem: PricingProblem, digests: _Digests | None
) -> SimulationSignature | None:
    """:func:`simulation_signature`, its leg digests shared through ``digests``
    (see :func:`_leg_digest`) where that is a dict."""
    if problem._signature_cache is None:
        problem._signature_cache = (_compute_signature(problem, digests),)
    return problem._signature_cache[0]


def _leg_digest(leg: Any, digests: _Digests | None) -> str:
    """``leg.param_digest()``, taken from ``digests`` where an earlier leg of
    the same class had the same parameters.

    A digest is a JSON rendering of every parameter (tens of microseconds for
    a 10-d basket model), and a book of families repeats a few model and
    method values over many problems, each holding its own objects.  Legs are
    matched by their pickled ``to_params()``: it tells ``-0.0`` from ``0.0``
    and ``1`` from ``1.0``, so it never merges two legs whose digests differ
    (it keeps apart some whose digests are equal -- a list and an array of
    the same values -- which only costs a digest).
    """
    if digests is None or leg.__dict__.get("_digest_cache") is not None:
        return leg.param_digest()
    try:
        key = (type(leg), pickle.dumps(leg.to_params()))
    except (pickle.PicklingError, TypeError, AttributeError):
        return leg.param_digest()  # nothing to share; the digest says what is wrong
    digest = digests.get(key)
    if digest is None:
        digest = digests[key] = leg.param_digest()
    else:
        leg.__dict__["_digest_cache"] = digest  # the memo param_digest() reads
    return digest


def _compute_signature(
    problem: PricingProblem, digests: _Digests | None
) -> SimulationSignature | None:
    if not problem.is_complete:
        return None
    method = problem.method
    if not isinstance(method, MonteCarloEuropean):
        return None
    model, product = problem.model, problem.product
    if not method.supports(model, product):
        return None
    n_steps = method._effective_steps(model, product)
    mode = "paths" if (product.path_dependent or n_steps > 1) else "terminal"
    return SimulationSignature(
        model_digest=_leg_digest(model, digests),
        method_name=method.method_name,
        method_digest=_leg_digest(method, digests),
        mode=mode,
        n_steps=n_steps,
        maturity=product.maturity,
    )


@dataclass(frozen=True)
class BatchGroup:
    """One shared-simulation group of a :class:`BatchPlan` (input indices)."""

    signature: SimulationSignature
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BatchPlan:
    """Partition of a problem list into shared groups and singletons."""

    groups: tuple[BatchGroup, ...]
    singles: tuple[int, ...]

    @property
    def n_simulations_saved(self) -> int:
        """Path simulations avoided versus per-problem pricing."""
        return sum(len(group) - 1 for group in self.groups)


def plan_batches(
    problems: Sequence[PricingProblem | None], min_group_size: int = 2
) -> BatchPlan:
    """Group ``problems`` by simulation signature, in order of first member.

    ``None`` entries (jobs without an in-memory problem) and problems without
    a signature become singletons.  Groups smaller than ``min_group_size``
    degrade to singletons (a one-member "group" would only add overhead).  A
    family is never split: a plain run on worker processes already spreads a
    large one over the workers in book slices.

    ``min_group_size=1`` keeps size-1 families as real groups.  That is the
    scenario-grid configuration (:mod:`repro.pricing.scenarios`): bumped
    model variants have *distinct* signatures (the bump changes the model
    digest) but stackable schemes share one draw cohort across groups, so
    even one-member groups belong in the stacked plan rather than the
    per-problem fallback.

    Each distinct model and method value is digested once per call: legs with
    exactly equal parameters take the first one's digest (:func:`_leg_digest`).
    """
    if min_group_size < 1:
        raise PricingError("min_group_size must be >= 1")
    by_signature: dict[SimulationSignature, list[int]] = {}
    singles: list[int] = []
    digests: _Digests = {}
    for index, problem in enumerate(problems):
        signature = None if problem is None else _signature(problem, digests)
        if signature is None:
            singles.append(index)
        else:
            by_signature.setdefault(signature, []).append(index)

    groups: list[BatchGroup] = []
    for signature, indices in by_signature.items():
        if len(indices) < min_group_size:
            singles.extend(indices)
        else:
            groups.append(BatchGroup(signature=signature, indices=tuple(indices)))
    return BatchPlan(groups=tuple(groups), singles=tuple(sorted(singles)))


class ProblemBatch:
    """A bundle of problems sharing one simulation signature.

    The batch is what the master ships to a worker in batch mode: one message
    carrying a whole family.  ``compute()`` prices every member against the
    shared path set and returns one :class:`PricingResult` per member, in
    member order.  The class round-trips through the XDR serializer (codec
    registered in :mod:`repro.serial`), so every transmission strategy that
    serializes problems can carry batches unchanged.

    The wire form (:meth:`wire_view`) is the members' columnar book
    (:mod:`repro.pricing.book`), the one book format a scenario grid writes
    too.  :meth:`compute` prices every member with the first member's model
    and method (equal signatures mean equal model and method digests), so the
    book carries that leader's model and method headers, one row each, and an
    option row per member; the rebuilt members share the leader's
    :class:`Model` and :class:`PricingMethod` objects.
    """

    def __init__(
        self,
        problems: Sequence[PricingProblem],
        keys: Sequence[int] | None = None,
        kernel: str | None = None,
    ):
        problems = list(problems)
        if len(problems) < 1:
            raise PricingError("a ProblemBatch needs at least one problem")
        if keys is None:
            keys = list(range(len(problems)))
        keys = [int(key) for key in keys]
        if len(keys) != len(problems):
            raise PricingError("ProblemBatch keys must match the problems one-to-one")
        reference = simulation_signature(problems[0])
        if reference is None:
            raise PricingError(
                "ProblemBatch members must support shared-path simulation "
                "(Monte-Carlo European problems with a simulation signature)"
            )
        for problem in problems[1:]:
            if simulation_signature(problem) != reference:
                raise PricingError(
                    "all ProblemBatch members must share one simulation signature"
                )
        self.problems = problems
        self.keys = keys
        self.signature = reference
        #: evaluation strategy for the shared pass -- never part of the
        #: simulation signature or any digest (both kernels are bit-equal)
        self.kernel = resolve_kernel(kernel)

    def __len__(self) -> int:
        return len(self.problems)

    @property
    def label(self) -> str:
        return f"batch[{len(self.problems)}]@{self.signature.model_digest[:12]}"

    # -- pricing -----------------------------------------------------------------
    def compute(self) -> ResultColumns:
        """Price all members and answer one :class:`ResultColumns` keyed by ``keys``.

        If the shared pass fails (e.g. one member's payoff produces a
        non-finite price), the batch degrades to per-member pricing so a
        single bad member cannot fail its whole family: healthy members
        still answer a row, the bad one an entry of ``errors`` (matching
        what an unbatched run would have reported).
        """
        members = list(zip(self.keys, self.problems))
        method, model = self.problems[0].method, self.problems[0].model
        results: Sequence[PricingResult | None]
        try:
            results = method.price_many(
                model, [problem.product for problem in self.problems], kernel=self.kernel
            )
        except Exception:  # noqa: BLE001 - isolate the failing member below
            results = [None] * len(members)
        return answer_members(members, results)

    # -- serialization ----------------------------------------------------------
    def wire_view(self) -> dict[str, Any]:
        """The batch as the codec writes it (read-only, like
        :meth:`PricingProblem.wire_view`): the members' columnar book under
        the leader's headers (:func:`~repro.pricing.book.write_book`), their
        keys and the kernel."""
        return {"book": write_book(self.problems, self.problems[0].wire_legs()[:2]),
                "keys": self.keys, "kernel": self.kernel}

    def to_dict(self) -> dict[str, Any]:
        """An independent deep copy of :meth:`wire_view`."""
        return copy.deepcopy(self.wire_view())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProblemBatch":
        """Rebuild a batch; a payload of the wrong shape raises
        :class:`~repro.errors.SerializationError` naming the field."""
        problems, keys = read_book(data.get("book"), "ProblemBatch"), data.get("keys")
        if (
            not isinstance(keys, list)
            or len(keys) != len(problems)
            or not all(isinstance(key, int) for key in keys)
        ):
            raise SerializationError(
                "ProblemBatch payload: 'keys' must list one integer per member"
            )
        try:
            return cls(problems, keys=keys, kernel=data.get("kernel"))
        except PricingError as exc:
            raise SerializationError(f"ProblemBatch payload: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ProblemBatch(n={len(self.problems)}, signature={self.signature.mode!r})"


def answer_members(
    members: Sequence[tuple[int, PricingProblem]],
    results: "Sequence[PricingResult | None]",
) -> ResultColumns:
    """The one reply of a payload with members.

    ``members[i]`` (a key and its problem) was priced to ``results[i]`` by the
    shared pass, or ``None`` where that pass failed: such a member is priced
    alone here (bit-identical either way -- same seeds, same code), so only
    the bad ones land in ``errors``.
    """
    ids: list[int] = []
    answered: list[PricingResult] = []
    errors: dict[int, str] = {}
    for (key, problem), result in zip(members, results):
        if result is None:
            try:
                result = problem.compute()
            except Exception as exc:  # noqa: BLE001 - per-member error capture
                errors[key] = f"{type(exc).__name__}: {exc}"
                continue
        else:
            problem._result = result
        ids.append(key)
        answered.append(result)
    return ResultColumns.from_results(ids, answered, errors)


def batch_digest(batch: ProblemBatch) -> str:
    """Stable digest of a whole batch (its members' digests, in order)."""
    return stable_digest([problem_digest(problem) for problem in batch.problems])


def price_problems(
    problems: Sequence[PricingProblem],
    min_group_size: int = 2,
    kernel: str | None = None,
) -> list[PricingResult]:
    """Price ``problems`` with shared-path grouping, in input order.

    Grouped members go through the shared-path engine; singletons fall back
    to ``problem.compute()``.  Every result is also stored on its problem
    (``problem.get_method_results()`` works afterwards), and prices are
    bit-identical to per-problem pricing for any grouping.

    **All** groups of the plan go through one
    :func:`~repro.pricing.methods.montecarlo.price_groups` call: with
    ``kernel="stacked"`` (the default) groups with identical simulation
    signatures up to model parameters share one normal-draw cohort instead
    of each re-drawing the same stream; ``kernel="loop"`` gives each group
    its own.  Prices are bit-identical either way.  If that call fails, each
    group is priced again on its own so the error names the failing member.
    """
    kernel = resolve_kernel(kernel)
    problems = list(problems)
    plan = plan_batches(problems, min_group_size=min_group_size)
    results: dict[int, PricingResult] = {}
    batches = [
        ProblemBatch([problems[i] for i in group.indices],
                     keys=list(group.indices), kernel=kernel)
        for group in plan.groups
    ]
    try:
        per_group = price_groups(
            [
                (batch.problems[0].method, batch.problems[0].model,
                 [problem.product for problem in batch.problems])
                for batch in batches
            ],
            kernel=kernel,
        )
    except Exception:  # noqa: BLE001 - degrade to per-group evaluation
        per_group = None
    if per_group is not None:
        for batch, group_results in zip(batches, per_group):
            for key, problem, result in zip(batch.keys, batch.problems, group_results):
                problem._result = result
                results[key] = result
    else:
        for batch in batches:
            for key, entry in batch.compute().items():
                if "error" in entry:
                    # match unbatched semantics: computing this problem raises
                    raise PricingError(
                        f"problem {problems[key].label or key!r} failed in a "
                        f"shared-path batch: {entry['error']}"
                    )
                # compute() stored the full PricingResult on each member problem
                results[key] = problems[key].get_method_results()
    for index in plan.singles:
        results[index] = problems[index].compute()
    return [results[index] for index in range(len(problems))]
