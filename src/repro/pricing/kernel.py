"""The Monte-Carlo European estimator loop: many groups, one numpy computation.

Every Monte-Carlo European price runs here -- a single problem, a
shared-path group of :meth:`~repro.pricing.methods.montecarlo.
MonteCarloEuropean.price_many`, a :class:`~repro.pricing.batch.ProblemBatch`
and a whole batch plan -- through :func:`run_groups`, which simulates batch
by batch and folds every member's payoff into its accumulators.  The
``kernel`` value (``ValuationSession.run(kernel=...)``, ``price_many``,
``ProblemBatch``) does not choose another engine; it sets two properties of
this one loop:

* ``"stacked"`` (the default) -- **draw cohorts** across groups and
  **payoff families** within a group, both described below;
* ``"loop"`` -- every group is its own cohort and every member is folded
  alone by ``MonteCarloEuropean._fold_member``, one after another.

With ``"stacked"``:

* **draw cohorts** -- groups of a plan whose methods share (rng kind, seed,
  antithetic flag, path counts, batching) and whose models share a stacked
  sampling scheme consume **one** shared normal draw per batch.  Each group's
  solo simulation would have drawn exactly the same numbers from its own
  fresh generator, so sharing the draw changes nothing;
* **stacked simulation** -- the shared draw is expanded into a
  ``(n_groups, n_paths, n_steps + 1)`` path array, built in place, with
  per-group drift/vol broadcast down the leading axis (see the
  ``stacked_*`` samplers on the model classes; a model's solo sampler is
  the same function at one member).
  Models without a stacked sampler (Heston, Merton, custom subclasses)
  fall back to their own solo sampler per cohort, still shared across
  identical-model groups;
* **vectorized payoffs** -- members of a group are partitioned into payoff
  *families* (vanilla calls/puts, digitals, baskets with equal weights,
  barriers, Asians); each family evaluates all member payoffs as one masked
  array expression over the stacked terminal/path arrays, with per-member
  strike/barrier/rebate columns.  Unrecognised products fall back to the
  per-member fold.

Every vectorized expression mirrors the per-member fold's IEEE operation
sequence -- same draws in the same order, same parenthesisation, same
per-batch accumulation -- so prices and per-path samples are **bit-identical**
to ``"loop"``.  The claim is enforced mechanically by the
``tests/differential`` suite, which asserts ``np.array_equal`` over a matrix
of (model x product x antithetic x batch shape) coordinates, against each
other and against the per-group loop production once had
(``tests/oracles/estimator.py``).

This module is under the repro-lint determinism contract: it never reads a
wall clock or an entropy source; all randomness comes from the seeded
generators injected by the method parameters.  (Elapsed-time stamping
happens in :mod:`repro.pricing.methods.montecarlo`, outside this module.)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingResult
from repro.pricing.methods.montecarlo import MonteCarloEuropean, _MemberState
from repro.pricing.models.base import Model, StackedSampler
from repro.pricing.products.asian import AsianOption
from repro.pricing.products.barrier import BarrierOption
from repro.pricing.products.base import Product
from repro.pricing.products.basket import BasketOption
from repro.pricing.products.vanilla import (
    DigitalCall,
    DigitalPut,
    EuropeanCall,
    EuropeanPut,
)
from repro.pricing.rng import AntitheticGenerator, RandomGenerator, create_generator

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
    "run_groups",
    "draw_digest",
]

#: the settings of the estimator loop selectable through run(kernel=) / price_many
KERNELS = ("loop", "stacked")

#: the kernel every entry point runs when the caller names none (the only
#: place the choice is made: callers pass ``None`` through to
#: :func:`resolve_kernel`)
DEFAULT_KERNEL = "stacked"

#: memory budget for one stacked simulation chunk, in float64 elements
#: (~128 MiB); a cohort whose groups would exceed it is split into chunks,
#: each consuming the same stream -- replayed from the first chunk's draw
#: tape when it fits the budget below, re-drawn from a fresh generator
#: otherwise -- bit-identical per group either way
_MAX_STACK_ELEMENTS = 1 << 24

#: memory budget for a cohort's recorded draw tape, in float64 elements;
#: multi-chunk cohorts below it replay the first chunk's draws instead of
#: re-generating them (the win is large for quasi-random generators, where
#: every draw pays a normal-inverse transform)
_MAX_TAPE_ELEMENTS = 1 << 24

#: per-batch sample sink: ``sink(member_index, payoffs)`` receives the
#: (pair-averaged when antithetic) payoff samples of each batch
SampleSink = Callable[[int, np.ndarray], None]

#: one group of the plan: (method, model, member products)
GroupSpec = tuple[MonteCarloEuropean, Model, Sequence[Product]]


def resolve_kernel(kernel: str | None) -> str:
    """Normalise and validate a kernel name (``None`` means the default)."""
    if kernel is None:
        return DEFAULT_KERNEL
    kernel = str(kernel).lower()
    if kernel not in KERNELS:
        raise PricingError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


# -- payoff families -----------------------------------------------------------


@dataclass
class _Family:
    """One vectorizable payoff family inside a group."""

    kind: str  # "vanilla" | "basket" | "barrier" | "asian"
    sub: str  # payoff discriminator (class name or payoff_type)
    indices: list[int]
    use_cv: bool
    strikes: np.ndarray
    product0: Any  # representative adjusted product (shared observables)
    barriers: np.ndarray | None = None
    rebates: np.ndarray | None = None
    is_down: bool = False
    is_knock_out: bool = False


def _family_key(product: Product, mode_paths: bool) -> tuple[Any, ...] | None:
    """Family key of a member, or ``None`` for the per-member fallback.

    The identity checks guard against subclasses overriding the payoff
    hooks: a product only joins a vectorized family when the exact
    per-member fold expressions we mirror are the ones it would execute.
    """
    cls = type(product)
    if isinstance(product, BarrierOption):
        if not mode_paths:
            return None
        if (
            cls.path_payoff is BarrierOption.path_payoff
            and cls.breached is BarrierOption.breached
            and cls.vanilla_payoff is BarrierOption.vanilla_payoff
        ):
            return ("barrier", product.barrier_type, product.payoff_type)
        return None
    if isinstance(product, AsianOption):
        if not mode_paths:
            return None
        if cls.path_payoff is AsianOption.path_payoff and cls.average is AsianOption.average:
            return ("asian", product.payoff_type)
        return None
    if isinstance(product, BasketOption):
        if (
            cls.terminal_payoff is BasketOption.terminal_payoff
            and cls.basket_value is BasketOption.basket_value
            and cls.path_payoff is Product.path_payoff
        ):
            return ("basket", product.payoff_type, product.weights.tobytes())
        return None
    if cls in (EuropeanCall, EuropeanPut, DigitalCall, DigitalPut):
        return ("vanilla", cls.__name__)
    return None


def _build_families(
    members: list[_MemberState], mode_paths: bool
) -> tuple[list[_Family], list[int]]:
    grouped: dict[tuple[Any, ...], list[int]] = {}
    fallback: list[int] = []
    for j, member in enumerate(members):
        key = _family_key(member.product_adj, mode_paths)
        if key is None:
            fallback.append(j)
        else:
            grouped.setdefault(key, []).append(j)
    families: list[_Family] = []
    for key, indices in grouped.items():
        kind = key[0]
        adjs: list[Any] = [members[j].product_adj for j in indices]
        strikes = np.array([adj.strike for adj in adjs], dtype=float)
        fam = _Family(
            kind=kind,
            sub=key[1] if kind == "vanilla" else adjs[0].payoff_type,
            indices=indices,
            use_cv=members[indices[0]].use_cv,
            strikes=strikes,
            product0=adjs[0],
        )
        if kind == "barrier":
            fam.barriers = np.array([adj.barrier for adj in adjs], dtype=float)
            fam.rebates = np.array([adj.rebate for adj in adjs], dtype=float)
            fam.is_down = adjs[0].is_down
            fam.is_knock_out = adjs[0].is_knock_out
        families.append(fam)
    return families, fallback


# -- groups and cohorts --------------------------------------------------------


@dataclass
class _Group:
    """One shared-simulation group prepared for the estimator loop."""

    method: MonteCarloEuropean
    model: Model
    members: list[_MemberState]
    n_steps: int
    maturity: float
    mode_paths: bool
    families: list[_Family]
    fallback: list[int]
    sink: SampleSink | None
    results: list[PricingResult] = field(default_factory=list)


def _build_group(
    method: MonteCarloEuropean,
    model: Model,
    products: Sequence[Product],
    sink: SampleSink | None,
    kernel: str,
) -> _Group:
    products = list(products)
    if not products:
        raise PricingError("a shared-path group needs at least one product")
    if not isinstance(method, MonteCarloEuropean):
        raise PricingError("the estimator loop only prices MonteCarloEuropean groups")
    for product in products:
        method.check_supports(model, product)
    n_steps = method._effective_steps(model, products[0])
    maturity = products[0].maturity
    mode_paths = products[0].path_dependent or n_steps > 1
    for product in products[1:]:
        if not method.shares_simulation(model, products[0], product):
            raise PricingError(
                "products in a shared-path batch must induce the same "
                "simulation grid and sampling mode"
            )
    members = [
        _MemberState(
            product=product,
            product_adj=method._adjusted_product(model, product, n_steps),
            use_cv=method.control_variate and not product.path_dependent,
            discount=model.discount_factor(product.maturity),
        )
        for product in products
    ]
    if kernel == "stacked":
        families, fallback = _build_families(members, mode_paths)
    else:
        families, fallback = [], list(range(len(members)))
    return _Group(
        method=method,
        model=model,
        members=members,
        n_steps=n_steps,
        maturity=maturity,
        mode_paths=mode_paths,
        families=families,
        fallback=fallback,
        sink=sink,
    )


def _stacked_sampler(model: Model, mode_paths: bool) -> Callable[..., Any] | None:
    """The stacked sampler a model's solo sampler runs, ``None`` if opaque.

    A :class:`StackedSampler` samples alone as its one-member stack; a class
    that overrides the solo sampler, or has none to stack (Heston, Merton),
    is opaque.  Models sharing a sampler -- the function, hence the class
    that defines it -- can share one stacked draw.
    """
    name = "simulate_paths" if mode_paths else "sample_terminal"
    cls = type(model)
    if getattr(cls, name) is not getattr(StackedSampler, name):
        return None
    return getattr(cls, "stacked_" + name)


def _cohort_key(group: _Group) -> tuple[Any, ...]:
    """Groups with equal keys consume identical draw streams when priced solo.

    Models with one stacked sampler share draws across *different* models
    (each solo run would draw the same numbers from its same-seeded
    generator); opaque models only share with bit-equal models, so the model
    digest joins the key.
    """
    sampler = _stacked_sampler(group.model, group.mode_paths)
    tag = sampler if sampler is not None else "opaque:" + group.model.param_digest()
    method = group.method
    return (
        tag,
        group.mode_paths,
        group.n_steps,
        group.maturity,
        method.rng_kind,
        method.seed,
        method.antithetic,
        method.n_paths,
        method.batch_size,
        max(group.model.dimension, 1),
    )


def _group_elements(group: _Group) -> tuple[int, int]:
    """Peak float64 elements one batch of this group's simulation holds:
    ``(draw, output)``.

    The draw is the base generator's ``(batch, d * steps)`` block -- half as
    tall under antithetic sampling, plus the mirrored whole beside it; the
    output is the terminal values or the paths.  The samplers transform
    the draw in place and write straight into the output, so these two
    are the whole of a batch (an upper bound: a multi-asset path sampler
    draws one step at a time).  A cohort's groups share one draw.
    """
    d = max(group.model.dimension, 1)
    batch = min(group.method.batch_size, group.method.n_paths + 1)
    draw = batch * d * (group.n_steps if group.mode_paths else 1)
    if group.method.antithetic:
        draw += draw // 2
    output = batch * d * (group.n_steps + 1 if group.mode_paths else 1)
    return draw, output


def _chunk_groups(groups: list[_Group]) -> list[list[_Group]]:
    """Split a cohort so each chunk -- one shared draw and every group's
    output -- stays under the stack memory budget."""
    draw = _group_elements(groups[0])[0]
    chunks: list[list[_Group]] = []
    current: list[_Group] = []
    used = draw
    for group in groups:
        cost = _group_elements(group)[1]
        if current and used + cost > _MAX_STACK_ELEMENTS:
            chunks.append(current)
            current, used = [], draw
        current.append(group)
        used += cost
    if current:
        chunks.append(current)
    return chunks


# -- random draws --------------------------------------------------------------


class _RecordingGenerator(RandomGenerator):
    """Pass-through generator feeding every raw draw into a byte sink.

    Used by :func:`draw_digest` to pin the stacked kernel's raw random
    stream: the wrapper sits *below* the antithetic wrapper, so exactly the
    base draws (what seeds the whole computation) are hashed.
    """

    name = "recording"

    def __init__(self, base: RandomGenerator, update: Callable[[bytes], None]):
        self.base = base
        self._update = update

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        draw = self.base.normals(shape)
        self._update(np.ascontiguousarray(draw).tobytes())
        return draw

    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        draw = self.base.uniforms(shape)
        self._update(np.ascontiguousarray(draw).tobytes())
        return draw

    def spawn(self, n: int) -> list["RandomGenerator"]:
        return [_RecordingGenerator(g, self._update) for g in self.base.spawn(n)]


class _TapeGenerator(RandomGenerator):
    """Records the first chunk's base draws; replays them to later chunks.

    A cohort split into memory chunks restarts the same generator from the
    same seed, so every chunk draws *identical* arrays in identical order.
    The tape keeps the first chunk's draws (frozen read-only) and hands the
    very same objects back to the later chunks, skipping the re-generation
    -- which for quasi-random generators means skipping the expensive
    normal-inverse transform entirely.  Bit-exact by identity.
    """

    name = "tape"

    def __init__(self, base: RandomGenerator, tape: list, replay: bool):
        self.base = base
        self._tape = tape
        self._replay = replay
        self._pos = 0

    def _next(self, kind: str, shape: tuple) -> np.ndarray:
        if self._pos >= len(self._tape):
            raise PricingError("draw tape exhausted: chunk draw structures diverged")
        stored_kind, draw = self._tape[self._pos]
        self._pos += 1
        if stored_kind != kind or draw.shape != tuple(int(s) for s in shape):
            raise PricingError("draw tape mismatch: chunk draw structures diverged")
        return draw

    def _store(self, kind: str, draw: np.ndarray) -> np.ndarray:
        draw.setflags(write=False)
        self._tape.append((kind, draw))
        return draw

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        if self._replay:
            return self._next("n", shape)
        return self._store("n", self.base.normals(shape))

    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        if self._replay:
            return self._next("u", shape)
        return self._store("u", self.base.uniforms(shape))

    def spawn(self, n: int) -> list[RandomGenerator]:
        raise PricingError("tape generators cannot spawn")


def _cohort_rng(
    method: MonteCarloEuropean,
    dimension: int,
    record: Callable[[bytes], None] | None,
    tape: list | None = None,
    replay: bool = False,
) -> RandomGenerator:
    """The cohort's generator: ``method``'s rng kind and seed, antithetic
    when ``method`` is -- what each of the cohort's groups would draw alone.

    With a ``tape``, the base draws are recorded (first chunk) or replayed
    (later chunks) *below* the recording wrapper, so ``record`` observes the
    exact byte stream a re-drawing chunk would have produced.
    """
    rng = create_generator(method.rng_kind, seed=method.seed, dimension=dimension)
    if tape is not None:
        rng = _TapeGenerator(rng, tape, replay)
    if record is not None:
        rng = _RecordingGenerator(rng, record)
    if method.antithetic:
        rng = AntitheticGenerator(rng)
    return rng


def _simulate(
    sampler: Callable[..., Any] | None,
    models: list[Any],
    rng: RandomGenerator,
    batch: int,
    times: np.ndarray,
    maturity: float,
    mode_paths: bool,
) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """One batch of simulation for every group: ``[(paths, terminal), ...]``."""
    grid = times if mode_paths else maturity
    if sampler is None:
        # opaque sampler: all cohort members carry bit-equal models (the
        # digest is part of the cohort key), so one solo simulation serves
        # every group -- each would have produced exactly this array
        solo = models[0].simulate_paths if mode_paths else models[0].sample_terminal
        arrs = [solo(rng, batch, grid)] * len(models)
    else:
        arrs = sampler(models, rng, batch, grid)
    if mode_paths:
        return [(arr, arr[:, -1]) for arr in arrs]
    return [(None, arr) for arr in arrs]


# -- payoff evaluation ---------------------------------------------------------


def _intrinsic(x: np.ndarray, strikes: np.ndarray, call: bool) -> np.ndarray:
    """``max(x - K, 0)`` (call) or ``max(K - x, 0)`` (put) with one strike
    per row: one new ``(n_members, batch)`` array."""
    if call:
        out = np.subtract(x[None, :], strikes[:, None])
    else:
        out = np.subtract(strikes[:, None], x[None, :])
    return np.maximum(out, 0.0, out=out)


def _family_payoffs(
    fam: _Family,
    paths: np.ndarray | None,
    terminal: np.ndarray,
    lo: np.ndarray | None,
    hi: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Payoff matrix ``(n_members, batch)`` and shared control array.

    Each row reproduces the member's ``_fold_member`` payoff expression with
    the member parameter broadcast as a column; the control variate (when
    used) is the fold's ``_control_value`` observable, computed once per
    family.  The matrix is the one ``(n_members, batch)`` array built: every
    step after the first writes into it.  The simulated arrays are only
    read -- an opaque cohort hands one array to all its groups.
    """
    if fam.kind == "vanilla":
        if fam.sub.startswith("Digital"):
            payoffs = np.empty((len(fam.strikes), len(terminal)))
            compare = np.greater if fam.sub == "DigitalCall" else np.less
            compare(terminal[None, :], fam.strikes[:, None], out=payoffs)
        else:
            payoffs = _intrinsic(terminal, fam.strikes, fam.sub == "EuropeanCall")
        return payoffs, (terminal if fam.use_cv else None)
    if fam.kind == "basket":
        basket = fam.product0.basket_value(terminal)
        payoffs = _intrinsic(basket, fam.strikes, fam.sub == "call")
        if not fam.use_cv:
            return payoffs, None
        # mirror _control_value: `terminal @ weights` for (n, d) terminals
        # (== basket_value bit-for-bit), the raw terminal for 1-d baskets
        return payoffs, (basket if terminal.ndim == 2 else terminal)
    if fam.kind == "asian":
        return _intrinsic(fam.product0.average(paths), fam.strikes, fam.sub == "call"), None
    # barrier: (min <= B) is element-for-element the fold's (paths <= B).any()
    assert fam.barriers is not None and fam.rebates is not None
    ref = lo if fam.is_down else hi
    assert ref is not None and paths is not None
    if fam.is_down:
        breached = ref[None, :] <= fam.barriers[:, None]
    else:
        breached = ref[None, :] >= fam.barriers[:, None]
    payoffs = _intrinsic(paths[:, -1], fam.strikes, fam.sub == "call")
    if fam.is_knock_out:
        np.copyto(payoffs, fam.rebates[:, None], where=breached)
    else:
        np.copyto(payoffs, 0.0, where=np.logical_not(breached, out=breached))
    return payoffs, None


def _accumulate_group(
    group: _Group,
    paths: np.ndarray | None,
    terminal: np.ndarray,
    times: np.ndarray,
    half: int,
) -> None:
    """Fold one batch into every member's accumulators (bit-identical to
    folding each member alone with ``_fold_member``).

    A family holds at most two ``(n_members, batch)`` arrays at once: its
    payoffs (or their pair averages) and one scratch for the squares and
    cross products.  Both are new each batch, since a sample sink may keep
    the payoff rows it is handed.
    """
    antithetic = group.method.antithetic
    lo = hi = None
    if paths is not None and paths.ndim == 2:
        if any(fam.kind == "barrier" and fam.is_down for fam in group.families):
            lo = paths.min(axis=1)
        if any(fam.kind == "barrier" and not fam.is_down for fam in group.families):
            hi = paths.max(axis=1)
    for fam in group.families:
        payoffs, control = _family_payoffs(fam, paths, terminal, lo, hi)
        if antithetic:
            payoffs = np.add(payoffs[:, :half], payoffs[:, half:])
            payoffs *= 0.5
            if control is not None:
                control = 0.5 * (control[:half] + control[half:])
        row_sum = payoffs.sum(axis=1)
        scratch = np.multiply(payoffs, payoffs)
        row_sum2 = scratch.sum(axis=1)
        if control is not None:
            control_sum = control.sum()
            control_sum2 = (control**2).sum()
            cross = np.multiply(payoffs, control[None, :], out=scratch).sum(axis=1)
        del scratch  # freed before the next family builds its payoffs
        for i, j in enumerate(fam.indices):
            member = group.members[j]
            member.sum_payoff += row_sum[i]
            member.sum_payoff2 += row_sum2[i]
            if control is not None:
                member.sum_control += control_sum
                member.sum_control2 += control_sum2
                member.sum_cross += cross[i]
        if group.sink is not None:
            for i, j in enumerate(fam.indices):
                group.sink(j, payoffs[i])
    for j in group.fallback:
        samples = group.method._fold_member(
            group.model, group.members[j], paths, terminal, times, half
        )
        if group.sink is not None:
            group.sink(j, samples)


# -- the engine ----------------------------------------------------------------


def _run_chunk(
    groups: list[_Group],
    record: Callable[[bytes], None] | None,
    tape: list | None = None,
    replay: bool = False,
) -> None:
    """Price one cohort chunk: shared draws, per-group member evaluation."""
    method0 = groups[0].method
    model0 = groups[0].model
    mode_paths = groups[0].mode_paths
    n_steps = groups[0].n_steps
    maturity = groups[0].maturity
    sampler = _stacked_sampler(model0, mode_paths)
    models = [group.model for group in groups]
    times = np.linspace(0.0, maturity, n_steps + 1)

    n_total = method0.n_paths
    if method0.antithetic and n_total % 2:
        # odd n_paths: simulate one extra path to complete the last
        # antithetic pair, report exact counts
        n_total += 1

    n_done = 0
    n_samples = 0
    rng = _cohort_rng(method0, max(model0.dimension, 1), record, tape, replay)
    # simulate batch by batch (bounding memory) and evaluate every member's
    # payoff against the same path array
    while n_done < n_total:
        batch = min(method0.batch_size, n_total - n_done)
        if method0.antithetic:
            # keep antithetic pairs inside one batch; n_total is even, so
            # flooring (rather than padding past batch_size) never stalls
            # and the memory bound is respected even for odd batch sizes
            batch -= batch % 2
        sims = _simulate(sampler, models, rng, batch, times, maturity, mode_paths)
        half = batch // 2
        for group, (paths, terminal) in zip(groups, sims):
            _accumulate_group(group, paths, terminal, times, half)
        n_done += batch
        n_samples += half if method0.antithetic else batch

    # exact sample accounting: the estimator consumed n_samples
    # (pair-averaged) samples, i.e. n_paths_used simulated paths -- no
    # padded phantom paths are ever reported
    n_paths_used = 2 * n_samples if method0.antithetic else n_samples
    for group in groups:
        group.results = [
            group.method._finalize_member(
                group.model, member, n_samples, n_paths_used, group.n_steps
            )
            for member in group.members
        ]


def run_groups(
    groups: Sequence[GroupSpec],
    sample_sinks: dict[int, SampleSink] | None = None,
    record: Callable[[bytes], None] | None = None,
    kernel: str | None = None,
) -> list[list[PricingResult]]:
    """Price every group of a plan through the one estimator loop.

    ``groups`` is a sequence of ``(method, model, products)`` tuples -- one
    per shared-simulation group.  With ``kernel="stacked"`` (the default)
    groups are clustered into draw cohorts, each cohort simulated as one
    stacked computation (chunked to a memory budget), and each group's
    members evaluated family-vectorized; with ``kernel="loop"`` every group
    is its own cohort and its members are folded one by one.  Returns one
    result list per group, in input order, bit-identical across ``kernel``
    values and groupings.

    ``sample_sinks`` optionally maps a group index to a callable receiving
    ``(member_index, payoff_batch)`` for every batch -- the differential
    harness uses it to compare per-path samples, not just prices.
    ``record`` receives the raw bytes of every underlying random draw (see
    :func:`draw_digest`).
    """
    kernel = resolve_kernel(kernel)
    built = []
    for gi, (method, model, products) in enumerate(groups):
        sink = sample_sinks.get(gi) if sample_sinks else None
        built.append(_build_group(method, model, products, sink, kernel))
    cohorts: dict[Any, list[_Group]] = {}
    for gi, group in enumerate(built):
        cohorts.setdefault(_cohort_key(group) if kernel == "stacked" else gi, []).append(group)
    for cohort in cohorts.values():
        chunks = _chunk_groups(cohort)
        tape = [] if len(chunks) > 1 and _tape_elements(cohort[0]) <= _MAX_TAPE_ELEMENTS \
            else None
        for index, chunk in enumerate(chunks):
            _run_chunk(chunk, record, tape, replay=(tape is not None and index > 0))
    return [group.results for group in built]


def _tape_elements(group: _Group) -> int:
    """Estimated float64 draw volume of one chunk of the group's cohort.

    Exact for the diffusion schemes (one base draw per path, per step, per
    asset; halved by antithetic mirroring); a lower bound for opaque
    samplers with auxiliary draws (stochastic vol, jump counts), which is
    acceptable for a memory *budget* heuristic.
    """
    method = group.method
    n_total = method.n_paths + (method.n_paths % 2 if method.antithetic else 0)
    per_path = max(group.model.dimension, 1) * (group.n_steps if group.mode_paths else 1)
    return (n_total // 2 if method.antithetic else n_total) * per_path


def draw_digest(
    method: MonteCarloEuropean, model: Model, products: Sequence[Product]
) -> str:
    """SHA-256 hex digest of the raw random stream the stacked kernel draws.

    The digest covers every base-generator draw (below the antithetic
    wrapper) in consumption order, so it pins the RNG stream itself: a
    regression that changes *what* is drawn is caught even if both kernels
    drift together and still agree with each other.
    """
    hasher = hashlib.sha256()
    run_groups([(method, model, list(products))], record=hasher.update)
    return hasher.hexdigest()
