"""Property-based tests for :func:`repro.pricing.batch.plan_batches`.

Three invariants must hold for *every* input, not just the hand-picked
examples in ``test_batch.py``:

* **partition** -- every input index appears exactly once, either in a
  group or in the singles list;
* **signature cohesion** -- grouped members share one simulation
  signature, and signature-equal problems always land in the same group
  (a family is never split) or all degrade to singletons together;
* **permutation invariance** -- reordering the input only relabels
  indices; the partition itself (which problems share paths) is stable.

Uses ``hypothesis`` when installed; otherwise falls back to a seeded
random sweep over the same generator so the properties are still
exercised, just with fewer shrinking guarantees.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.pricing import PricingProblem, plan_batches, simulation_signature

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False

# Each spec is a hashable recipe for one input slot.  Distinct MC families
# (seed, n_paths, n_steps) have distinct simulation signatures; strikes vary
# within a family without changing the signature.
_FAMILIES = ((0, 1_000, None), (7, 1_000, None), (0, 2_000, None), (0, 1_000, 6))
_SPEC_POOL = (
    [("mc", f, strike) for f in range(len(_FAMILIES)) for strike in (90.0, 100.0, 110.0)]
    + [("cf", 0, 100.0), ("none", 0, 0.0)]
)


def _build(spec: tuple[str, int, float]) -> PricingProblem | None:
    kind, family, strike = spec
    if kind == "none":
        return None
    problem = PricingProblem(label=f"{kind}_{family}_{strike}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    if kind == "cf":
        problem.set_method("CF_Call")
    else:
        seed, n_paths, n_steps = _FAMILIES[family]
        problem.set_method("MC_European", n_paths=n_paths, n_steps=n_steps, seed=seed)
    return problem


def _signature_key(spec: tuple[str, int, float]) -> int | None:
    """Which shared-simulation family the spec belongs to (None = singleton)."""
    return spec[1] if spec[0] == "mc" else None


def _check_partition(specs):
    problems = [_build(spec) for spec in specs]
    plan = plan_batches(problems)
    covered = [index for group in plan.groups for index in group.indices]
    covered.extend(plan.singles)
    assert sorted(covered) == list(range(len(specs)))
    assert len(covered) == len(set(covered))
    return plan, problems


def _check_cohesion(specs):
    plan, problems = _check_partition(specs)
    # every grouped member carries the group's signature
    for group in plan.groups:
        for index in group.indices:
            assert simulation_signature(problems[index]) == group.signature
    # signature-equal problems share a group (or all degrade together)
    family_members: dict[int, list[int]] = {}
    for index, spec in enumerate(specs):
        key = _signature_key(spec)
        if key is not None:
            family_members.setdefault(key, []).append(index)
    grouped = {index: g for g, group in enumerate(plan.groups) for index in group.indices}
    for members in family_members.values():
        if len(members) >= 2:
            assert {grouped[index] for index in members} == {grouped[members[0]]}
        else:
            assert all(index in plan.singles for index in members)
    # unplannable entries are always singles
    for index, spec in enumerate(specs):
        if _signature_key(spec) is None:
            assert index in plan.singles


def _shape(specs, plan):
    """Order-free fingerprint: the partition as spec multisets."""
    groups = Counter(
        tuple(sorted(specs[index] for index in group.indices)) for group in plan.groups
    )
    singles = Counter(specs[index] for index in plan.singles)
    return groups, singles


def _check_permutation_invariance(specs, perm_seed):
    plan, _ = _check_partition(specs)
    order = list(range(len(specs)))
    random.Random(perm_seed).shuffle(order)
    permuted = [specs[index] for index in order]
    permuted_plan, _ = _check_partition(permuted)
    assert _shape(specs, plan) == _shape(permuted, permuted_plan)


def _random_specs(rng: random.Random) -> list[tuple[str, int, float]]:
    return [rng.choice(_SPEC_POOL) for _ in range(rng.randrange(0, 13))]


if HAVE_HYPOTHESIS:
    spec_lists = st.lists(st.sampled_from(_SPEC_POOL), max_size=12)

    class TestPlanProperties:
        @settings(max_examples=40, deadline=None)
        @given(specs=spec_lists)
        def test_partition(self, specs):
            _check_partition(specs)

        @settings(max_examples=40, deadline=None)
        @given(specs=spec_lists)
        def test_signature_cohesion(self, specs):
            _check_cohesion(specs)

        @settings(max_examples=40, deadline=None)
        @given(specs=spec_lists, perm_seed=st.integers(0, 2**16))
        def test_permutation_invariance(self, specs, perm_seed):
            _check_permutation_invariance(specs, perm_seed)

else:  # pragma: no cover - exercised only without hypothesis

    class TestPlanProperties:
        @pytest.mark.parametrize("case_seed", range(40))
        def test_partition(self, case_seed):
            _check_partition(_random_specs(random.Random(1000 + case_seed)))

        @pytest.mark.parametrize("case_seed", range(40))
        def test_signature_cohesion(self, case_seed):
            _check_cohesion(_random_specs(random.Random(2000 + case_seed)))

        @pytest.mark.parametrize("case_seed", range(40))
        def test_permutation_invariance(self, case_seed):
            rng = random.Random(3000 + case_seed)
            _check_permutation_invariance(_random_specs(rng), rng.randrange(2**16))
