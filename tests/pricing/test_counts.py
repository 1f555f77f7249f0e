"""Integral parameters are checked where a leg is built, naming the field.

``int()`` used to truncate them in silence: ``MonteCarloEuropean(seed=1.5)``
priced -- and digested, so cached -- as seed 1, and ``n_paths=1000.7`` as
1000.  A non-integral value or a ``bool`` is now a :class:`PricingError`;
an integral float (``1e5``, the way a JSON client may send a count) is
still accepted, as its ``int``.  A count's minimum is checked by the same
call, after its type; a method's boolean switches go through ``check_flag``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import ClusterError, PricingError
from repro.pricing.engine import _build_method, _build_product
from repro.pricing.validation import check_count

#: every integral parameter of a leg, with a valid value: (family, name, value)
METHOD_COUNTS = [
    ("MC_European", "n_paths", 1000),
    ("MC_European", "n_steps", 4),
    ("MC_European", "seed", 3),
    ("MC_European", "batch_size", 512),
    ("MC_AM_LongstaffSchwartz", "n_paths", 1000),
    ("MC_AM_LongstaffSchwartz", "n_steps", 10),
    ("MC_AM_LongstaffSchwartz", "basis_degree", 3),
    ("MC_AM_LongstaffSchwartz", "seed", 3),
    ("FD_European", "n_space", 100),
    ("FD_European", "n_time", 50),
    ("FD_Barrier", "n_space", 100),
    ("FD_Barrier", "n_time", 50),
    ("FD_American", "n_space", 100),
    ("FD_American", "n_time", 50),
    ("TR_CoxRossRubinstein", "n_steps", 100),
    ("TR_Trinomial", "n_steps", 100),
    ("FFT_COS", "n_terms", 64),
]
PRODUCT_COUNTS = [
    ("AsianCallEuro", "n_fixings", 12),
    ("AsianPutEuro", "n_fixings", 12),
]
_ASIAN = {"strike": 100.0, "maturity": 1.0}


def _build(family: str, name: str, value: object):
    if family.startswith("Asian"):
        return _build_product(family, {**_ASIAN, name: value})
    return _build_method(family, {name: value})


@pytest.mark.parametrize(("family", "name", "value"), METHOD_COUNTS + PRODUCT_COUNTS)
class TestEveryCountIsIntegral:
    def test_a_fraction_is_refused(self, family, name, value):
        with pytest.raises(PricingError, match=f"{name} must be an int, got {value + 0.5}"):
            _build(family, name, value + 0.5)

    def test_a_bool_is_refused(self, family, name, value):
        with pytest.raises(PricingError, match=name):
            _build(family, name, True)

    def test_an_integral_float_is_its_int(self, family, name, value):
        built = _build(family, name, float(value)).to_params()[name]
        assert type(built) is int and built == value


#: every count with its minimum: (family, name, minimum)
COUNT_MINIMUMS = [
    ("MC_European", "n_paths", 2),
    ("MC_European", "n_steps", 1),
    ("MC_European", "batch_size", 2),
    ("MC_AM_LongstaffSchwartz", "n_paths", 10),
    ("MC_AM_LongstaffSchwartz", "n_steps", 2),
    ("MC_AM_LongstaffSchwartz", "basis_degree", 1),
    ("FD_European", "n_space", 10),
    ("FD_European", "n_time", 1),
    ("FD_American", "n_space", 10),
    ("TR_CoxRossRubinstein", "n_steps", 1),
    ("TR_Trinomial", "n_steps", 1),
    ("FFT_COS", "n_terms", 8),
    ("AsianCallEuro", "n_fixings", 1),
]


@pytest.mark.parametrize(("family", "name", "minimum"), COUNT_MINIMUMS)
class TestEveryCountHasOneCheck:
    """Type first, then range: one ``check_count`` call per count."""

    def test_below_the_minimum_names_the_field(self, family, name, minimum):
        with pytest.raises(PricingError, match=f"{name} must be >= {minimum}, got {minimum - 1}"):
            _build(family, name, minimum - 1)

    def test_a_string_is_refused_before_any_comparison(self, family, name, minimum):
        # the range check used to run first: '<' between str and int, a TypeError
        with pytest.raises(PricingError, match=f"{name} must be an int, got '{minimum}'"):
            _build(family, name, str(minimum))


def test_a_string_count_through_the_session_is_a_pricing_error():
    from repro.api import ValuationSession

    session = ValuationSession(backend="local")
    with pytest.raises(PricingError, match="n_paths must be an int, got '100'"):
        session.price(
            model="BlackScholes1D", option="CallEuro", method="MC_European",
            model_params={"spot": 100.0, "rate": 0.05, "volatility": 0.2},
            option_params={"strike": 100.0, "maturity": 1.0},
            method_params={"n_paths": "100"},
        )


#: every boolean switch of a method: (family, name)
METHOD_FLAGS = [
    ("MC_European", "antithetic"),
    ("MC_European", "control_variate"),
    ("MC_European", "barrier_correction"),
    ("MC_AM_LongstaffSchwartz", "antithetic"),
]


@pytest.mark.parametrize(("family", "name"), METHOD_FLAGS)
class TestEveryFlagIsABool:
    @pytest.mark.parametrize("value", ["false", "", 0, 1, 1.0, None])
    def test_a_non_bool_is_refused(self, family, name, value):
        # bool("false") is True: the string used to price as the opposite
        with pytest.raises(PricingError, match=re.escape(f"{name} must be a bool, got {value!r}")):
            _build_method(family, {name: value})

    @pytest.mark.parametrize("value", [False, True, np.bool_(False), np.bool_(True)])
    def test_a_bool_is_kept(self, family, name, value):
        built = _build_method(family, {name: value}).to_params()[name]
        assert type(built) is bool and built == bool(value)


def test_a_seed_is_not_negative():
    with pytest.raises(PricingError, match="seed must be >= 0"):
        _build_method("MC_European", {"seed": -1})


def test_an_integral_float_seed_digests_like_the_int():
    from repro.pricing import PricingProblem
    from repro.pricing.cache import problem_digest

    def problem(seed: object) -> PricingProblem:
        p = PricingProblem()
        p.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        p.set_option("CallEuro", strike=100.0, maturity=1.0)
        p.set_method("MC_European", n_paths=1e3, seed=seed)
        return p

    assert problem_digest(problem(1.0)) == problem_digest(problem(1))
    with pytest.raises(PricingError, match="seed must be an int, got 1.5"):
        problem(1.5)


class TestCheckCount:
    """The one helper: the configuration objects raise their own error types."""

    def test_numpy_integers_count(self):
        import numpy as np

        assert check_count(np.int64(7), "n") == 7
        assert type(check_count(np.float64(8.0), "n")) is int

    @pytest.mark.parametrize("value", [2.0, float("nan"), float("inf"), "2", None])
    def test_python_configuration_takes_ints_only(self, value):
        with pytest.raises(ClusterError, match="n_workers must be an int"):
            check_count(value, "n_workers", error=ClusterError, floats=False)

    def test_the_minimum_names_the_field(self):
        with pytest.raises(PricingError, match="n must be >= 2, got 1"):
            check_count(1, "n", 2)
