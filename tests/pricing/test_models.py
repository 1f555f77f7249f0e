"""Tests of the asset-dynamics models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing import (
    BlackScholesModel,
    CEVModel,
    HestonModel,
    MertonJumpModel,
    MultiAssetBlackScholesModel,
    SmileLocalVolModel,
    flat_correlation,
)
from repro.pricing.models import MODEL_CLASSES
from repro.pricing.rng import PseudoRandomGenerator


class TestBlackScholesModel:
    def test_validation(self):
        with pytest.raises(PricingError):
            BlackScholesModel(spot=-1.0, rate=0.05, volatility=0.2)
        with pytest.raises(PricingError):
            BlackScholesModel(spot=100.0, rate=0.05, volatility=0.0)

    def test_forward_and_discount(self, bs_model):
        assert bs_model.discount_factor(1.0) == pytest.approx(np.exp(-0.05))
        assert bs_model.forward(2.0) == pytest.approx(100.0 * np.exp(0.05 * 2.0))

    def test_terminal_martingale_property(self, bs_model):
        """Discounted terminal value has expectation spot (risk-neutral)."""
        rng = PseudoRandomGenerator(seed=0)
        terminal = bs_model.sample_terminal(rng, 400_000, maturity=1.0)
        discounted = np.exp(-bs_model.rate) * terminal.mean()
        assert discounted == pytest.approx(bs_model.spot, rel=2e-3)

    def test_terminal_lognormal_moments(self, bs_model):
        rng = PseudoRandomGenerator(seed=1)
        maturity = 2.0
        terminal = bs_model.sample_terminal(rng, 400_000, maturity)
        log_returns = np.log(terminal / bs_model.spot)
        expected_mean = (bs_model.rate - 0.5 * bs_model.volatility**2) * maturity
        expected_std = bs_model.volatility * np.sqrt(maturity)
        assert log_returns.mean() == pytest.approx(expected_mean, abs=3e-3)
        assert log_returns.std() == pytest.approx(expected_std, rel=1e-2)

    def test_paths_start_at_spot_and_stay_positive(self, bs_model):
        rng = PseudoRandomGenerator(seed=2)
        times = np.linspace(0.0, 1.0, 13)
        paths = bs_model.simulate_paths(rng, 500, times)
        assert paths.shape == (500, 13)
        np.testing.assert_allclose(paths[:, 0], bs_model.spot)
        assert np.all(paths > 0)

    def test_path_terminal_matches_exact_sampling_distribution(self, bs_model):
        rng = PseudoRandomGenerator(seed=3)
        times = np.linspace(0.0, 1.0, 5)
        paths = bs_model.simulate_paths(rng, 200_000, times)
        terminal_from_paths = paths[:, -1]
        expected_mean = bs_model.spot * np.exp(bs_model.rate)
        assert terminal_from_paths.mean() == pytest.approx(expected_mean, rel=3e-3)

    def test_invalid_time_grid(self, bs_model):
        rng = PseudoRandomGenerator(seed=0)
        with pytest.raises(PricingError):
            bs_model.simulate_paths(rng, 10, np.array([0.5, 1.0]))
        with pytest.raises(PricingError):
            bs_model.simulate_paths(rng, 10, np.array([0.0, 1.0, 0.5]))

    def test_char_function_at_zero_is_one(self, bs_model):
        assert bs_model.log_char_function(np.array([0.0]), 1.0)[0] == pytest.approx(1.0)

    def test_params_roundtrip(self, bs_model):
        clone = BlackScholesModel.from_params(bs_model.to_params())
        assert clone == bs_model
        assert hash(clone) == hash(bs_model)


class TestLocalVolModels:
    def test_cev_validation(self):
        with pytest.raises(PricingError):
            CEVModel(spot=100, rate=0.05, volatility=0.2, beta=2.5)
        with pytest.raises(PricingError):
            CEVModel(spot=100, rate=0.05, volatility=-0.1, beta=0.5)

    def test_cev_beta_one_is_black_scholes(self):
        cev = CEVModel(spot=100, rate=0.05, volatility=0.2, beta=1.0)
        s = np.array([50.0, 100.0, 200.0])
        np.testing.assert_allclose(cev.local_volatility(0.0, s), 0.2)

    def test_cev_skew_direction(self):
        cev = CEVModel(spot=100, rate=0.05, volatility=0.2, beta=0.5)
        low = cev.local_volatility(0.0, np.array([50.0]))[0]
        high = cev.local_volatility(0.0, np.array([200.0]))[0]
        assert low > 0.2 > high

    def test_smile_model_reduces_to_constant_vol(self):
        smile = SmileLocalVolModel(spot=100, rate=0.05, base_volatility=0.2, skew=0.0, term=0.0)
        s = np.array([60.0, 100.0, 180.0])
        np.testing.assert_allclose(smile.local_volatility(0.7, s), 0.2)

    def test_smile_model_bounds_respected(self):
        smile = SmileLocalVolModel(
            spot=100, rate=0.05, base_volatility=0.2, skew=5.0, term=0.0,
            vol_floor=0.05, vol_cap=0.6,
        )
        s = np.array([1.0, 100.0, 10_000.0])
        vols = smile.local_volatility(0.0, s)
        assert np.all(vols >= 0.05)
        assert np.all(vols <= 0.6)

    def test_local_vol_martingale(self):
        model = SmileLocalVolModel(spot=100, rate=0.03, base_volatility=0.2, skew=0.3, term=0.1)
        rng = PseudoRandomGenerator(seed=4)
        times = np.linspace(0.0, 1.0, 51)
        paths = model.simulate_paths(rng, 100_000, times)
        discounted = np.exp(-model.rate) * paths[:, -1].mean()
        assert discounted == pytest.approx(model.spot, rel=5e-3)


class TestHestonModel:
    def test_validation(self):
        with pytest.raises(PricingError):
            HestonModel(spot=100, rate=0.03, v0=-0.1, kappa=2, theta=0.04, sigma_v=0.4, rho=0.0)
        with pytest.raises(PricingError):
            HestonModel(spot=100, rate=0.03, v0=0.04, kappa=2, theta=0.04, sigma_v=0.4, rho=-1.5)

    def test_char_function_at_zero(self, heston_model):
        value = heston_model.log_char_function(np.array([0.0]), 1.0)[0]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_char_function_is_valid_cf(self, heston_model):
        """|phi(u)| <= 1 for real u, a property of characteristic functions."""
        u = np.linspace(-50, 50, 201)
        phi = heston_model.log_char_function(u, 2.0)
        assert np.all(np.abs(phi) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("scheme", ["full_truncation", "alfonsi"])
    def test_martingale_property(self, heston_model, scheme):
        rng = PseudoRandomGenerator(seed=5)
        times = np.linspace(0.0, 1.0, 101)
        paths = heston_model.simulate_paths(rng, 100_000, times, scheme=scheme)
        discounted = np.exp(-heston_model.rate) * paths[:, -1].mean()
        assert discounted == pytest.approx(heston_model.spot, rel=1e-2)

    def test_variance_paths_nonnegative(self, heston_model):
        rng = PseudoRandomGenerator(seed=6)
        times = np.linspace(0.0, 1.0, 51)
        _, variance = heston_model.simulate_paths(
            rng, 2_000, times, return_variance=True
        )
        assert np.all(variance >= 0.0)

    def test_variance_mean_reverts_to_theta(self):
        model = HestonModel(spot=100, rate=0.0, v0=0.09, kappa=3.0, theta=0.04,
                            sigma_v=0.3, rho=0.0)
        rng = PseudoRandomGenerator(seed=7)
        times = np.linspace(0.0, 5.0, 251)
        _, variance = model.simulate_paths(rng, 20_000, times, return_variance=True)
        assert variance[:, -1].mean() == pytest.approx(model.theta, rel=0.1)

    def test_unknown_scheme_rejected(self, heston_model):
        rng = PseudoRandomGenerator(seed=0)
        with pytest.raises(PricingError):
            heston_model.simulate_paths(rng, 10, np.linspace(0, 1, 3), scheme="euler_exact")


class TestMertonModel:
    def test_validation(self):
        with pytest.raises(PricingError):
            MertonJumpModel(spot=100, rate=0.05, volatility=0.2,
                            jump_intensity=-1.0, jump_mean=0.0, jump_std=0.1)

    def test_zero_intensity_matches_black_scholes_cf(self, bs_model):
        merton = MertonJumpModel(spot=100, rate=0.05, volatility=0.2,
                                 jump_intensity=0.0, jump_mean=0.0, jump_std=0.1)
        u = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(
            merton.log_char_function(u, 1.0), bs_model.log_char_function(u, 1.0), rtol=1e-12
        )

    def test_martingale_property(self, merton_model):
        rng = PseudoRandomGenerator(seed=8)
        terminal = merton_model.sample_terminal(rng, 300_000, maturity=1.0)
        discounted = np.exp(-merton_model.rate) * terminal.mean()
        assert discounted == pytest.approx(merton_model.spot, rel=5e-3)

    def test_paths_positive(self, merton_model):
        rng = PseudoRandomGenerator(seed=9)
        paths = merton_model.simulate_paths(rng, 1_000, np.linspace(0, 1, 13))
        assert np.all(paths > 0)

    def test_jumps_fatten_the_tails(self, bs_model, merton_model):
        rng_a = PseudoRandomGenerator(seed=10)
        rng_b = PseudoRandomGenerator(seed=10)
        bs_terminal = bs_model.sample_terminal(rng_a, 100_000, 1.0)
        merton_terminal = merton_model.sample_terminal(rng_b, 100_000, 1.0)
        bs_kurt = ((np.log(bs_terminal / 100.0) - np.log(bs_terminal / 100.0).mean()) ** 4).mean()
        m_kurt = ((np.log(merton_terminal / 100.0) - np.log(merton_terminal / 100.0).mean()) ** 4).mean()
        assert m_kurt > bs_kurt


class TestMultiAssetModel:
    def test_validation(self):
        with pytest.raises(PricingError):
            MultiAssetBlackScholesModel(spot=[100, 100], rate=0.05,
                                        volatilities=[0.2, -0.1])
        bad_corr = np.array([[1.0, 0.5], [0.4, 1.0]])  # not symmetric
        with pytest.raises(PricingError):
            MultiAssetBlackScholesModel(spot=[100, 100], rate=0.05,
                                        volatilities=0.2, correlation=bad_corr)

    def test_flat_correlation_bounds(self):
        with pytest.raises(PricingError):
            flat_correlation(5, -0.5)
        corr = flat_correlation(4, 0.3)
        assert np.allclose(np.diag(corr), 1.0)
        eigvals = np.linalg.eigvalsh(corr)
        assert eigvals.min() > 0

    def test_terminal_shape_and_martingale(self, basket_model):
        rng = PseudoRandomGenerator(seed=11)
        terminal = basket_model.sample_terminal(rng, 200_000, maturity=1.0)
        assert terminal.shape == (200_000, 5)
        discounted = np.exp(-basket_model.rate) * terminal.mean(axis=0)
        np.testing.assert_allclose(discounted, np.asarray(basket_model.spot), rtol=5e-3)

    def test_terminal_correlation_structure(self, basket_model):
        rng = PseudoRandomGenerator(seed=12)
        terminal = basket_model.sample_terminal(rng, 300_000, maturity=1.0)
        log_returns = np.log(terminal / np.asarray(basket_model.spot))
        empirical = np.corrcoef(log_returns.T)
        np.testing.assert_allclose(empirical, basket_model.correlation, atol=0.02)

    def test_paths_shape(self, basket_model):
        rng = PseudoRandomGenerator(seed=13)
        times = np.linspace(0, 1, 11)
        paths = basket_model.simulate_paths(rng, 100, times)
        assert paths.shape == (100, 11, 5)
        np.testing.assert_allclose(
            paths[:, 0, :], np.broadcast_to(np.asarray(basket_model.spot), (100, 5))
        )

    def test_basket_lognormal_proxy_moments(self, basket_model):
        weights = np.full(5, 0.2)
        forward, vol = basket_model.basket_lognormal_proxy(weights, 1.0)
        rng = PseudoRandomGenerator(seed=14)
        terminal = basket_model.sample_terminal(rng, 300_000, 1.0)
        basket = terminal @ weights
        assert basket.mean() == pytest.approx(forward, rel=5e-3)
        proxy_second_moment = forward**2 * np.exp(vol**2 * 1.0)
        assert (basket**2).mean() == pytest.approx(proxy_second_moment, rel=2e-2)

    def test_params_roundtrip(self, basket_model):
        clone = MultiAssetBlackScholesModel.from_params(basket_model.to_params())
        assert clone == basket_model


def test_model_registry_contains_all_models():
    expected = {
        "BlackScholes1D",
        "CEV1D",
        "LocalVolSmile1D",
        "Heston1D",
        "MertonJump1D",
        "BlackScholesND",
    }
    assert expected == set(MODEL_CLASSES)
    for name, cls in MODEL_CLASSES.items():
        assert cls.model_name == name


class TestModelHashMemoization:
    def test_hash_is_cached(self, bs_model):
        first = hash(bs_model)
        assert bs_model.__dict__["_hash_cache"] == first
        assert hash(bs_model) == first

    def test_equal_models_hash_equal(self):
        a = BlackScholesModel(spot=100.0, rate=0.05, volatility=0.2)
        b = BlackScholesModel(spot=100.0, rate=0.05, volatility=0.2)
        assert a == b
        assert hash(a) == hash(b)

    def test_param_digest_is_stable_and_cached(self, basket_model):
        digest = basket_model.param_digest()
        assert basket_model.param_digest() == digest
        rebuilt = MultiAssetBlackScholesModel.from_params(basket_model.to_params())
        assert rebuilt.param_digest() == digest

    def test_param_digest_differs_across_params(self):
        a = BlackScholesModel(spot=100.0, rate=0.05, volatility=0.2)
        b = BlackScholesModel(spot=100.0, rate=0.05, volatility=0.21)
        assert a.param_digest() != b.param_digest()


class TestStreamedTerminalFallback:
    """The generic DiffusionModel1D.sample_terminal Euler fallback."""

    def _model(self, skew=0.0, term=0.0):
        return SmileLocalVolModel(
            spot=100.0, rate=0.05, base_volatility=0.2, skew=skew, term=term
        )

    def test_shape_and_determinism(self):
        model = self._model(skew=0.3, term=0.1)
        a = model.sample_terminal(PseudoRandomGenerator(3), 2_000, 1.0)
        b = model.sample_terminal(PseudoRandomGenerator(3), 2_000, 1.0)
        assert a.shape == (2_000,)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_martingale_property(self):
        # skew = term = 0 reduces to Black-Scholes: discounted terminal mean
        # must match the forward within Monte-Carlo error
        model = self._model()
        terminal = model.sample_terminal(PseudoRandomGenerator(11), 60_000, 1.0)
        forward = float(model.forward(1.0))
        assert np.mean(terminal) == pytest.approx(forward, rel=0.01)
