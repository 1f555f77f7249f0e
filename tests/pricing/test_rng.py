"""Tests of the random number generation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pricing.models import MultiAssetBlackScholesModel
from repro.pricing.rng import (
    AntitheticGenerator,
    PseudoRandomGenerator,
    SobolGenerator,
    cholesky_factor,
    create_generator,
)


class TestPseudoRandomGenerator:
    def test_reproducible_with_same_seed(self):
        a = PseudoRandomGenerator(seed=42).normals((100,))
        b = PseudoRandomGenerator(seed=42).normals((100,))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = PseudoRandomGenerator(seed=1).normals((100,))
        b = PseudoRandomGenerator(seed=2).normals((100,))
        assert not np.allclose(a, b)

    def test_normals_have_standard_moments(self):
        samples = PseudoRandomGenerator(seed=0).normals((200_000,))
        assert samples.mean() == pytest.approx(0.0, abs=0.01)
        assert samples.std() == pytest.approx(1.0, abs=0.01)

    def test_uniforms_in_unit_interval(self):
        samples = PseudoRandomGenerator(seed=0).uniforms((10_000,))
        assert samples.min() >= 0.0
        assert samples.max() <= 1.0
        assert samples.mean() == pytest.approx(0.5, abs=0.02)

    def test_spawn_produces_independent_streams(self):
        parent = PseudoRandomGenerator(seed=7)
        children = parent.spawn(3)
        assert len(children) == 3
        streams = [child.normals((1000,)) for child in children]
        # children must differ from each other
        assert not np.allclose(streams[0], streams[1])
        assert not np.allclose(streams[1], streams[2])
        # and correlations must be negligible
        corr = np.corrcoef(streams[0], streams[1])[0, 1]
        assert abs(corr) < 0.1

    def test_cholesky_factor_validates_shape(self):
        with pytest.raises(ValueError):
            cholesky_factor(np.ones((2, 3)))


class TestSobolGenerator:
    def test_uniforms_shape_and_range(self):
        gen = SobolGenerator(dimension=4, seed=1)
        samples = gen.uniforms((100, 4))
        assert samples.shape == (100, 4)
        assert samples.min() > 0.0
        assert samples.max() < 1.0

    def test_normals_are_finite(self):
        gen = SobolGenerator(dimension=2, seed=1)
        samples = gen.normals((256, 2))
        assert np.all(np.isfinite(samples))

    def test_one_dimensional_request(self):
        gen = SobolGenerator(dimension=1, seed=5)
        samples = gen.normals((128,))
        assert samples.shape == (128,)

    def test_dimension_mismatch_raises(self):
        gen = SobolGenerator(dimension=3)
        with pytest.raises(ValueError):
            gen.uniforms((10, 4))
        with pytest.raises(ValueError):
            SobolGenerator(dimension=2).normals((10,))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            SobolGenerator(dimension=0)

    def test_sobol_integration_beats_plain_mc_on_smooth_integrand(self):
        """QMC error on E[exp(Z)] should be far below the MC error."""
        exact = np.exp(0.5)
        n = 2**12
        sobol_est = np.exp(SobolGenerator(dimension=1, seed=0).normals((n,))).mean()
        mc_est = np.exp(PseudoRandomGenerator(seed=0).normals((n,))).mean()
        assert abs(sobol_est - exact) < abs(mc_est - exact) + 5e-3
        assert sobol_est == pytest.approx(exact, abs=5e-3)

    def test_spawn(self):
        children = SobolGenerator(dimension=2, seed=0).spawn(2)
        assert len(children) == 2
        a = children[0].uniforms((64, 2))
        b = children[1].uniforms((64, 2))
        assert not np.allclose(a, b)


class TestAntitheticGenerator:
    def test_normals_are_mirrored(self):
        gen = AntitheticGenerator(PseudoRandomGenerator(seed=0))
        samples = gen.normals((100,))
        np.testing.assert_allclose(samples[:50], -samples[50:])

    def test_uniforms_are_reflected(self):
        gen = AntitheticGenerator(PseudoRandomGenerator(seed=0))
        samples = gen.uniforms((100,))
        np.testing.assert_allclose(samples[:50], 1.0 - samples[50:])

    def test_odd_count_rejected(self):
        gen = AntitheticGenerator(PseudoRandomGenerator(seed=0))
        with pytest.raises(ValueError):
            gen.normals((101,))

    def test_matrix_shapes_preserved(self):
        gen = AntitheticGenerator(PseudoRandomGenerator(seed=0))
        samples = gen.normals((10, 7))
        assert samples.shape == (10, 7)
        np.testing.assert_allclose(samples[:5], -samples[5:])

    def test_correlated_draws_mirrored(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = MultiAssetBlackScholesModel(
            spot=[100.0, 100.0], rate=0.0, volatilities=0.2, correlation=corr
        )
        gen = AntitheticGenerator(PseudoRandomGenerator(seed=0))
        # log(S_T / S_0) = -sigma^2 / 2 + sigma z at T = 1, r = 0
        draws = (np.log(model.sample_terminal(gen, 20, 1.0) / 100.0) + 0.02) / 0.2
        np.testing.assert_allclose(draws[:10], -draws[10:], atol=1e-12)


class TestFactory:
    def test_create_pseudo(self):
        assert isinstance(create_generator("pcg64"), PseudoRandomGenerator)
        assert isinstance(create_generator("pseudo"), PseudoRandomGenerator)

    def test_create_sobol(self):
        gen = create_generator("sobol", dimension=5)
        assert isinstance(gen, SobolGenerator)
        assert gen.dimension == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            create_generator("xorshift")
