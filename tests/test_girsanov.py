"""Tilt construction, validity, theta, log-weights, deterministic exponent."""

import math

import numpy as np
import pytest
from scipy import integrate

from stable_smallball import (
    AlphaStableParams,
    RngStream,
    TiltSpec,
    deterministic_exponent,
    identity_shift,
    psi,
    random_shift,
    sample_tilted_batch,
    step_mean_amplitude,
    tent_shift,
    theta,
    truncated_second_moment,
    zero_shift,
)
from stable_smallball.diagnostics import _exponent_by_quadrature
from stable_smallball.simulate import tilted_jump_rates

PARAMS = AlphaStableParams(1.5)


class TestTiltSpec:
    def test_middle_shift_fields(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.4, 0.8)
        assert tilt.regime == "middle_shift"
        assert tilt.kappa == 0.4
        assert tilt.jump_cut == 0.8
        assert tilt.intensity_scale == 1.0
        assert not tilt.keeps_exterior_jumps

    def test_small_shift_default_rho(self):
        lam, r = 0.2, 0.6
        tilt = TiltSpec.small_shift(PARAMS, identity_shift(), lam, r=r)
        rho_star = r**-1.5 / (lam * r**0.5)
        assert tilt.extent == pytest.approx(rho_star, rel=1e-12)
        assert tilt.jump_cut == 1.0
        assert tilt.intensity_scale == pytest.approx(rho_star)
        assert tilt.kappa == pytest.approx(lam * rho_star ** (-0.5 / 1.5))
        assert tilt.keeps_exterior_jumps
        with pytest.raises(ValueError):
            TiltSpec.small_shift(PARAMS, identity_shift(), 0.0, r=r)

    def test_amplitude_follows_derivative(self):
        tilt = TiltSpec.middle_shift(PARAMS, tent_shift(), 0.3, 1.0)
        beta_expected = 0.3 * 0.25 * 2.0 / 1.0  # kappa (2-a)/2 slope / cut
        assert tilt.beta(0.2) == pytest.approx(beta_expected)
        assert tilt.beta(0.8) == pytest.approx(-beta_expected)

    def test_constructor_enforces_the_range(self):
        # middle regime requires c (2-a)/2 sup|f'| < 1; NaN is refused too
        assert TiltSpec.middle_shift(PARAMS, tent_shift(), 1.9, 1.0).amplitude_bound < 1.0
        for c in (2.1, math.nan):
            with pytest.raises(ValueError, match="amplitude bound"):
                TiltSpec.middle_shift(PARAMS, tent_shift(), c, 1.0)


class TestTheta:
    def test_middle_formula(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 0.8)
        x, t = 0.3, 0.4
        assert theta(tilt, x, t) == pytest.approx(
            math.log1p(tilt.beta(t) * x), rel=1e-12)

    def test_zero_outside_cut(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 0.8)
        assert theta(tilt, 0.9, 0.4) == 0.0
        assert theta(tilt, -1.5, 0.4) == 0.0

    def test_vectorized(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 0.8)
        x = np.array([-0.5, 0.2, 0.79, 2.0])
        out = theta(tilt, x, 0.5)
        assert out.shape == x.shape
        assert out[-1] == 0.0


class TestStepMeanAmplitude:
    def test_matches_difference_quotient(self):
        tilt = TiltSpec.middle_shift(PARAMS, tent_shift(), 0.3, 1.0)
        n_steps = 10
        bbar = step_mean_amplitude(tilt, n_steps)
        f = tent_shift()
        t = np.linspace(0.0, 1.0, n_steps + 1)
        scale = 0.3 * (2.0 - 1.5) / 2.0 / 1.0
        expected = scale * np.diff(f(t)) * n_steps
        assert np.allclose(bbar, expected, rtol=1e-12)


class TestLogWeight:
    @pytest.mark.parametrize("tilt", [
        TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 1.0),
        TiltSpec.small_shift(PARAMS, tent_shift(), 0.2, r=0.6),
        TiltSpec.middle_shift(PARAMS, zero_shift(), 0.0, 1.0),
    ], ids=["middle", "small", "zero"])
    def test_recompute_matches_sampler(self, tilt):
        # the sampler's weights are the bits of the formula recomputed from the
        # records: minus theta summed over the jumps inside the cut, minus the
        # proxy's normal likelihood ratio per step
        n_paths, n_steps = 100, 64
        batch, lw = sample_tilted_batch(tilt, n_paths, n_steps, RngStream(33))
        if tilt.keeps_exterior_jumps:
            assert np.any(np.abs(batch.jump_sizes) >= tilt.jump_cut)
        x, t, p = batch.jump_sizes, batch.jump_times, batch.jump_path
        inside = np.abs(x) < tilt.jump_cut
        ref = np.zeros(n_paths)
        ref -= np.bincount(p[inside], weights=theta(tilt, x[inside], t[inside]),
                           minlength=n_paths)
        bbar = step_mean_amplitude(tilt, n_steps)
        eps = tilted_jump_rates(tilt, None)[0]
        var = tilt.intensity_scale * truncated_second_moment(PARAMS.alpha, eps) * batch.dt
        ref -= batch.small_noise @ bbar + 0.5 * var * float(np.sum(bbar**2))
        assert ref.tobytes() == lw.tobytes()


class TestDeterministicExponent:
    def test_identity_closed_form_structure(self):
        # single-segment slope 1: the psi integral is computable by quadrature
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 1.0)
        beta = tilt.beta(0.5)
        direct = integrate.quad(
            lambda x: (psi(beta * x) + psi(-beta * x)) * x**-2.5, 0.0, 1.0,
            points=[0.0], limit=200)[0]
        assert deterministic_exponent(tilt) == pytest.approx(direct, rel=1e-9)

    def test_zero_for_zero_tilt(self):
        tilt = TiltSpec.middle_shift(PARAMS, zero_shift(), 0.0, 1.0)
        assert deterministic_exponent(tilt) == 0.0

    def test_randomized_tilts_match_quadrature(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            f = random_shift(5, rng)
            try:
                tilt = TiltSpec.middle_shift(PARAMS, f, float(rng.uniform(0.1, 1.0)),
                                             float(rng.uniform(0.5, 1.5)))
            except ValueError:
                continue
            assert deterministic_exponent(tilt) == pytest.approx(
                _exponent_by_quadrature(tilt), rel=1e-7)

    def test_scales_quadratically_for_small_amplitude(self):
        # psi(u) ~ u^2/2, so halving kappa quarters the exponent
        t1 = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.02, 1.0)
        t2 = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.01, 1.0)
        ratio = deterministic_exponent(t1) / deterministic_exponent(t2)
        assert ratio == pytest.approx(4.0, rel=1e-2)

    def test_rejects_invalid_amplitude(self):
        with pytest.raises(ValueError):
            deterministic_exponent(TiltSpec.middle_shift(PARAMS, tent_shift(), 2.5, 1.0))
