"""Tilt construction, validity, theta, log-weights, deterministic exponent."""

import math

import numpy as np
import pytest
from scipy import integrate

from stable_smallball import (
    AlphaStableParams,
    RngStream,
    TiltSpec,
    compensator_cancellation,
    deterministic_exponent,
    identity_shift,
    log_weight_batch,
    psi,
    random_shift,
    sample_tilted_batch,
    step_mean_amplitude,
    tent_shift,
    theta,
    zero_shift,
)

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

    def test_amplitude_follows_derivative(self):
        tilt = TiltSpec.middle_shift(PARAMS, tent_shift(), 0.3, 1.0)
        beta_expected = 0.3 * 0.25 * 2.0 / 1.0  # kappa (2-a)/2 slope / cut
        assert tilt.beta(0.2) == pytest.approx(beta_expected)
        assert tilt.beta(0.8) == pytest.approx(-beta_expected)

    def test_validity_check_boundary(self):
        # middle regime requires c (2-a)/2 sup|f'| < 1
        good = TiltSpec.middle_shift(PARAMS, tent_shift(), 1.9, 1.0)
        bad = TiltSpec.middle_shift(PARAMS, tent_shift(), 2.1, 1.0)
        assert good.validity_check().passed
        assert not bad.validity_check().passed


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
    def test_unit_mean_middle(self):
        tilt = TiltSpec.middle_shift(PARAMS, tent_shift(), 0.4, 1.0)
        _, lw = sample_tilted_batch(tilt, 4000, 128, RngStream(31))
        w = np.exp(lw)
        assert abs(np.mean(w) - 1.0) < 4.0 * np.std(w) / math.sqrt(w.size)

    def test_unit_mean_small_regime(self):
        tilt = TiltSpec.small_shift(PARAMS, identity_shift(), 0.2, r=0.6)
        _, lw = sample_tilted_batch(tilt, 3000, 128, RngStream(32), eps_cutoff=0.05)
        w = np.exp(lw)
        assert abs(np.mean(w) - 1.0) < 4.0 * np.std(w) / math.sqrt(w.size)

    def test_recompute_matches_sampler(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 1.0)
        batch, lw = sample_tilted_batch(tilt, 100, 64, RngStream(33))
        assert np.allclose(log_weight_batch(tilt, batch), lw, rtol=1e-12, atol=1e-15)

    def test_zero_tilt_weights_are_one(self):
        tilt = TiltSpec.middle_shift(PARAMS, zero_shift(), 0.0, 1.0)
        _, lw = sample_tilted_batch(tilt, 50, 64, RngStream(34))
        assert np.all(lw == 0.0)


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
            tilt = TiltSpec.middle_shift(PARAMS, f, float(rng.uniform(0.1, 1.0)),
                                         float(rng.uniform(0.5, 1.5)))
            if not tilt.validity_check().passed:
                continue
            total = 0.0
            for t_lo, t_hi, slope in zip(f.knot_times[:-1], f.knot_times[1:], f.slopes):
                beta = tilt.kappa * 0.25 * slope / tilt.jump_cut
                if beta == 0.0:
                    continue
                seg = integrate.quad(
                    lambda x: (psi(beta * x) + psi(-beta * x)) * x**-2.5,
                    0.0, tilt.jump_cut, limit=200)[0]
                total += (t_hi - t_lo) * seg
            assert deterministic_exponent(tilt) == pytest.approx(total, rel=1e-7)

    def test_scales_quadratically_for_small_amplitude(self):
        # psi(u) ~ u^2/2, so halving kappa quarters the exponent
        t1 = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.02, 1.0)
        t2 = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.01, 1.0)
        ratio = deterministic_exponent(t1) / deterministic_exponent(t2)
        assert ratio == pytest.approx(4.0, rel=1e-2)

    def test_rejects_invalid_amplitude(self):
        tilt = TiltSpec.middle_shift(PARAMS, tent_shift(), 2.5, 1.0)
        with pytest.raises(ValueError):
            deterministic_exponent(tilt)


class TestCompensatorCancellation:
    def test_residual_negligible(self):
        tilt = TiltSpec.middle_shift(PARAMS, identity_shift(), 0.5, 1.0)
        assert compensator_cancellation(tilt) < 1e-10

    def test_small_regime_residual(self):
        tilt = TiltSpec.small_shift(PARAMS, tent_shift(), 0.2, r=0.6)
        assert compensator_cancellation(tilt) < 1e-10
