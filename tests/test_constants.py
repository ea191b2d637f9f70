"""Numeric constants against frozen high-precision oracles.

Oracle values were computed once by independent quadrature/series scripts
with mpmath-grade care and are pinned here; the library must reproduce them
without referencing how they were obtained.
"""

import math

import numpy as np
import pytest

from stable_smallball import (
    RngStream,
    bounded_jump_martingale_lower_bound,
    char_exponent_scale,
    dirichlet_eigenvalue,
    gaussian_validation_eigenvalue,
    identity_shift,
    large_shift_constant,
    make_shift,
    middle_shift_constant,
    psi,
    smallball_constant_mc,
    smallball_constant_spectral,
    truncated_second_moment,
    zero_shift,
)
from stable_smallball.constants import _inverse_iteration, _richardson, _stable_operator

C_ALPHA_ORACLE = {
    1.2: 2.9980563908116560207,
    1.5: 3.3421710328413340032,
    1.8: 6.0640997605404068730,
}
C_MIDDLE_ORACLE = {
    1.2: 523.82564101529333127,
    1.5: 1446.8014001941835610,
    1.8: 6168.3787994465973000,
    1.99: 170108.74630684631754,
}


class TestPsi:
    def test_exact_points(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)
        assert psi(math.e - 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_series_matches_direct_near_zero(self):
        for u in (1e-5, -1e-5, 5e-5, -9e-5):
            direct = (1.0 + u) * math.log1p(u) - u
            assert psi(u) == pytest.approx(direct, rel=1e-10, abs=1e-18)

    def test_positive_and_convex(self):
        u = np.linspace(-0.99, 10.0, 2001)
        v = psi(u)
        assert np.all(v[np.abs(u) > 1e-9] > 0.0)
        assert np.all(np.diff(v, 2) > -1e-10)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            psi(-1.0)


class TestCharExponentScale:
    @pytest.mark.parametrize("alpha", sorted(C_ALPHA_ORACLE))
    def test_frozen_oracles(self, alpha):
        assert char_exponent_scale(alpha) == pytest.approx(
            C_ALPHA_ORACLE[alpha], rel=1e-12)

    def test_matches_reflection_formula_on_grid(self):
        for alpha in np.linspace(1.05, 1.95, 10):
            closed = math.pi / (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))
            assert char_exponent_scale(float(alpha)) == pytest.approx(closed, rel=1e-8)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            char_exponent_scale(2.0)


class TestTruncatedSecondMoment:
    def test_closed_form(self):
        assert truncated_second_moment(1.5, 0.3) == pytest.approx(
            2.0 * 0.3**0.5 / 0.5, rel=1e-14)

    def test_quadrature_cross_check(self):
        from scipy import integrate
        alpha, cut = 1.7, 0.8
        val = 2.0 * integrate.quad(lambda x: x * x * x ** (-1.0 - alpha), 0.0, cut)[0]
        assert truncated_second_moment(alpha, cut) == pytest.approx(val, rel=1e-10)


class TestMiddleShiftConstant:
    @pytest.mark.parametrize("alpha", sorted(C_MIDDLE_ORACLE))
    def test_frozen_oracles(self, alpha):
        assert middle_shift_constant(alpha) == pytest.approx(
            C_MIDDLE_ORACLE[alpha], rel=1e-10)

    def test_increasing_in_alpha(self):
        grid = np.linspace(1.1, 1.9, 9)
        vals = [middle_shift_constant(float(a)) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLargeShiftConstant:
    def test_identity_oracle(self):
        assert large_shift_constant(identity_shift(), 1.5) == pytest.approx(
            0.032724923474893679567, rel=1e-10)

    def test_two_segment_oracle(self):
        f = make_shift([(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)])
        assert large_shift_constant(f, 1.5) == pytest.approx(
            0.16242610519529057721, rel=1e-10)

    def test_zero_shift_gives_zero(self):
        assert large_shift_constant(zero_shift(), 1.5) == 0.0


class TestMartingaleLowerBound:
    def test_closed_form(self):
        sm, eps = 0.04, 0.5
        assert bounded_jump_martingale_lower_bound(sm, eps) == pytest.approx(
            math.exp(-(12.0 * sm / eps**2 + 2.0)), rel=1e-14)

    def test_monotone_in_eps(self):
        assert (bounded_jump_martingale_lower_bound(0.1, 0.9)
                > bounded_jump_martingale_lower_bound(0.1, 0.3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bounded_jump_martingale_lower_bound(-0.1, 0.5)
        with pytest.raises(ValueError):
            bounded_jump_martingale_lower_bound(0.1, 0.0)


class TestSpectral:
    def test_gaussian_mode_hits_pi2_over_8(self):
        val = gaussian_validation_eigenvalue(512)
        assert val == pytest.approx(math.pi**2 / 8.0, rel=1e-8)

    @pytest.mark.parametrize("order", [0.5, 1.0, 2.0, 3.5])
    def test_richardson_recovers_the_limit(self, order):
        limit, coeff, m = 5.3, 0.7, 64
        values = {k: limit + coeff * k**-order for k in (m // 4, m // 2, m)}
        value, p = _richardson(values)
        assert value == pytest.approx(limit, abs=1e-12)
        assert p == pytest.approx(order, rel=1e-6)

    def test_eigenvalue_positive_with_positive_ground_state(self):
        lam, vec = dirichlet_eigenvalue(1.5, 256, 1.0, mode="stable")
        assert lam > 0.0
        assert np.min(vec) > -1e-8 and np.max(vec) > 0.0

    def test_inverse_iteration_converges_or_raises(self):
        a_mat = _stable_operator(1.5, 64, 1.0)
        lam1, v1 = _inverse_iteration(a_mat, np.ones(63) / np.sqrt(63), 1e-12)
        odd = np.linspace(-1.0, 1.0, 63)  # the second eigenvector is odd
        odd /= np.linalg.norm(odd)
        lam2, _ = _inverse_iteration(a_mat, odd, 1e-10, deflate=v1)
        assert [lam1, lam2] == pytest.approx(np.linalg.eigvalsh(a_mat)[:2], rel=1e-8)
        for deflate in (None, v1):
            with pytest.raises(RuntimeError, match="did not converge"):
                _inverse_iteration(a_mat, odd, 1e-10, deflate=deflate, max_iter=1)

    def test_simplicity_via_spectral_gap(self):
        res = smallball_constant_spectral(1.5, n_grid=256)
        assert res.diagnostics["spectral_gap"] > 0.0

    def test_domain_scaling(self):
        a = smallball_constant_spectral(1.3, n_grid=256, half_width=1.0)
        b = smallball_constant_spectral(1.3, n_grid=256, half_width=2.0)
        assert b.value * 2.0**1.3 == pytest.approx(a.value, rel=1e-9)

    def test_decreases_with_wider_domain(self):
        a = smallball_constant_spectral(1.5, n_grid=256, half_width=1.0)
        b = smallball_constant_spectral(1.5, n_grid=256, half_width=1.5)
        assert b.value < a.value

    def test_diagnostics_present(self):
        res = smallball_constant_spectral(1.5, n_grid=256)
        assert res.method == "spectral"
        assert set(res.diagnostics) >= {"grids", "raw_eigenvalues",
                                        "observed_order", "spectral_gap"}
        assert len(res.diagnostics["grids"]) == 3

    def test_monotone_in_alpha(self):
        vals = [smallball_constant_spectral(a, n_grid=256).value
                for a in (1.2, 1.5, 1.8)]
        assert vals[0] < vals[1] < vals[2]


class TestSmallballConstantMC:
    def test_small_run_shape_and_positivity(self):
        res = smallball_constant_mc(1.5, r_list=(0.8, 1.0, 1.2), n_paths=3000,
                                    n_steps=256, rng=RngStream(42))
        assert res.method == "mc_fit"
        assert res.value > 0.0
        assert res.diagnostics["slope_stderr"] > 0.0
        assert len(res.diagnostics["p_hat"]) == 3

    def test_requires_stream(self):
        with pytest.raises(ValueError):
            smallball_constant_mc(1.5, r_list=(1.0, 1.2), n_paths=100,
                                  rng=np.random.default_rng(0))
