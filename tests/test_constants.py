"""Numeric constants against frozen high-precision oracles.

Oracle values were computed once by independent quadrature/series scripts
with mpmath-grade care and are pinned here; the library must reproduce them
without referencing how they were obtained.
"""

import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from scipy import linalg

from stable_smallball import (
    AlphaStableParams,
    RngStream,
    char_exponent_scale,
    dirichlet_eigenvalue,
    middle_shift_constant,
    psi,
    smallball_constant_mc,
    smallball_constant_spectral,
    truncated_second_moment,
)
from stable_smallball import constants
from stable_smallball.constants import (_even_block, _ground_state, _richardson,
                                        _stable_operator)
from stable_smallball.diagnostics import _gaussian_operator, check_char_exponent_scale
from stable_smallball.simulate import sample_stable_batch, sample_sups

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
        passed, detail = check_char_exponent_scale(np.linspace(1.05, 1.95, 10))
        assert passed, detail

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


class TestSpectral:
    @pytest.mark.parametrize("order", [0.5, 1.0, 2.0, 3.5])
    def test_richardson_recovers_the_limit(self, order):
        limit, coeff, m = 5.3, 0.7, 64
        values = {k: limit + coeff * k**-order for k in (m // 4, m // 2, m)}
        value, p = _richardson(values)
        assert value == pytest.approx(limit, abs=1e-12)
        assert p == pytest.approx(order, rel=1e-6)

    def test_eigenvalue_positive_with_positive_ground_state(self):
        # the solve itself refuses a ground state that changes sign
        lam1, lam3 = dirichlet_eigenvalue(1.5, 256)
        assert 0.0 < lam1 < lam3

    @pytest.mark.parametrize("n_grid", [64, 65, 100, 101])
    @pytest.mark.parametrize("operator", [partial(_stable_operator, 1.2),
                                          partial(_stable_operator, 1.5),
                                          partial(_stable_operator, 1.8), _gaussian_operator],
                             ids=["alpha1.2", "alpha1.5", "alpha1.8", "gaussian"])
    def test_fold_matches_the_full_matrix(self, operator, n_grid):
        # matrix orders n_grid - 1 of both parities: an odd order has a middle vector
        col = operator(n_grid)
        lam, vec = linalg.eigh(linalg.toeplitz(col))
        even = [k for k in range(col.size) if np.allclose(vec[::-1, k], vec[:, k], atol=1e-8)]
        assert list(_ground_state(col)) == pytest.approx([lam[0], lam[even[1]]], rel=1e-11)

    @pytest.mark.parametrize("n_grid", [64, 65, 100, 101])
    def test_even_block_is_the_toeplitz_fold(self, n_grid):
        # the windows give SciPy's Toeplitz-plus-Hankel construction bit for bit, at
        # matrix orders n_grid - 1 of both parities
        col = _stable_operator(1.5, n_grid)
        n = col.size
        k = n - n // 2
        want = linalg.toeplitz(col[:k])
        want += linalg.hankel(col[::-1][:k], col[::-1][k - 1:2 * k - 1])  # col[n-1-i-j]
        if n % 2:
            want[-1] /= math.sqrt(2.0)
            want[:, -1] /= math.sqrt(2.0)
        assert _even_block(col).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_grid", [64, 512, 4096])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_ground_state_matches_the_subset_solve(self, alpha, n_grid):
        # SciPy's two-vector solve and the Rayleigh quotient of its vector
        col = _stable_operator(alpha, n_grid)
        block = _even_block(col)
        lam, vec = linalg.eigh(block, subset_by_index=[0, 1], driver="evr")
        want = [vec[:, 0] @ (block @ vec[:, 0]), lam[1]]
        assert list(_ground_state(col)) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("planted", [
        {0: 4.0, 1: 1.0},  # a positive off-diagonal entry: the vector alternates in sign
        {0: 2.0, 2: -1.0},  # reducible: the ground vector vanishes at every odd point
        {0: 2.0, 1: -1.0, -1: 2.0},  # odd lowest at -0.5, below a positive even vector
        None,  # a valid operator whose shifted solve returns a vector that changes sign
    ], ids=["positive_off_diagonal", "reducible", "odd_below_even", "sign_change"])
    def test_solver_refuses_a_broken_operator(self, planted):
        def column(alpha, m):
            col = np.zeros(m - 1)
            for k, v in planted.items():
                col[k] = v
            return col

        solve = np.linalg.solve

        def sign_changing_solve(*args, **kwargs):
            vec = solve(*args, **kwargs)
            vec[: vec.size // 2] *= -1.0
            return vec

        patch = (mock.patch.object(np.linalg, "solve", side_effect=sign_changing_solve)
                 if planted is None else
                 mock.patch.object(constants, "_stable_operator", side_effect=column))
        with patch, pytest.raises(RuntimeError, match="ground state is not positive and simple"):
            smallball_constant_spectral(1.5, 64)

    def test_diagnostics_present(self):
        # n_grid 100 is a multiple of 4 but not a power of 2: its grids 25, 50
        # and 100 give matrix orders 24, 49 and 99, of both parities
        for n_grid, grids in ((256, [64, 128, 256]), (100, [25, 50, 100])):
            res = smallball_constant_spectral(1.5, n_grid=n_grid)
            assert res.method == "spectral"
            assert {*res.diagnostics} == {"grids", "raw_eigenvalues", "observed_order",
                                          "spectral_gap"}
            assert res.diagnostics["grids"] == grids
            assert res.value > 0.0 and res.diagnostics["spectral_gap"] > 0.0

    def test_monotone_in_alpha(self):
        vals = [smallball_constant_spectral(a, n_grid=256).value
                for a in (1.2, 1.5, 1.8)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("solve", [dirichlet_eigenvalue, smallball_constant_spectral])
    def test_grid_above_bound_refused_before_any_matrix(self, solve):
        with mock.patch.object(constants, "_stable_operator",
                               side_effect=AssertionError("matrix built")):
            with pytest.raises(ValueError, match=r"n_grid must lie in \[\d+, 8192\], got 8193"):
                solve(1.5, 8193)


class TestSmallballConstantMC:
    def test_small_run_shape_and_positivity(self):
        res = smallball_constant_mc(1.5, r_list=(0.8, 1.0, 1.2), n_paths=3000,
                                    n_steps=256, rng=RngStream(42))
        assert res.method == "mc_fit"
        assert res.value > 0.0
        assert res.diagnostics["slope_stderr"] > 0.0
        assert len(res.diagnostics["p_hat"]) == 3

    def test_p_hat_counts_one_draw_at_every_radius(self):
        r_list, n, steps = (1.0, 1.5, 2.0), 1000, 128
        res = smallball_constant_mc(1.5, r_list=r_list, n_paths=n, n_steps=steps,
                                    rng=RngStream(7))
        [sups] = sample_sups(partial(sample_stable_batch, AlphaStableParams(1.5)),
                             [(None, 0.0)], n, steps, RngStream(7))
        assert res.diagnostics["dropped_r"] == []
        assert res.diagnostics["p_hat"] == [np.count_nonzero(sups < r) / n for r in r_list]

    def test_radius_that_every_path_stays_in_is_dropped(self):
        res = smallball_constant_mc(1.5, r_list=(1.0, 1.5, 2.0, 1e6), n_paths=1000,
                                    n_steps=128, rng=RngStream(7))
        assert res.diagnostics["dropped_r"] == [1e6]
        assert np.isfinite(res.diagnostics["exponent_slope"])

    def test_requires_stream(self):
        with pytest.raises(ValueError):
            smallball_constant_mc(1.5, r_list=(1.0, 1.2), n_paths=100,
                                  rng=np.random.default_rng(0))
