"""The selftest's own references: the exact two-sample KS p-value and the two
Gauss-Legendre quadratures, each against the SciPy routine it replaces."""

import numpy as np
import pytest
from scipy import integrate, stats

from stable_smallball import char_exponent_scale, psi
from stable_smallball.diagnostics import (
    _char_exponent_scale_by_quadrature,
    _exponent_by_quadrature,
    _ks_2samp_pvalue,
    _random_tilts,
)


class TestKsPvalue:
    @pytest.mark.parametrize("n", [2000, 10000])
    @pytest.mark.parametrize("shift", [0.0, 0.05, 0.1])
    def test_equals_scipy(self, n, shift):
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal(n), rng.standard_normal(n) + shift
        assert _ks_2samp_pvalue(x, y) == stats.ks_2samp(x, y).pvalue

    @pytest.mark.parametrize("n", [2000, 10000])
    def test_tied_samples_equal_scipy(self, n):
        rng = np.random.default_rng(n + 1)
        x, y = rng.integers(0, 30, n).astype(float), rng.integers(1, 31, n).astype(float)
        assert _ks_2samp_pvalue(x, y) == stats.ks_2samp(x, y).pvalue

    def test_no_gap_gives_one(self):
        # h = 0: the same values in another order
        x = np.random.default_rng(3).standard_normal(2000)
        assert _ks_2samp_pvalue(x, x[::-1]) == stats.ks_2samp(x, x[::-1]).pvalue == 1.0

    def test_refuses_unequal_sizes(self):
        with pytest.raises(ValueError, match="equal sizes"):
            _ks_2samp_pvalue(np.zeros(10), np.zeros(11))


def _char_exponent_scale_by_quad(a: float) -> float:
    """2 * int_0^inf (1 - cos v) v^(-1-a) dv by ``integrate.quad``: 2 sin^2(v/2) v^-2
    against the algebraic weight v^(1-a) (QAWS) on [0, 1], one 2 pi period at a
    time up to 1000, and the cosine weight (QAWF) beyond."""
    def f(v):
        return 2.0 * np.sin(0.5 * v) ** 2 * v ** (-1.0 - a)

    total = integrate.quad(lambda v: 0.5 * np.sinc(v / (2.0 * np.pi)) ** 2, 0.0, 1.0,
                           weight="alg", wvar=(1.0 - a, 0.0))[0]
    lo, v = 1.0, 1000.0
    while lo < v:
        hi = min(lo + 2.0 * np.pi, v)
        total += integrate.quad(f, lo, hi)[0]
        lo = hi
    total += v ** (-a) / a - integrate.quad(lambda x: x ** (-1.0 - a), v, np.inf,
                                            weight="cos", wvar=1.0)[0]
    return 2.0 * total


@pytest.mark.parametrize("alpha", np.round(np.linspace(1.01, 1.99, 15), 2))
def test_char_exponent_scale_quadrature_equals_quad(alpha):
    ref = _char_exponent_scale_by_quad(alpha)
    assert _char_exponent_scale_by_quadrature(alpha) == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert char_exponent_scale(alpha) == pytest.approx(ref, rel=1e-13, abs=0.0)


def _exponent_by_quad(tilt) -> float:
    """The psi integral by ``integrate.quad``, segment by segment in x."""
    a, cut = tilt.params.alpha, tilt.jump_cut
    total = 0.0
    for t_lo, t_hi, slope in zip(tilt.f.knot_times[:-1], tilt.f.knot_times[1:], tilt.f.slopes):
        beta = tilt.amplitude_factor * slope / cut
        smooth = integrate.quad(
            lambda x: (psi(beta * x) + psi(-beta * x) - (beta * x) ** 2) * x ** (-1.0 - a),
            0.0, cut, limit=200, epsabs=1e-13, epsrel=1e-11)[0]
        total += (t_hi - t_lo) * (smooth + beta**2 * cut ** (2.0 - a) / (2.0 - a))
    return tilt.intensity_scale * total


@pytest.mark.parametrize("i", range(20))
def test_exponent_quadrature_equals_quad_on_the_full_selftest_tilts(i):
    # the 20 tilts of ``selftest --full``
    tilt = list(_random_tilts(20, 105))[i]
    ref = _exponent_by_quad(tilt)
    assert _exponent_by_quadrature(tilt) == pytest.approx(ref, rel=1e-12, abs=0.0)
