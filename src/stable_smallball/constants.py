"""Numerical constants of the small-deviation asymptotics.

The probability that the symmetric alpha-stable path stays in a centered
sup-norm ball of radius r decays like exp(-K r^-alpha).  This module computes

* ``char_exponent_scale``: the scale c_alpha in the characteristic exponent
  c_alpha |u|^alpha induced by the jump density |x|^(-1-alpha), in closed
  form,
* ``smallball_constant_spectral`` / ``smallball_constant_mc``: the rate K as
  the lowest Dirichlet eigenvalue of the generator on (-1, 1) (multiply by
  R^-alpha for (-R, R)), and as the slope of -log p_hat against r^-alpha
  from simulation; the generator's matrix is solved on its even block only,
  which holds the positive ground state (Kwasnicki 2012), as a
  Perron-Frobenius check of the operator's and the vector's signs confirms,
* ``middle_shift_constant``: the series constant C(alpha) of the
  moderate-shift lower bound exp(-C(alpha) r^-alpha), which bounds K from
  above,
* ``psi``: the convex function (1+u)log(1+u) - u driving all tilt exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .processes import AlphaStableParams

_SERIES_RTOL = 1e-12
# the operator on n_grid cells is solved as one dense block of order n_grid/2,
# 134 MB at this bound; a spectral solve there peaks at about 210 MB
_MAX_GRID = 8192


def psi(u):
    """(1+u) log(1+u) - u for u > -1, elementwise.

    For |u| < 1e-4 the direct expression loses precision, so the alternating
    series u^2/2 - u^3/6 + u^4/12 is used; its remainder is below |u|^5/20,
    which is < 1e-13 relative to the leading term there.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= -1.0):
        raise ValueError("psi is defined for u > -1")
    small = np.abs(u_arr) < 1e-4
    safe = np.where(small, 0.0, u_arr)
    exact = (1.0 + safe) * np.log1p(safe) - safe
    series = u_arr * u_arr * (0.5 - u_arr / 6.0 + u_arr * u_arr / 12.0)
    out = np.where(small, series, exact)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def char_exponent_scale(alpha: float) -> float:
    """c_alpha = 2 * int_0^inf (1 - cos v) v^(-1-alpha) dv, 1 < alpha < 2.

    Evaluated by its closed form pi / (Gamma(1+alpha) sin(pi alpha/2))
    (Samorodnitsky & Taqqu 1994), within a few ulps; the selftest checks it
    against the integral summed by series and quadrature.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    return math.pi / (math.gamma(1 + alpha) * math.sin(math.pi * alpha / 2))


def truncated_second_moment(alpha: float, cut: float) -> float:
    """int_{|x|<cut} x^2 |x|^(-1-alpha) dx = 2 cut^(2-alpha) / (2-alpha)."""
    if cut <= 0.0:
        raise ValueError("cut must be positive")
    return 2.0 * cut ** (2.0 - alpha) / (2.0 - alpha)


def middle_shift_constant(alpha: float) -> float:
    """Series constant C(alpha) controlling the moderate-shift lower bound.

    C(alpha) = 2( 1/alpha + sum_{k>=1} 1/(2k(2k-1)(2k-alpha))
                  + 24 * 6^alpha * (1/(2-alpha) + (2^(alpha-1)-1)/(6(3-alpha))) ).

    Terms are summed until the closed-form comparison tail (the alpha -> 2
    telescoping bound 1/(4k(2k+1))) drops below 1e-12 of the running value.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    a = float(alpha)
    big = 24.0 * 6.0**a * (1.0 / (2.0 - a) + (2.0 ** (a - 1.0) - 1.0) / (6.0 * (3.0 - a)))
    rough = 2.0 * (1.0 / a + 1.0 + big)
    # tail after k terms is < 1/(4k(2k+1)) < 1/(8k^2)
    k_max = int(np.ceil(np.sqrt(1.0 / (8.0 * _SERIES_RTOL * rough)))) + 8
    k = np.arange(1, k_max + 1, dtype=float)
    series = float(np.sum(1.0 / (2.0 * k * (2.0 * k - 1.0) * (2.0 * k - a))))
    return 2.0 * (1.0 / a + series + big)


@dataclass(frozen=True)
class SmallBallConstant:
    """Estimate of the small-ball rate constant K in exp(-K r^-alpha)."""

    alpha: float
    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in ("spectral", "mc_fit"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.value > 0.0):
            raise ValueError("rate constant must be positive")


def _stable_operator(alpha: float, m: int) -> np.ndarray:
    """First column of the negated generator's discretization on (-1, 1),
    Dirichlet outside: a symmetric Toeplitz matrix of order m - 1.

    Writing g(y) = phi(x+y) + phi(x-y) - 2 phi(x), the generator acts as
    int_0^inf g(y) y^(-1-alpha) dy.  On the first cell [0, h] the quadratic
    model g(y) ~ g(h) y^2/h^2 absorbs the singularity (the second-order
    Taylor compensation); on later cells g is interpolated linearly between
    grid values, integrated against the kernel in closed form; beyond y = 2
    both arguments are outside the interval, so g = -2 phi(x) exactly and the
    tail integrates to -2 phi(x) 2^(-alpha)/alpha.
    """
    a = alpha
    h = 2.0 / m
    j = np.arange(1, m + 1, dtype=float)
    y = j * h
    # I0 = int y^(-1-a), I1 = int y^(-a) over [y_j, y_{j+1}]
    i0 = (y[:-1] ** -a - y[1:] ** -a) / a
    i1 = (y[:-1] ** (1.0 - a) - y[1:] ** (1.0 - a)) / (a - 1.0)
    left = (y[1:] * i0 - i1) / h   # weight on g(y_j)
    right = (i1 - y[:-1] * i0) / h  # weight on g(y_{j+1})

    w = np.zeros(m)
    w[0] = h ** (-a) / (2.0 - a) + left[0]
    w[1:-1] = right[:-1] + left[1:]
    w[-1] = right[-1]

    tail = 2.0 ** (-a) / a
    diag = 2.0 * np.sum(w) + 2.0 * tail
    col = np.zeros(m - 1)
    col[0] = diag
    col[1:] = -w[: m - 2]
    return col


def _even_block(col: np.ndarray) -> np.ndarray:
    """The block of the symmetric Toeplitz matrix with first column ``col`` on
    its even vectors, as the flip i -> n-1-i commutes with it.  The basis is
    (e_i + e_{n-1-i})/sqrt 2 for i < n//2, and e_{n//2} too when n is odd;
    entry (i, j) is col[|i-j|] + col[n-1-i-j], over sqrt 2 in the middle row
    and column.
    """
    from scipy import linalg
    n = col.size
    k = n - n // 2
    block = linalg.toeplitz(col[:k])
    block += np.lib.stride_tricks.sliding_window_view(col[::-1], k)[:k]
    if n % 2:  # the middle vector is its own mirror image
        block[-1] /= math.sqrt(2.0)
        block[:, -1] /= math.sqrt(2.0)
    return block


def _ground_state(col: np.ndarray) -> tuple[float, float]:
    """(lambda_1, lambda_3), the two lowest even eigenvalues of the symmetric
    Toeplitz matrix with first column ``col``, from one ``eigh`` of its even
    block.  lambda_1 is the Rayleigh quotient of the vector: ``eigh``'s own
    value is off by about eps times the block's norm (1.3e-10 relative at
    alpha 1.8 and n_grid 4096).  By Perron-Frobenius, an irreducible Z-matrix
    (col[1] < 0, col[2:] <= 0) with a nonnegative eigenvector has it at its
    lowest eigenvalue, which is simple: no odd mode lies at or below it."""
    from scipy import linalg
    # the block is symmetric, so its transpose is the Fortran-ordered array
    # that LAPACK overwrites without a copy
    lam, vec = linalg.eigh(_even_block(col).T, subset_by_index=[0, 1], driver="evr",
                           overwrite_a=True)
    vec = vec[:, 0] if vec[:, 0].sum() >= 0.0 else -vec[:, 0]
    if not (col[1] < 0.0 and np.all(col[2:] <= 0.0) and np.min(vec) >= -1e-8):
        raise RuntimeError("ground state is not positive and simple; discretization is broken")
    return float(vec @ (_even_block(col) @ vec)), float(lam[1])


def dirichlet_eigenvalue(alpha: float, n_grid: int) -> tuple[float, float]:
    """(lambda_1, lambda_3), the two lowest even Dirichlet eigenvalues of the
    generator on (-1, 1); multiply by R^-alpha for (-R, R)."""
    if not 8 <= n_grid <= _MAX_GRID:
        raise ValueError(f"n_grid must lie in [8, {_MAX_GRID}], got {n_grid}")
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    return _ground_state(_stable_operator(alpha, n_grid))


def _richardson(values: dict[int, float]) -> tuple[float, float | None]:
    """Extrapolate eigenvalues solved on grids m/4, m/2, m with measured order.

    For l(m) = L + C m^-p the differences d1 = l1 - l2, d2 = l2 - l3 give
    2^p = d1/d2 and L = l3 - d2/(2^p - 1).
    """
    ms = sorted(values)
    l1, l2, l3 = (values[m] for m in ms)
    d1, d2 = l1 - l2, l2 - l3
    if d2 == 0.0 or d1 / d2 <= 1.0:
        return l3, None
    p = float(np.log2(d1 / d2))
    p = min(max(p, 0.3), 4.0)
    return l3 - d2 / (2.0**p - 1.0), p


def smallball_constant_spectral(alpha: float, n_grid: int = 1024) -> SmallBallConstant:
    """Small-ball rate constant from the spectral problem, Richardson-refined.

    K is the lowest Dirichlet eigenvalue on (-1, 1); multiply by R^-alpha for
    (-R, R), by self-similarity.  Solves on grids n_grid/4, n_grid/2 and
    n_grid (a multiple of 4, so the ratios are 2), estimates the observed
    convergence order from the three values and extrapolates.  The returned
    diagnostics carry the grids, the raw eigenvalues, the order and the
    spectral gap lambda_3 - lambda_1 on the finest grid: the next even mode,
    since an odd one vanishes at 0 and does not enter P(sup|X| < r).
    """
    if not 64 <= n_grid <= _MAX_GRID:  # before the coarser grids' operators are built
        raise ValueError(f"n_grid must lie in [64, {_MAX_GRID}], got {n_grid}")
    if n_grid % 4:
        raise ValueError(f"n_grid must be a multiple of 4, got {n_grid}")
    grids = [n_grid // 4, n_grid // 2, n_grid]
    lam1, lam3 = zip(*(dirichlet_eigenvalue(alpha, m) for m in grids))
    value, order = _richardson(dict(zip(grids, lam1)))
    diagnostics = {
        "grids": grids,
        "raw_eigenvalues": list(lam1),
        "observed_order": order,
        "spectral_gap": lam3[-1] - lam1[-1],
    }
    return SmallBallConstant(alpha=alpha, value=value, method="spectral", diagnostics=diagnostics)


def smallball_constant_mc(alpha: float, r_list=(0.6, 0.8, 1.0, 1.2), n_paths: int = 100_000,
                          n_steps: int = 2048, *, rng, pmap=map) -> SmallBallConstant:
    """Small-ball rate constant from crude Monte Carlo over several radii.

    One set of paths is drawn on ``rng`` and its sup is counted against every
    radius, as ``smallball.tail_prob_check`` counts its levels, so the
    exit-free fractions p_hat are nested events of one sample.  Then
    -log p_hat is regressed on r^-alpha by weighted least squares with an
    intercept; the intercept absorbs the subexponential prefactor, the slope
    estimates the rate constant.  Radii whose p_hat is exactly zero or one
    are dropped and reported.

    Diagnostics include a free-exponent fit: the slope of log(-log p_hat)
    against log r, which should sit near -alpha.
    """
    r_arr = _distinct_levels(r_list, "radii")
    sups = _stable_sups(AlphaStableParams(alpha), n_paths, n_steps, rng, pmap)
    return _fit_constant(alpha, r_arr, sups, n_steps)


def _stable_sups(params: AlphaStableParams, n_paths: int, n_steps: int, rng, pmap
                 ) -> np.ndarray:
    """sup |X| over the grid of ``n_paths`` CMS paths drawn on ``rng``: the
    sample that the constant fit and ``smallball.tail_prob_check`` count."""
    from .simulate import sample_stable_batch, sample_sups
    sample = partial(sample_stable_batch, params)
    return sample_sups(sample, [(None, 0.0)], n_paths, n_steps, rng, pmap)[0]


def _fit_constant(alpha: float, r_arr: np.ndarray, sups: np.ndarray, n_steps: int
                  ) -> SmallBallConstant:
    """The fit of ``smallball_constant_mc`` over the sups of one path set."""
    n_paths = sups.size
    hits = (sups < r_arr[:, None]).sum(axis=1)

    p_hat = hits / n_paths
    keep = (p_hat > 0.0) & (p_hat < 1.0)  # -log p_hat of 0 or 1 carries no rate
    dropped = [float(r) for r in r_arr[~keep]]
    if keep.sum() < 2:
        raise RuntimeError("too few resolvable radii for a slope fit; increase n_paths")
    r_kept, p_kept = r_arr[keep], p_hat[keep]

    x = r_kept ** (-alpha)
    y = -np.log(p_kept)
    w = n_paths * p_kept / (1.0 - p_kept)  # 1/var of -log p_hat
    slope, slope_se, intercept = _wls_line(x, y, w)

    lx, ly = np.log(r_kept), np.log(y)
    w2 = w * y * y
    exp_slope, exp_slope_se, _ = _wls_line(lx, ly, w2)

    diagnostics = {
        "r_list": [float(r) for r in r_kept],
        "p_hat": [float(p) for p in p_kept],
        "stderr": [float(np.sqrt(p * (1 - p) / n_paths)) for p in p_kept],
        "dropped_r": dropped,
        "intercept": intercept,
        "slope_stderr": slope_se,
        "exponent_slope": exp_slope,
        "exponent_slope_stderr": exp_slope_se,
        "n_paths": n_paths,
        "n_steps": n_steps,
    }
    return SmallBallConstant(alpha=alpha, value=slope, method="mc_fit", diagnostics=diagnostics)


def _distinct_levels(values, name: str) -> np.ndarray:
    """``values`` sorted as floats: at least two, each positive, finite and
    distinct, since one path set counted twice at a level doubles its hits."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size < 2 or not (np.all(np.isfinite(arr)) and arr[0] > 0.0
                            and np.all(np.diff(arr) > 0.0)):
        raise ValueError(f"need at least two {name}, each positive, finite and distinct")
    return arr


def _wls_line(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """Weighted least squares y ~ a + b x; returns (b, stderr(b), a)."""
    sw = np.sum(w)
    xb = np.sum(w * x) / sw
    yb = np.sum(w * y) / sw
    sxx = np.sum(w * (x - xb) ** 2)
    if sxx <= 0.0:
        raise ValueError("degenerate abscissae in weighted fit")
    b = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    a = float(yb - b * xb)
    return b, float(1.0 / np.sqrt(sxx)), a
