"""Numerical constants of the small-deviation asymptotics.

The probability that the symmetric alpha-stable path stays in a centered
sup-norm ball of radius r decays like exp(-K r^-alpha).  This module computes

* ``char_exponent_scale``: the scale c_alpha in the characteristic exponent
  c_alpha |u|^alpha induced by the jump density |x|^(-1-alpha),
* ``smallball_constant_spectral`` / ``smallball_constant_mc``: the rate K as
  the lowest Dirichlet eigenvalue of the generator on (-1, 1), and as the
  slope of -log p_hat against r^-alpha from simulation,
* ``middle_shift_constant`` and ``large_shift_constant``: series constants
  bounding shifted small-ball probabilities in the moderate and large shift
  regimes,
* ``bounded_jump_martingale_lower_bound``: a crude lower bound needing only
  the second moment of the jump measure,
* ``psi``: the convex function (1+u)log(1+u) - u driving all tilt exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import integrate, linalg

from .processes import AlphaStableParams, ShiftFunction

_SERIES_RTOL = 1e-12
_QUAD_RTOL = 1e-8


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


def char_exponent_scale(alpha: float, split: float = 1.0, tail_start: float = 1000.0) -> float:
    """c_alpha = 2 * int_0^inf (1 - cos v) v^(-1-alpha) dv, 1 < alpha < 2.

    The singular head [0, split] is summed exactly from the cosine series
    (term-by-term integration, alternating with factorial decay), avoiding
    the catastrophic cancellation of 1 - cos v near 0.  The oscillatory
    middle is adaptive quadrature one period at a time, and the far tail is
    integrated by parts four times so the neglected remainder is bounded by
    (1+a)(2+a)(3+a) * V^(-4-a), far below the 1e-8 relative target.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    a = float(alpha)

    head = 0.0
    term_sign = 1.0
    fact = 2.0  # (2k)! starting at k=1
    k = 1
    while True:
        term = term_sign * split ** (2 * k - a) / (fact * (2 * k - a))
        head += term
        if abs(term) < 1e-17 * max(head, 1.0):
            break
        k += 1
        fact *= (2 * k - 1) * (2 * k)
        term_sign = -term_sign

    middle = 0.0
    lo = split
    period = 2.0 * np.pi
    while lo < tail_start:
        hi = min(lo + period, tail_start)
        middle += integrate.quad(lambda v: (1.0 - np.cos(v)) * v ** (-1.0 - a), lo, hi)[0]
        lo = hi

    v = tail_start
    s, c = np.sin(v), np.cos(v)
    tail = (
        v ** (-a) / a
        + s * v ** (-1.0 - a)
        - (1.0 + a) * c * v ** (-2.0 - a)
        - (1.0 + a) * (2.0 + a) * s * v ** (-3.0 - a)
        + (1.0 + a) * (2.0 + a) * (3.0 + a) * c * v ** (-4.0 - a)
    )
    return 2.0 * (head + middle + tail)


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


def large_shift_constant(f: ShiftFunction, alpha: float) -> float:
    """Series constant C1(f, alpha) for the large-shift decay rate.

    C1 = ||f'||^(alpha/(alpha-1)) ((2-alpha)/2)^(alpha/(alpha-1))
         * sum_{k>=1} m_k / (k(2k-1)(2k-alpha)),
    with m_k = int_0^1 (f'(t)/||f'||)^(2k) dt, exact for piecewise-linear f.
    Since m_k <= 1 the truncation tail is below the same telescoping bound
    as in :func:`middle_shift_constant`.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    a = float(alpha)
    sup = f.sup_deriv
    if sup == 0.0:
        return 0.0
    weights = np.diff(f.knot_times)
    q = (f.slopes / sup) ** 2  # in [0, 1]
    k_max = int(np.ceil(np.sqrt(1.0 / (4.0 * _SERIES_RTOL)))) + 8
    k = np.arange(1, k_max + 1, dtype=float)
    denom = k * (2.0 * k - 1.0) * (2.0 * k - a)
    series = 0.0
    for w, qs in zip(weights, q):
        if qs == 0.0:
            continue
        # m-contribution w * qs^k, evaluated in log space to dodge under/overflow
        powers = np.exp(k * np.log(qs)) if qs < 1.0 else np.ones_like(k)
        series += w * float(np.sum(powers / denom))
    pref = (sup * (2.0 - a) / 2.0) ** (a / (a - 1.0))
    return pref * series


def bounded_jump_martingale_lower_bound(second_moment: float, eps: float) -> float:
    """exp(-(12 * second_moment / eps^2 + 2)).

    Lower bound on P(sup |X| < 3 eps) for a centered pure-jump martingale
    whose jump measure nu has int x^2 nu(dx) = second_moment and jumps
    bounded by eps.  Crude but assumption-light.
    """
    if second_moment < 0.0:
        raise ValueError("second moment must be nonnegative")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return float(np.exp(-(12.0 * second_moment / eps**2 + 2.0)))


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


def _stable_operator(alpha: float, m: int, half_width: float) -> np.ndarray:
    """Dense discretization of the negated generator on (-R, R), Dirichlet outside.

    Writing g(y) = phi(x+y) + phi(x-y) - 2 phi(x), the generator acts as
    int_0^inf g(y) y^(-1-alpha) dy.  On the first cell [0, h] the quadratic
    model g(y) ~ g(h) y^2/h^2 absorbs the singularity (the second-order
    Taylor compensation); on later cells g is interpolated linearly between
    grid values, integrated against the kernel in closed form; beyond y = 2R
    both arguments are outside the interval, so g = -2 phi(x) exactly and the
    tail integrates to -2 phi(x) (2R)^(-alpha)/alpha.
    """
    a = alpha
    h = 2.0 * half_width / m
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

    tail = (2.0 * half_width) ** (-a) / a
    diag = 2.0 * np.sum(w) + 2.0 * tail
    col = np.zeros(m - 1)
    col[0] = diag
    col[1:] = -w[: m - 2]
    return linalg.toeplitz(col)


def _gaussian_operator(m: int, half_width: float) -> np.ndarray:
    h = 2.0 * half_width / m
    col = np.zeros(m - 1)
    col[0] = 1.0 / h**2
    col[1] = -0.5 / h**2
    return linalg.toeplitz(col)


def _inverse_iteration(a_mat: np.ndarray, v: np.ndarray, tol: float,
                       deflate: np.ndarray | None = None, max_iter: int = 500):
    """Inverse power iteration on an SPD matrix from the unit start vector ``v``.

    Returns the smallest eigenpair, or with ``deflate`` (a unit eigenvector)
    the smallest one orthogonal to it; the vector's sign makes its sum
    nonnegative.  Raises ``RuntimeError`` if the Rayleigh quotient has not
    settled to ``tol`` (relative) within ``max_iter`` solves.
    """
    cho = linalg.cho_factor(a_mat)
    lam_old = np.inf
    for _ in range(max_iter):
        z = linalg.cho_solve(cho, v)
        if deflate is not None:
            z -= (z @ deflate) * deflate
        v = z / np.linalg.norm(z)
        lam = float(v @ (a_mat @ v))
        if abs(lam - lam_old) <= tol * abs(lam):
            break
        lam_old = lam
    else:
        raise RuntimeError("inverse power iteration did not converge")
    if v.sum() < 0:
        v = -v
    return lam, v


def dirichlet_eigenvalue(alpha: float | None, n_grid: int, half_width: float = 1.0,
                         mode: str = "stable") -> tuple[float, np.ndarray]:
    """Smallest Dirichlet eigenvalue of the generator on (-half_width, half_width).

    ``mode="gaussian"`` swaps in -(1/2) d^2/dx^2, the alpha -> 2 analogue used
    for validation against pi^2/8.
    """
    if n_grid < 8:
        raise ValueError("grid too coarse")
    if mode == "stable":
        if alpha is None or not (1.0 < alpha < 2.0):
            raise ValueError("stable mode needs alpha in (1, 2)")
        a_mat = _stable_operator(alpha, n_grid, half_width)
    elif mode == "gaussian":
        a_mat = _gaussian_operator(n_grid, half_width)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = a_mat.shape[0]
    lam, vec = _inverse_iteration(a_mat, np.ones(n) / np.sqrt(n), 1e-12)
    if np.min(vec) < -1e-8:
        raise RuntimeError("ground state is not positive; discretization is broken")
    return lam, vec


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


def smallball_constant_spectral(alpha: float, n_grid: int = 1024,
                                half_width: float = 1.0) -> SmallBallConstant:
    """Small-ball rate constant from the spectral problem, Richardson-refined.

    Solves on grids n_grid/4, n_grid/2 and n_grid, estimates the observed
    convergence order from the three values and extrapolates.  The returned
    diagnostics carry the raw eigenvalues, the order, the spectral gap and
    the eigenvector positivity check.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    grids = [n_grid // 4, n_grid // 2, n_grid]
    raw: dict[int, float] = {}
    vec = None
    for m in grids:
        lam, vec = dirichlet_eigenvalue(alpha, m, half_width, mode="stable")
        raw[m] = lam
    value, order = _richardson(raw)
    a_mat = _stable_operator(alpha, grids[-1], half_width)
    start = np.random.default_rng(0).standard_normal(a_mat.shape[0])
    start -= (start @ vec) * vec
    lam2, _ = _inverse_iteration(a_mat, start / np.linalg.norm(start), 1e-10, deflate=vec)
    gap = lam2 - raw[grids[-1]]
    diagnostics = {
        "grids": grids,
        "raw_eigenvalues": [raw[m] for m in grids],
        "observed_order": order,
        "spectral_gap": gap,
        "half_width": half_width,
    }
    if gap <= 0.0:
        raise RuntimeError("ground state is not simple")
    return SmallBallConstant(alpha=alpha, value=value, method="spectral", diagnostics=diagnostics)


def gaussian_validation_eigenvalue(n_grid: int = 512) -> float:
    """Richardson-refined lowest eigenvalue of -(1/2) d^2/dx^2 on (-1, 1).

    The exact value is pi^2/8; the discretization converges at second order,
    so the three-grid extrapolation leaves a tiny residual.
    """
    raw = {}
    for m in (n_grid // 4, n_grid // 2, n_grid):
        lam, _ = dirichlet_eigenvalue(None, m, mode="gaussian")
        raw[m] = lam
    value, _ = _richardson(raw)
    return value


def smallball_constant_mc(alpha: float, r_list=(0.6, 0.8, 1.0, 1.2), n_paths: int = 100_000,
                          n_steps: int = 2048, rng=None, pmap=map) -> SmallBallConstant:
    """Small-ball rate constant from crude Monte Carlo over several radii.

    For each r the exit-free fraction p_hat is estimated on fresh paths
    (independent substreams), then -log p_hat is regressed on r^-alpha by
    weighted least squares with an intercept; the intercept absorbs the
    subexponential prefactor, the slope estimates the rate constant.
    Radii whose p_hat is exactly zero are dropped and reported.

    Diagnostics include a free-exponent fit: the slope of log(-log p_hat)
    against log r, which should sit near -alpha.
    """
    from .simulate import _require_stream, sample_stable_batch, sample_sups

    _require_stream(rng)  # before rng.child: the driver sees only the children
    sample = partial(sample_stable_batch, AlphaStableParams(alpha))
    r_arr = np.asarray(sorted(r_list), dtype=float)
    if r_arr.size < 2:
        raise ValueError("need at least two radii")

    hits = np.zeros(r_arr.size, dtype=np.int64)
    for i, r in enumerate(r_arr):
        sups = sample_sups(sample, [(None, 0.0)], n_paths, n_steps, rng.child(i), pmap)
        hits[i] = int(np.sum(sups < r))

    p_hat = hits / n_paths
    keep = p_hat > 0.0
    dropped = [float(r) for r in r_arr[~keep]]
    if keep.sum() < 2:
        raise RuntimeError("too few resolvable radii for a slope fit; increase n_paths")
    r_kept, p_kept = r_arr[keep], p_hat[keep]

    x = r_kept ** (-alpha)
    y = -np.log(p_kept)
    w = n_paths * p_kept / np.maximum(1.0 - p_kept, 1e-12)  # 1/var of -log p_hat
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
        "n_paths_per_r": n_paths,
        "n_steps": n_steps,
    }
    return SmallBallConstant(alpha=alpha, value=slope, method="mc_fit", diagnostics=diagnostics)


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
