"""Exponential tilts of the jump measure and their exact reweighting.

A tilt multiplies the jump intensity below ``jump_cut`` by 1 + beta(t) x,
with beta(t) proportional to the derivative of a target shift f.  Because
the factor is linear and the cut symmetric, the compensator correction
int (e^theta - 1) d(Lambda dt) vanishes identically (odd integrand), so the
log likelihood ratio of base against tilted law is just minus the sum of
theta over realized jumps, plus the matching term for the Gaussian proxy of
the unresolved small jumps.  Two regimes share the machinery:

* ``middle_shift``: cut r, kappa = c, unit intensity; the jumps in
  [r, 2r) are kept but not tilted, and those of at least 2r, which always
  leave a ball of radius r, are removed;
* ``small_shift``: rescaled coordinates with cut 1, intensity multiplied by
  rho, kappa = lam * rho^(-(alpha-1)/alpha); every jump beyond the cut is
  kept but not tilted.

``deterministic_exponent`` evaluates int_0^1 int psi(beta(t) x) dLambda dt
as an exact series in the even derivative moments of f, the quantity that
drives every lower-bound exponent in the shifted small-ball estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .processes import AlphaStableParams, ShiftFunction

_SERIES_RTOL = 1e-12


@dataclass(frozen=True)
class TiltSpec:
    """A time-inhomogeneous linear tilt of the jump measure.

    Carries the regime label and its two defining reals; everything else
    (kappa, jump_cut, exterior_cut, intensity_scale, amplitude) is
    derived.  Use the :meth:`middle_shift` and :meth:`small_shift`
    constructors.  A tilt whose amplitude bound is not below one cannot be
    built: the intensity factor 1 + beta(t) x must stay positive inside the
    cut.
    """

    params: AlphaStableParams
    f: ShiftFunction
    regime: str
    coeff: float   # c (middle) or lam (small)
    extent: float  # r (middle) or rho (small)

    def __post_init__(self) -> None:
        if self.regime not in ("middle_shift", "small_shift"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.coeff < 0.0:
            raise ValueError("tilt coefficient must be nonnegative")
        if not 0.0 < self.extent < np.inf:
            raise ValueError("tilt extent must be positive and finite")
        if not self.amplitude_bound < 1.0:
            raise ValueError(f"tilt is out of range: amplitude bound {self.amplitude_bound:.4f}"
                             " is not below 1")

    @classmethod
    def middle_shift(cls, params: AlphaStableParams, f: ShiftFunction,
                     c: float, r: float) -> "TiltSpec":
        return cls(params=params, f=f, regime="middle_shift", coeff=c, extent=r)

    @classmethod
    def small_shift(cls, params: AlphaStableParams, f: ShiftFunction, lam: float,
                    r: float) -> "TiltSpec":
        """Small-shift tilt in rescaled coordinates at radius r.

        Its rho is rho* = r^-alpha / (lam r^(alpha-1)), which balances the
        no-big-jump cost against the tilt cost at radius r.
        """
        if lam <= 0.0:
            raise ValueError("the small-shift tilt needs lam > 0")
        rho = r**-params.alpha / (lam * r ** (params.alpha - 1.0))
        return cls(params=params, f=f, regime="small_shift", coeff=lam, extent=rho)

    @cached_property
    def kappa(self) -> float:
        if self.regime == "middle_shift":
            return self.coeff
        a = self.params.alpha
        return self.coeff * self.extent ** (-(a - 1.0) / a)

    @property
    def jump_cut(self) -> float:
        return self.extent if self.regime == "middle_shift" else 1.0

    @property
    def intensity_scale(self) -> float:
        return 1.0 if self.regime == "middle_shift" else self.extent

    @property
    def exterior_cut(self) -> float:
        """The untilted jumps jump_cut <= |x| < exterior_cut are kept: up to
        the ball's diameter 2r in the middle regime, every one in the small."""
        return 2.0 * self.jump_cut if self.regime == "middle_shift" else np.inf

    @cached_property
    def amplitude_factor(self) -> float:
        """kappa (2-alpha)/2, the factor of f' in the amplitude b(t)."""
        return self.kappa * (2.0 - self.params.alpha) / 2.0

    @cached_property
    def amplitude_bound(self) -> float:
        return self.amplitude_factor * self.f.sup_deriv

    def amplitude(self, t):
        """b(t) = kappa (2-alpha)/2 f'(t)."""
        return self.amplitude_factor * self.f.derivative(t)

    def beta(self, t):
        return self.amplitude(t) / self.jump_cut

    def compensator_shift_curve(self, t):
        """Mean path of the tilted process: intensity_scale * kappa * cut^(1-alpha) f(t)."""
        lam_eff = self.intensity_scale * self.kappa * self.jump_cut ** (1.0 - self.params.alpha)
        return lam_eff * np.asarray(self.f(t), dtype=float)


def theta(tilt: TiltSpec, x, t):
    """Log tilt factor log(1 + beta(t) x) inside the cut, zero outside."""
    x_arr = np.asarray(x, dtype=float)
    arg = tilt.beta(t) * x_arr
    inside = np.abs(x_arr) < tilt.jump_cut
    if np.any(inside & (arg <= -1.0)):
        raise ValueError("tilt factor is nonpositive; amplitude bound violated")
    out = np.where(inside, np.log1p(np.where(inside, arg, 0.0)), 0.0)
    return float(out) if x_arr.ndim == 0 else out


def step_mean_amplitude(tilt: TiltSpec, n_steps: int) -> np.ndarray:
    """Exact per-step averages of beta(t) on the uniform grid.

    Averaging f' over [t_i, t_{i+1}] is just a difference quotient of f, so
    knot positions inside a step are handled exactly.
    """
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    f_vals = np.asarray(tilt.f(grid), dtype=float)
    slope = np.diff(f_vals) * n_steps
    return tilt.amplitude_factor / tilt.jump_cut * slope


def log_weight_batch(tilt_sums: np.ndarray, proxy_sums: np.ndarray, bbar: np.ndarray,
                     proxy_var: float) -> np.ndarray:
    """log(dP_base/dP_tilted) per path of a tilted batch, from its records and proxy.

    Minus ``tilt_sums``, each path's sum of theta = log1p(beta(t) x) over its
    records, which the sampler's cells add up as they thin (the untilted
    exterior band adds 0), minus the proxy's exact normal likelihood ratio:
    ``proxy_sums``, each path's sum of its proxy times the step means
    ``bbar`` of beta, which the cells take over their own steps, plus half
    the proxy's per-step variance ``proxy_var`` times the sum of bbar^2.
    Each block, exponentiated, has mean 1 under the tilted law.
    """
    lw = np.zeros(tilt_sums.size)
    lw -= tilt_sums
    lw -= proxy_sums + 0.5 * proxy_var * float(np.sum(bbar**2))
    return lw


def deterministic_exponent(tilt: TiltSpec) -> float:
    """int_0^1 int psi(beta(t) x) dLambda dt as an exact moment series.

    Equals scale * (2/cut^alpha) * sum_k m_2k / (2k(2k-1)(2k-alpha)) with
    m_2k the 2k-th moment of the amplitude b(t); for piecewise-linear f the
    moments are finite sums.  Terms are added until the geometric tail bound
    (ratio = amplitude bound squared) falls below 1e-12 of the partial sum.
    """
    a = tilt.params.alpha
    u = tilt.amplitude_factor * tilt.f.slopes
    w = np.diff(tilt.f.knot_times)
    b_sup = float(np.max(np.abs(u))) if u.size else 0.0
    if b_sup == 0.0:
        return 0.0

    pref = tilt.intensity_scale * 2.0 / tilt.jump_cut**a
    total = 0.0
    k0 = 1
    chunk = 64
    while True:
        k = np.arange(k0, k0 + chunk, dtype=float)
        denom = 2.0 * k * (2.0 * k - 1.0) * (2.0 * k - a)
        with np.errstate(under="ignore"):
            powers = np.exp(2.0 * k[:, None] * np.log(np.maximum(np.abs(u), 1e-300))[None, :])
        m = powers @ w
        total += float(np.sum(m / denom))
        k_next = k0 + chunk
        tail = b_sup ** (2.0 * k_next) / (
            2.0 * k_next * (2.0 * k_next - 1.0) * (2.0 * k_next - a) * max(1.0 - b_sup**2, 1e-12))
        if tail <= _SERIES_RTOL * max(total, 1e-300):
            break
        k0 = k_next
        if k0 > 2_000_000:
            raise RuntimeError("series did not converge; amplitude bound too close to 1")
    return pref * total

