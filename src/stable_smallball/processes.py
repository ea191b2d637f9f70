"""Core model objects: stable-process parameters, shift functions, estimates.

Everything here is a small immutable value type.  The process of interest is
the symmetric alpha-stable Levy process with jump measure |x|^(-1-alpha) dx
and stability index 1 < alpha < 2; its characteristic function is
exp(-c_alpha * t * |u|^alpha) with c_alpha the characteristic-exponent scale
computed in :mod:`stable_smallball.constants`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class AlphaStableParams:
    """Parameters of the symmetric alpha-stable process, 1 < alpha < 2.

    The boundary cases are excluded on purpose: alpha = 2 is the Wiener
    process (only the spectral solver has a Gaussian validation mode) and
    alpha <= 1 changes the compensation structure of the jump integral.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie strictly in (1, 2), got {self.alpha}")

    @cached_property
    def c_alpha(self) -> float:
        """Characteristic-exponent scale, 2*int_0^inf (1-cos v) v^(-1-alpha) dv."""
        from .constants import char_exponent_scale

        value = char_exponent_scale(self.alpha)
        if not value > 0.0:
            raise ValueError(f"characteristic scale must be positive, got {value}")
        return value


def _as_float_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ShiftFunction:
    """Piecewise-linear shift f on [0, 1] with f(0) = 0.

    Parameters
    ----------
    knot_times, knot_values:
        Knot coordinates.  Times must start at 0, increase strictly and end
        at 1; the first value must be 0.

    Notes
    -----
    ``sup_deriv`` is the sup norm of f' and ``l2_deriv`` the L2 norm
    (int_0^1 f'(t)^2 dt)^(1/2); both are exact for the piecewise-linear
    family.  For any 0 <= a <= 1 the Schwarz inequality gives
    |f(s) - f(a s)| <= l2_deriv * sqrt(1 - a).
    """

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self) -> None:
        times = _as_float_array(self.knot_times)
        values = _as_float_array(self.knot_values)
        object.__setattr__(self, "knot_times", times)
        object.__setattr__(self, "knot_values", values)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("need matching 1-d knot arrays with at least 2 knots")
        if times[0] != 0.0 or values[0] != 0.0:
            raise ValueError("shift knots must start at (0, 0)")
        if times[-1] != 1.0:
            raise ValueError("shift knots must end at time 1")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("knot times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("knot values must be finite")

    @cached_property
    def slopes(self) -> np.ndarray:
        s = np.diff(self.knot_values) / np.diff(self.knot_times)
        s.setflags(write=False)
        return s

    @cached_property
    def sup_deriv(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    @cached_property
    def l2_deriv(self) -> float:
        return float(np.sqrt(np.sum(self.slopes**2 * np.diff(self.knot_times))))

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.knot_values == 0.0))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
            raise ValueError("shift functions are defined on [0, 1] only")
        out = np.interp(t_arr, self.knot_times, self.knot_values)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def derivative(self, t):
        """Right-continuous piecewise-constant derivative f'(t)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
            raise ValueError("shift functions are defined on [0, 1] only")
        idx = np.clip(
            np.searchsorted(self.knot_times, t_arr, side="right") - 1,
            0, self.slopes.size - 1,
        )
        out = self.slopes[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def to_json(self) -> str:
        return json.dumps([[float(t), float(v)] for t, v in zip(self.knot_times, self.knot_values)])

    @classmethod
    def from_json(cls, text: str) -> "ShiftFunction":
        knots = json.loads(text)
        return make_shift(knots)


def make_shift(knots: Sequence[Sequence[float]]) -> ShiftFunction:
    """Build a ShiftFunction from an iterable of (time, value) pairs."""
    knots = list(knots)
    if not knots:
        raise ValueError("empty knot list")
    times = [k[0] for k in knots]
    values = [k[1] for k in knots]
    return ShiftFunction(np.asarray(times, float), np.asarray(values, float))


def zero_shift() -> ShiftFunction:
    return make_shift([(0.0, 0.0), (1.0, 0.0)])


def identity_shift() -> ShiftFunction:
    return make_shift([(0.0, 0.0), (1.0, 1.0)])


def tent_shift() -> ShiftFunction:
    """Tent map: up to 1 at t = 1/2 and back to 0; ||f'|| = 2, l2_deriv = 2."""
    return make_shift([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])


def random_shift(n_knots: int, rng: np.random.Generator, max_abs_slope: float = 1.0) -> ShiftFunction:
    """Random piecewise-linear shift with ||f'|| <= max_abs_slope.

    Interior knot times are sorted uniforms; slopes are uniform on
    [-max_abs_slope, max_abs_slope] and rescaled if the sup is exceeded.
    """
    if n_knots < 2:
        raise ValueError("need at least 2 knots")
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n_knots - 2)), [1.0]))
    slopes = rng.uniform(-max_abs_slope, max_abs_slope, n_knots - 1)
    top = np.max(np.abs(slopes))
    if top > max_abs_slope:
        slopes *= max_abs_slope / top
    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(times))))
    return ShiftFunction(times, values)


@dataclass(frozen=True)
class ScalingFunction:
    """Scaling h(t) used by the integral test, t >= t_min > e.

    ``power_loglog`` means h(t) = (log t)^log_power * (log log t)^loglog_power,
    the family for which the integral test has an analytic answer.  ``custom``
    wraps an arbitrary positive callable and forces the numeric route.
    """

    kind: str
    log_power: float = 0.0
    loglog_power: float = 0.0
    func: Callable[[np.ndarray], np.ndarray] | None = None
    t_min: float = float(np.exp(2.0))

    def __post_init__(self) -> None:
        if self.kind not in ("power_loglog", "custom"):
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        if self.kind == "custom" and self.func is None:
            raise ValueError("custom scaling needs a callable")
        if self.t_min <= float(np.e):
            raise ValueError("t_min must exceed e so that log log t > 0")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.t_min):
            raise ValueError(f"scaling function defined for t >= {self.t_min}")
        if self.kind == "custom":
            out = np.asarray(self.func(t_arr), dtype=float)
        else:
            lt = np.log(t_arr)
            out = lt**self.log_power * np.log(lt) ** self.loglog_power
        if np.any(out <= 0.0):
            raise ValueError("scaling function must be positive")
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def power_loglog_scaling(log_power: float, loglog_power: float = 0.0) -> ScalingFunction:
    return ScalingFunction(kind="power_loglog", log_power=log_power, loglog_power=loglog_power)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with a 95% confidence interval.

    ``ci95`` is value +/- 1.96 stderr clipped to [0, 1] for probabilities;
    when the normal approximation is untrustworthy (fewer than 30 trials, or
    an extreme hit count) ``from_bernoulli`` substitutes the exact
    Clopper-Pearson interval instead.
    """

    value: float
    stderr: float
    n: int
    ci95: tuple[float, float]
    ess: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.ci95
        if not (lo <= self.value <= hi):
            raise ValueError("confidence interval must contain the estimate")

    def overlaps(self, other: "Estimate") -> bool:
        return self.ci95[0] <= other.ci95[1] and other.ci95[0] <= self.ci95[1]

    @classmethod
    def from_bernoulli(cls, successes: int, n: int, probability: bool = True) -> "Estimate":
        if n <= 0:
            raise ValueError("need at least one trial")
        p_hat = successes / n
        stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
        extreme = n < 30 or successes < 10 or n - successes < 10
        if extreme:
            lo, hi = _clopper_pearson(successes, n)
            flags = ("exact_interval",)
        else:
            lo, hi = p_hat - 1.96 * stderr, p_hat + 1.96 * stderr
            flags = ()
        if probability:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        if successes == 0:
            flags = flags + ("unresolved_at_this_n",)
        return cls(value=p_hat, stderr=stderr, n=n, ci95=(lo, hi), flags=flags)


def _clopper_pearson(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    tail = (1.0 - level) / 2.0
    lo = 0.0 if successes == 0 else float(stats.beta.ppf(tail, successes, n - successes + 1))
    hi = 1.0 if successes == n else float(stats.beta.ppf(1.0 - tail, successes + 1, n - successes))
    return lo, hi
