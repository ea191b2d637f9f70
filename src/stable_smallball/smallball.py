"""Shifted small-ball probability estimators.

The target quantity is P(sup_t |X(t) - shift_scale * f(t)| < r) on [0, 1].
Three routes:

* ``estimate_crude``: direct fraction over simulated paths,
* ``estimate_is``: condition on "no jump larger than r" (exact closed form),
  then estimate the conditional probability by importance sampling under the
  Girsanov tilt whose compensator reproduces the shift; the indicator is on
  the centered ball of the tilted martingale, the weight restores the
  truncated law,
* ``theory_lower_bound_middle``: the proven series lower bound, for sanity
  ordering against estimates.

``anderson_report`` checks the symmetric-process inequality p(f, lam) <=
p(0, 0) over a battery of shifts with common random numbers, and
``tail_prob_check`` fits the sup-norm tail exponent, which must come out
near -alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constants import middle_shift_constant, _wls_line
from .girsanov import TiltSpec, compensator_cancellation
from .processes import AlphaStableParams, Estimate, ShiftFunction, random_shift, \
    identity_shift, tent_shift, zero_shift
from .simulate import RngStream, map_batches, sample_jump_batch, sample_stable_batch, \
    sample_tilted_batch, sample_truncated_batch, sup_distance_batch

_CANCEL_TOL = 1e-8


@dataclass(frozen=True)
class SmallBallQuery:
    """A shifted small-ball event: sup |X - shift_scale * f| < r.

    ``regime_tag`` records the intended asymptotic regime of the pair
    (shift_scale, r): "small" when the product shift_scale * r^(alpha-1) is
    meant to vanish, "middle" when it is held at a constant c (recorded), and
    "large" otherwise.  The tag selects which estimators and bounds apply.
    """

    params: AlphaStableParams
    f: ShiftFunction
    shift_scale: float
    r: float
    regime_tag: str

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError("r must be positive")
        if self.shift_scale < 0.0:
            raise ValueError("shift_scale must be nonnegative")
        if self.regime_tag not in ("small", "middle", "large"):
            raise ValueError(f"unknown regime_tag {self.regime_tag!r}")

    @property
    def c(self) -> float:
        """The middle-regime coupling c = shift_scale * r^(alpha-1)."""
        return self.shift_scale * self.r ** (self.params.alpha - 1.0)

    @classmethod
    def middle(cls, params: AlphaStableParams, f: ShiftFunction, c: float, r: float
               ) -> "SmallBallQuery":
        if c < 0.0:
            raise ValueError("c must be nonnegative")
        return cls(params=params, f=f, shift_scale=c * r ** -(params.alpha - 1.0),
                   r=r, regime_tag="middle")

    @classmethod
    def centered(cls, params: AlphaStableParams, r: float) -> "SmallBallQuery":
        return cls(params=params, f=zero_shift(), shift_scale=0.0, r=r, regime_tag="middle")


def prob_no_big_jumps(alpha: float, r: float) -> float:
    """P(no jump exceeds r on [0,1]) = exp(-(2/alpha) r^-alpha)."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    return float(np.exp(-(2.0 / alpha) * r**-alpha))


def _crude_kernel(query, n_steps, sampler, eps_cutoff, stream, size) -> int:
    if sampler == "jumps":
        batch = sample_jump_batch(query.params, eps_cutoff, size, n_steps, stream)
    elif sampler == "increments":
        batch = sample_stable_batch(query.params, size, n_steps, stream)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    sups = sup_distance_batch(batch, query.f, query.shift_scale)
    return int(np.sum(sups < query.r))


def estimate_crude(query: SmallBallQuery, n_paths: int, n_steps: int = 2048,
                   rng: RngStream | None = None, pmap=map,
                   sampler: str = "jumps", eps_cutoff: float | None = None) -> Estimate:
    """Direct Monte Carlo for the shifted small-ball probability.

    The default sampler resolves jumps above r/50 individually (Gaussian
    proxy below), so the sup-norm check also sees the jump instants between
    grid points; ``sampler="increments"`` uses the plain stable-increment
    grid instead.
    """
    _require_stream(rng)
    if eps_cutoff is None:
        eps_cutoff = query.r / 50.0
    kernel = partial(_crude_kernel, query, n_steps, sampler, eps_cutoff)
    hits = sum(map_batches(kernel, n_paths, n_steps, rng, pmap))
    return Estimate.from_bernoulli(hits, n_paths)


def _truncated_kernel(query, n_steps, eps_cutoff, stream, size) -> int:
    batch = sample_truncated_batch(query.params, query.r, size, n_steps, stream,
                                   eps_cutoff=eps_cutoff)
    sups = sup_distance_batch(batch, query.f, query.shift_scale)
    return int(np.sum(sups < query.r))


def estimate_given_no_big_jumps(query: SmallBallQuery, n_paths: int, n_steps: int = 2048,
                                rng: RngStream | None = None, pmap=map,
                                eps_cutoff: float | None = None) -> Estimate:
    """P(sup |X - shift| < r | no jump exceeds r), by simulating the truncated law."""
    _require_stream(rng)
    kernel = partial(_truncated_kernel, query, n_steps, eps_cutoff)
    hits = sum(map_batches(kernel, n_paths, n_steps, rng, pmap))
    return Estimate.from_bernoulli(hits, n_paths)


def _is_kernel(tilt, r, n_steps, eps_cutoff, stream, size):
    batch, lw = sample_tilted_batch(tilt, size, n_steps, stream,
                                    eps_cutoff=eps_cutoff, drift_mode="martingale")
    sups = sup_distance_batch(batch)
    w = np.exp(lw)
    hit = sups < r
    v = w * hit
    return (float(v.sum()), float((v * v).sum()), int(hit.sum()),
            float(v[hit].sum()), float((v[hit] ** 2).sum()))


def estimate_is(query: SmallBallQuery, n_paths: int, n_steps: int = 2048,
                rng: RngStream | None = None, pmap=map,
                eps_cutoff: float | None = None) -> Estimate:
    """Importance-sampling estimate in the middle regime.

    Factorizes the event over A = {no jump > r}: the probability of A is
    closed-form, and conditionally on A the shifted event is rewritten under
    the tilted law as E[W * 1(sup |xi| < r)] with xi the centered tilted
    path.  Requires a valid tilt; flags the estimate when the effective
    sample size of the weighted hits drops below 30.
    """
    _require_stream(rng)
    if query.regime_tag != "middle":
        raise ValueError("importance sampling is implemented for the middle regime only")
    tilt = TiltSpec.middle_shift(query.params, query.f, c=query.c, r=query.r)
    check = tilt.validity_check()
    if not check.passed:
        raise ValueError(f"tilt out of range: amplitude bound {check.value:.4f} >= 1")
    if tilt.amplitude_bound > 0.0:
        resid = compensator_cancellation(tilt)
        if resid > _CANCEL_TOL:
            raise RuntimeError(f"compensator cancellation residual {resid:.2e} too large")

    p_a = prob_no_big_jumps(query.params.alpha, query.r)
    kernel = partial(_is_kernel, tilt, query.r, n_steps, eps_cutoff)
    s1 = s2 = wh1 = wh2 = 0.0
    n_hit = 0
    # plain float adds in plan order: np.sum's pairwise order would move the last bits
    for part in map_batches(kernel, n_paths, n_steps, rng, pmap):
        s1 += part[0]
        s2 += part[1]
        n_hit += part[2]
        wh1 += part[3]
        wh2 += part[4]

    mean = s1 / n_paths
    var = max(s2 - n_paths * mean * mean, 0.0) / max(n_paths - 1, 1)
    value = p_a * mean
    stderr = p_a * float(np.sqrt(var / n_paths))
    ess = wh1 * wh1 / wh2 if wh2 > 0.0 else 0.0
    flags = []
    if n_hit == 0:
        flags.append("unresolved_at_this_n")
    elif ess < 30.0:
        flags.append("low_ess")
    lo = min(max(value - 1.96 * stderr, 0.0), value)
    hi = max(value + 1.96 * stderr, value)
    return Estimate(value=value, stderr=stderr, n=n_paths, ci95=(lo, min(hi, 1.0)),
                    ess=ess, flags=tuple(flags))


def theory_lower_bound_middle(query: SmallBallQuery) -> float:
    """Proven lower bound exp(-C(alpha)/r^alpha) for valid middle-regime shifts.

    Validity is the tilt-range condition c (2-alpha)/2 * sup|f'| < 1; outside
    it the bound is not claimed, so the function refuses rather than returns.
    """
    if query.regime_tag != "middle":
        raise ValueError("bound applies to the middle regime only")
    a = query.params.alpha
    b = query.c * (2.0 - a) / 2.0 * query.f.sup_deriv
    if b >= 1.0:
        raise ValueError(f"shift too steep for the bound: amplitude bound {b:.4f} >= 1")
    return float(np.exp(-middle_shift_constant(a) / query.r**a))


def _no_big_jump_kernel(params, r, eps_cutoff, n_steps, stream, size) -> int:
    batch = sample_jump_batch(params, eps_cutoff, size, n_steps, stream,
                              gaussian_refinement=False)
    big = np.abs(batch.jump_sizes) >= r
    flagged = np.bincount(batch.jump_path[big], minlength=size) > 0
    return int(np.sum(~flagged))


def empirical_no_big_jump_fraction(params: AlphaStableParams, r: float, n_paths: int,
                                   n_steps: int = 256, rng: RngStream | None = None,
                                   pmap=map) -> Estimate:
    """Fraction of jump-resolved paths with every |jump| < r; oracle for
    :func:`prob_no_big_jumps`."""
    _require_stream(rng)
    kernel = partial(_no_big_jump_kernel, params, r, min(r / 4.0, 0.25), n_steps)
    hits = sum(map_batches(kernel, n_paths, n_steps, rng, pmap))
    return Estimate.from_bernoulli(hits, n_paths)


@dataclass(frozen=True)
class TailReport:
    """Log-log tail fit of P(sup |X| > x) over a list of levels."""

    x_list: np.ndarray
    p_hat: np.ndarray
    stderr: np.ndarray
    slope: float
    slope_stderr: float
    k_hat: np.ndarray          # p_hat * x^alpha, should be roughly constant
    monotone_within_2se: bool
    n_paths: int

    @property
    def k_ratio(self) -> float:
        good = self.p_hat > 0.0
        if not np.any(good):
            return float("inf")
        return float(np.max(self.k_hat[good]) / np.min(self.k_hat[good]))


def _tail_kernel(params, x_arr, n_steps, stream, size) -> np.ndarray:
    batch = sample_stable_batch(params, size, n_steps, stream)
    sups = np.max(np.abs(batch.values), axis=1)
    return (sups[None, :] > x_arr[:, None]).sum(axis=1)


def tail_prob_check(alpha: float, x_list, n_paths: int, rng: RngStream | None = None,
                    n_steps: int = 2048, pmap=map) -> TailReport:
    """Estimate P(sup |X| > x) on shared paths and fit the tail exponent.

    The sup-norm tail of the stable path is K x^-alpha (1 + o(1)), so the
    weighted log-log slope should land near -alpha.
    """
    _require_stream(rng)
    params = AlphaStableParams(alpha)
    x_arr = np.asarray(sorted(x_list), dtype=float)
    if x_arr.size < 2 or np.any(x_arr <= 0.0):
        raise ValueError("need at least two positive levels")
    counts = sum(map_batches(partial(_tail_kernel, params, x_arr, n_steps), n_paths, n_steps,
                             rng, pmap))
    p = counts / n_paths
    se = np.sqrt(p * (1.0 - p) / n_paths)

    good = p > 0.0
    if good.sum() < 2:
        raise RuntimeError("tail unresolved at this n; lower the levels or raise n_paths")
    w = n_paths * p[good] / np.maximum(1.0 - p[good], 1e-12)
    slope, slope_se, _ = _wls_line(np.log(x_arr[good]), np.log(p[good]), w)

    diffs = np.diff(p)
    comb = np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
    monotone = bool(np.all(diffs <= 2.0 * comb))
    return TailReport(x_list=x_arr, p_hat=p, stderr=se, slope=slope, slope_stderr=slope_se,
                      k_hat=p * x_arr**alpha, monotone_within_2se=monotone, n_paths=n_paths)


@dataclass(frozen=True)
class AndersonRow:
    label: str
    shift_scale: float
    p_hat: float
    stderr: float
    flagged: bool


@dataclass(frozen=True)
class AndersonReport:
    """Battery of shifted probabilities against the centered baseline.

    For a symmetric process, shifting the ball center can only shrink the
    probability, so any row with p_hat above baseline + 3 combined stderr is
    flagged; flags indicate an estimator bug, not randomness.
    """

    r: float
    alpha: float
    baseline: AndersonRow
    rows: tuple = field(default_factory=tuple)
    n_paths: int = 0

    @property
    def n_flagged(self) -> int:
        return sum(1 for row in self.rows if row.flagged)


def default_battery(params: AlphaStableParams) -> list[tuple[str, ShiftFunction, float]]:
    """Fixed shift battery: identity, tent and a seeded random 8-knot shift,
    with scales spanning weak to strong shifts."""
    rng = np.random.default_rng(np.random.SeedSequence(20260814))
    rand8 = random_shift(8, rng)
    return [
        ("identity x0.5", identity_shift(), 0.5),
        ("tent x0.5", tent_shift(), 0.5),
        ("random8 x0.5", rand8, 0.5),
        ("identity x1.0", identity_shift(), 1.0),
        ("identity x2.0", identity_shift(), 2.0),
    ]


def _anderson_kernel(params, r, battery, eps_cutoff, n_steps, stream, size) -> np.ndarray:
    batch = sample_jump_batch(params, eps_cutoff, size, n_steps, stream)
    hits = np.empty(len(battery) + 1, dtype=np.int64)
    hits[0] = int(np.sum(sup_distance_batch(batch) < r))
    for i, (_, f, lam) in enumerate(battery):
        hits[i + 1] = int(np.sum(sup_distance_batch(batch, f, lam) < r))
    return hits


def anderson_report(params: AlphaStableParams, r: float, n_paths: int,
                    rng: RngStream | None = None, battery=None, n_steps: int = 2048,
                    pmap=map, eps_cutoff: float | None = None) -> AndersonReport:
    """Estimate every battery member on the same paths and flag violations.

    Common random numbers make the comparison paired: the same path set is
    tested against every shift, so a true inequality can only be violated by
    an implementation error, not by independent-sample noise.
    """
    _require_stream(rng)
    if battery is None:
        battery = default_battery(params)
    if eps_cutoff is None:
        eps_cutoff = r / 50.0
    kernel = partial(_anderson_kernel, params, r, battery, eps_cutoff, n_steps)
    hits = sum(map_batches(kernel, n_paths, n_steps, rng, pmap))

    p = hits / n_paths
    se = np.sqrt(p * (1.0 - p) / n_paths)
    baseline = AndersonRow(label="zero", shift_scale=0.0, p_hat=float(p[0]),
                           stderr=float(se[0]), flagged=False)
    rows = []
    for i, (label, _, lam) in enumerate(battery):
        comb = float(np.sqrt(se[0] ** 2 + se[i + 1] ** 2))
        flagged = bool(p[i + 1] > p[0] + 3.0 * comb)
        rows.append(AndersonRow(label=label, shift_scale=lam, p_hat=float(p[i + 1]),
                                stderr=float(se[i + 1]), flagged=flagged))
    return AndersonReport(r=r, alpha=params.alpha, baseline=baseline,
                          rows=tuple(rows), n_paths=n_paths)


def _require_stream(rng) -> None:
    if not isinstance(rng, RngStream):
        raise ValueError("an RngStream is required for reproducible estimates")
