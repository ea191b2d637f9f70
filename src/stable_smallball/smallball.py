"""Shifted small-ball probability estimators.

The target quantity is P(sup_t |X(t) - shift_scale * f(t)| < r) on [0, 1].
Two routes:

* ``estimate_crude``: direct fraction over simulated paths,
* ``estimate_is``: condition on "no jump of at least 2r", the ball's
  diameter (exact closed form; such a jump always leaves the ball), then
  estimate the conditional probability by importance sampling under the
  Girsanov tilt whose compensator reproduces the shift; the indicator is on
  the centered ball of the tilted martingale, the weight restores the
  truncated law.  At zero shift the tilt vanishes and every weight is 1, so
  the conditional probability is a plain fraction of truncated-law paths.

``anderson_report`` checks the symmetric-process inequality p(f, lam) <=
p(0, 0) over a battery of shifts with common random numbers, and
``tail_prob_check`` fits the sup-norm tail exponent, which must come out
near -alpha.

Every sup-counting estimator (crude, Anderson, tail) draws through
``simulate.sample_sups`` and keeps only its own reduction of the sups; those
that count ``sup < r``, and the importance-sampling kernel, pass r as the sup
kernel's cap.  Every estimator that draws jump-resolved paths passes their
expected jump records per path to the batch plan, which bounds each batch's
records as well as its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constants import _distinct_levels, _stable_sups, _wls_line
from .girsanov import TiltSpec
from .processes import AlphaStableParams, Estimate, ShiftFunction, random_shift, \
    identity_shift, tent_shift, zero_shift
from .simulate import RngStream, _jump_rate, _largest_jumps, _resolve_cutoff, _streamed_sups, \
    map_batches, sample_jump_batch, sample_stable_batch, sample_sups, sample_tilted_batch, \
    tilted_jump_rates


@dataclass(frozen=True)
class SmallBallQuery:
    """A shifted small-ball event: sup |X - shift_scale * f| < r.

    ``regime_tag`` records the intended asymptotic regime of the pair
    (shift_scale, r): "small" when the product shift_scale * r^(alpha-1) is
    meant to vanish, "middle" when it is held at a constant c.  Only "middle"
    queries can be estimated by importance sampling (:func:`estimate_is`).
    """

    params: AlphaStableParams
    f: ShiftFunction
    shift_scale: float
    r: float
    regime_tag: str

    def __post_init__(self) -> None:
        _check_radius(self.r, self.params.alpha)
        if not 0.0 <= self.shift_scale < np.inf:
            raise ValueError("shift_scale must be nonnegative and finite")
        if self.regime_tag not in ("small", "middle"):
            raise ValueError(f"unknown regime_tag {self.regime_tag!r}")

    @property
    def c(self) -> float:
        """The middle-regime coupling c = shift_scale * r^(alpha-1)."""
        return self.shift_scale * self.r ** (self.params.alpha - 1.0)

    @classmethod
    def middle(cls, params: AlphaStableParams, f: ShiftFunction, c: float, r: float
               ) -> "SmallBallQuery":
        _check_radius(r, params.alpha)  # before the power of r below
        if not 0.0 <= c < np.inf:
            raise ValueError("c must be nonnegative and finite")
        return cls(params=params, f=f, shift_scale=c * r ** -(params.alpha - 1.0),
                   r=r, regime_tag="middle")

    @classmethod
    def centered(cls, params: AlphaStableParams, r: float) -> "SmallBallQuery":
        return cls(params=params, f=zero_shift(), shift_scale=0.0, r=r, regime_tag="middle")


def _check_radius(r: float, alpha: float) -> None:
    """Refuse a radius that is not positive and finite, or whose r^-alpha overflows."""
    if not 0.0 < r < np.inf:
        raise ValueError("r must be positive and finite")
    try:
        math.pow(r, -alpha)
    except OverflowError:
        raise ValueError("r is too small: r^-alpha overflows") from None


def prob_no_big_jumps(alpha: float, r: float) -> float:
    """P(no jump exceeds r on [0,1]) = exp(-(2/alpha) r^-alpha)."""
    _check_radius(r, AlphaStableParams(alpha).alpha)  # refuses an alpha outside (1, 2) first
    return float(np.exp(-(2.0 / alpha) * r**-alpha))


def _jump_sampler(params: AlphaStableParams, eps_cutoff: float | None, r: float):
    """``sample_jump_batch`` at the cutoff ``eps_cutoff`` resolves against r,
    and its expected jump records per path."""
    eps = _resolve_cutoff(eps_cutoff, r)
    return partial(sample_jump_batch, params, eps), _jump_rate(params.alpha, eps)


def estimate_crude(query: SmallBallQuery, n_paths: int, n_steps: int = 2048, *,
                   rng: RngStream, pmap=map,
                   sampler: str = "jumps", eps_cutoff: float | None = None) -> Estimate:
    """Direct Monte Carlo for the shifted small-ball probability.

    The default sampler resolves jumps above ``eps_cutoff`` (default r/50,
    and below r) individually, with a Gaussian proxy below, so the sup-norm
    check also sees the jump instants between grid points;
    ``sampler="increments"`` uses the plain stable-increment grid instead.
    """
    if sampler == "jumps":
        sample, records = _jump_sampler(query.params, eps_cutoff, query.r)
    elif sampler == "increments":
        sample, records = partial(sample_stable_batch, query.params), 0.0
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    sups = sample_sups(sample, [(query.f, query.shift_scale)], n_paths, n_steps, rng, pmap,
                       cap=query.r, records=records)
    return Estimate.from_bernoulli(int(np.sum(sups < query.r)), n_paths)


def _is_kernel(tilt, r, n_steps, eps_cutoff, stream, size):
    """(sum, sum of squares, count) of the weights of the batch's paths inside
    the ball; a path outside it adds exactly 0, and its weight, NaN once it
    has left the ball, is never formed."""
    with _streamed_sups([(None, 0.0)], r) as streamed:
        batch, lw = sample_tilted_batch(tilt, size, n_steps, stream, eps_cutoff=eps_cutoff)
    hit = streamed.of(batch)[0] < r
    w = np.exp(lw[hit])
    return float(w.sum()), float((w * w).sum()), int(w.size)


def estimate_is(query: SmallBallQuery, n_paths: int, n_steps: int = 2048, *,
                rng: RngStream, pmap=map,
                eps_cutoff: float | None = None) -> Estimate:
    """Importance-sampling estimate in the middle regime.

    Factorizes the event over A = {no jump of at least 2r}: a jump that
    large always leaves the ball, so the ball lies inside A, and the
    probability of A is closed-form.  Conditionally on A the shifted event
    is rewritten under the tilted law as E[W * 1(sup |xi| < r)] with xi the
    centered tilted path, whose jumps below r are tilted and whose jumps in
    [r, 2r) are not.  For a centered query (c = 0) W is 1, so the value is
    P(A) times the fraction of paths drawn without such jumps that stay
    inside the ball.  Requires a valid tilt; flags the estimate when the
    effective sample size of the weighted hits drops below 30.
    """
    if query.regime_tag != "middle":
        raise ValueError("importance sampling is implemented for the middle regime only")
    tilt = TiltSpec.middle_shift(query.params, query.f, c=query.c, r=query.r)

    p_a = prob_no_big_jumps(query.params.alpha, tilt.exterior_cut)
    eps, rate_int, rate_ext = tilted_jump_rates(tilt, eps_cutoff)
    kernel = partial(_is_kernel, tilt, query.r, n_steps, eps)
    s1 = s2 = 0.0
    n_hit = 0
    # plain float adds in plan order: np.sum's pairwise order would move the last bits
    for part in map_batches(kernel, n_paths, n_steps, rng, pmap, rate_int + rate_ext):
        s1 += part[0]
        s2 += part[1]
        n_hit += part[2]

    mean = s1 / n_paths
    var = max(s2 - n_paths * mean * mean, 0.0) / max(n_paths - 1, 1)
    value = p_a * mean
    stderr = p_a * float(np.sqrt(var / n_paths))
    ess = s1 * s1 / s2 if s2 > 0.0 else 0.0  # every weight of the sums is a hit's
    flags = []
    if n_hit == 0:
        flags.append("unresolved_at_this_n")
    elif ess < 30.0:
        flags.append("low_ess")
    lo = min(max(value - 1.96 * stderr, 0.0), value)
    hi = max(value + 1.96 * stderr, value)
    return Estimate(value=value, stderr=stderr, n=n_paths, ci95=(lo, min(hi, 1.0)),
                    ess=ess, flags=tuple(flags))


def _no_big_jump_kernel(params, r, eps_cutoff, stream, size) -> int:
    """The number of paths with no |x| >= r among the jumps above
    ``eps_cutoff`` that ``sample_jump_batch`` draws on ``stream`` at 256 steps,
    drawn by its cells without their proxy or grid (``_largest_jumps``)."""
    return int(np.count_nonzero(_largest_jumps(params, eps_cutoff, size, 256, stream) < r))


def empirical_no_big_jump_fraction(params: AlphaStableParams, r: float, n_paths: int,
                                   rng: RngStream) -> Estimate:
    """Fraction of jump-resolved paths with every |jump| < r; oracle for
    :func:`prob_no_big_jumps`.  Each batch of ``batch_plan(n_paths, 256,
    rate)`` draws only the jumps above min(r/4, 1/4) of its paths, ``rate``
    per path."""
    _check_radius(r, params.alpha)
    eps = min(r / 4.0, 0.25)
    rate = _jump_rate(params.alpha, eps)
    kernel = partial(_no_big_jump_kernel, params, r, eps)
    hits = sum(map_batches(kernel, n_paths, 256, rng, records=rate))
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


def tail_prob_check(alpha: float, x_list, n_paths: int, rng: RngStream,
                    n_steps: int = 2048, pmap=map) -> TailReport:
    """Estimate P(sup |X| > x) on shared paths and fit the tail exponent.

    The sup-norm tail of the stable path is K x^-alpha (1 + o(1)), so the
    weighted log-log slope should land near -alpha.
    """
    params = AlphaStableParams(alpha)
    x_arr = _distinct_levels(x_list, "levels")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        x_alpha = x_arr**alpha
    if not np.all((x_alpha > 0.0) & (x_alpha < np.inf)):
        raise ValueError("levels must keep x^alpha positive and finite")
    return _tail_fit(x_arr, x_alpha, _stable_sups(params, n_paths, n_steps, rng, pmap))


def _tail_fit(x_arr: np.ndarray, x_alpha: np.ndarray, sups: np.ndarray) -> TailReport:
    """The fit of ``tail_prob_check`` over the sups of one path set."""
    n_paths = sups.size
    counts = (sups[None, :] > x_arr[:, None]).sum(axis=1)
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
                      k_hat=p * x_alpha, monotone_within_2se=monotone, n_paths=n_paths)


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
    identity = identity_shift()  # one object, so the sup kernel evaluates it once
    return [
        ("identity x0.5", identity, 0.5),
        ("tent x0.5", tent_shift(), 0.5),
        ("random8 x0.5", rand8, 0.5),
        ("identity x1.0", identity, 1.0),
        ("identity x2.0", identity, 2.0),
    ]


def anderson_report(params: AlphaStableParams, r: float, n_paths: int,
                    rng: RngStream, battery=None, n_steps: int = 2048,
                    pmap=map, eps_cutoff: float | None = None) -> AndersonReport:
    """Estimate every battery member on the same paths and flag violations.

    Common random numbers make the comparison paired: the same path set is
    tested against every shift, so a true inequality can only be violated by
    an implementation error, not by independent-sample noise.  The paths
    resolve jumps above ``eps_cutoff`` (default r/50, and below r), as in
    :func:`estimate_crude`.
    """
    _check_radius(r, params.alpha)
    if battery is None:
        battery = default_battery(params)
    targets = [(None, 0.0)] + [(f, lam) for _, f, lam in battery]
    sample, records = _jump_sampler(params, eps_cutoff, r)
    sups = sample_sups(sample, targets, n_paths, n_steps, rng, pmap, cap=r, records=records)
    hits = (sups < r).sum(axis=1)

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

