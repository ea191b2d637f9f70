"""Self-test battery: every cross-cutting invariant as a pass/fail check.

Each check returns a :class:`CheckResult`; ``run_selftest`` runs the battery
and reports one line per check.  The fast battery (default) uses reduced
sample sizes with wide statistical gates (4-5 sigma), so a failure means a
bug, not bad luck; ``full=True`` scales the Monte Carlo checks up to the
sizes used in the acceptance tests.  Those tests call the same checks, so
each invariant has one implementation; where the two callers pin different
seeds, sizes or gates, the check takes them as arguments.  The unit-mean
weight check, which criterion 04 runs at 10k paths, draws through
``simulate.map_batches``, so the batch plan, not its caller, bounds its memory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy import integrate, linalg, stats

from . import constants, girsanov, lil, processes, simulate, smallball


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, fn, *args, **kwargs):
    t0 = time.time()
    try:
        passed, detail = fn(*args, **kwargs)
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       seconds=time.time() - t0)


def _char_exponent_scale_by_quadrature(a: float) -> float:
    """2 * int_0^inf (1 - cos v) v^(-1-a) dv, c_alpha without its closed form.

    The singular head [0, 1] is summed exactly from the cosine series
    (term-by-term integration, alternating with factorial decay), avoiding
    the catastrophic cancellation of 1 - cos v near 0.  The oscillatory
    middle [1, V], V = 1000, is adaptive quadrature one period at a time, and
    the far tail is integrated by parts four times, leaving a remainder below
    (1+a)(2+a)(3+a) V^(-4-a).
    """
    head, fact, k = 0.0, 2.0, 1  # fact = (2k)!
    while True:
        term = (-1.0) ** (k + 1) / (fact * (2 * k - a))  # times 1^(2k - a) at the split v = 1
        head += term
        if abs(term) < 1e-17 * max(head, 1.0):
            break
        k += 1
        fact *= (2 * k - 1) * (2 * k)

    middle = 0.0
    lo, v = 1.0, 1000.0  # the middle runs from the head's end to the tail's start v
    while lo < v:
        hi = min(lo + 2.0 * np.pi, v)
        middle += integrate.quad(lambda x: (1.0 - np.cos(x)) * x ** (-1.0 - a), lo, hi)[0]
        lo = hi

    s, c = np.sin(v), np.cos(v)
    tail = (
        v ** (-a) / a
        + s * v ** (-1.0 - a)
        - (1.0 + a) * c * v ** (-2.0 - a)
        - (1.0 + a) * (2.0 + a) * s * v ** (-3.0 - a)
        + (1.0 + a) * (2.0 + a) * (3.0 + a) * c * v ** (-4.0 - a)
    )
    return 2.0 * (head + middle + tail)


def check_char_exponent_scale(alphas):
    # the quadrature is off by at most 1.7e-14 for alpha in 1.01..1.99, the closed form by ulps
    worst = 0.0
    for a in alphas:
        ref = _char_exponent_scale_by_quadrature(a)
        worst = max(worst, abs(constants.char_exponent_scale(a) - ref) / ref)
    return worst < 1e-13, f"max rel dev closed form vs quadrature {worst:.2e} (gate 1e-13)"


def _gaussian_eigenvalue_by_richardson(n_grid: int) -> float:
    """Lowest Dirichlet eigenvalue of -(1/2) d^2/dx^2 on (-1, 1), the alpha -> 2
    analogue of the stable generator, whose exact value is pi^2/8: solved by
    the spectral solver's inverse iteration on grids n_grid/4, n_grid/2 and
    n_grid, then Richardson-extrapolated."""
    raw = {}
    for m in (n_grid // 4, n_grid // 2, n_grid):
        h = 2.0 / m
        col = np.zeros(m - 1)
        col[0] = 1.0 / h**2
        col[1] = -0.5 / h**2
        raw[m] = constants._ground_state(linalg.toeplitz(col))[0]
    return constants._richardson(raw)[0]


def check_gaussian_eigenvalue():
    got = _gaussian_eigenvalue_by_richardson(512)
    ref = math.pi**2 / 8.0
    rel = abs(got - ref) / ref
    return rel < 1e-8, f"eigenvalue {got:.8f}, target pi^2/8, rel dev {rel:.2e} (gate 1e-8)"


def check_psi_properties():
    u = np.linspace(-0.9, 5.0, 501)
    v = constants.psi(u)
    ok = v[np.abs(u) > 1e-12].min() > 0.0 and abs(constants.psi(0.0)) == 0.0
    ok = ok and abs(constants.psi(1.0) - (2.0 * math.log(2.0) - 1.0)) < 1e-14
    # series/exact handoff is continuous at the 1e-4 threshold
    eps = 1e-4
    gap = abs(constants.psi(eps * 1.0000001) - constants.psi(eps * 0.9999999))
    ok = ok and gap < 1e-12
    second = np.diff(v, 2)
    ok = ok and np.all(second > -1e-12)
    return ok, "positive off 0, psi(1)=2log2-1, convex, smooth series handoff"


def check_increment_characteristic_function(n_paths: int):
    params = processes.AlphaStableParams(1.5)
    rng = simulate.RngStream(101)
    batch = simulate.sample_stable_batch(params, n_paths, 128, rng)
    incr = np.diff(batch.values, axis=1).ravel()
    worst = 0.0
    for u in (1.0, 3.0):
        ecf = float(np.mean(np.cos(u * incr)))
        target = math.exp(-params.c_alpha * (1.0 / 128.0) * u**1.5)
        se = float(np.std(np.cos(u * incr)) / math.sqrt(incr.size))
        worst = max(worst, abs(ecf - target) / se)
    return worst < 5.0, f"max |ecf dev|/se {worst:.2f} (gate 5)"


def check_truncation_probability(n_paths: int, rng: simulate.RngStream, gate: float):
    params = processes.AlphaStableParams(1.5)
    est = smallball.empirical_no_big_jump_fraction(params, 1.0, n_paths, rng=rng)
    ref = smallball.prob_no_big_jumps(1.5, 1.0)
    dev = abs(est.value - ref) / max(est.stderr, 1e-12)
    return dev < gate, f"empirical {est.value:.4f} vs exp(-4/3)={ref:.4f}, dev {dev:.2f} se"


def weight_battery(params: processes.AlphaStableParams) -> list[tuple[str, girsanov.TiltSpec]]:
    """Default tilts for the unit-mean weight diagnostic, spanning both
    regimes, several shifts, and the zero tilt."""
    rng = np.random.default_rng(np.random.SeedSequence(7))
    rand8 = processes.random_shift(8, rng)
    mk = girsanov.TiltSpec.middle_shift
    sk = girsanov.TiltSpec.small_shift
    return [
        ("middle id c=.2 r=.8", mk(params, processes.identity_shift(), 0.2, 0.8)),
        ("middle tent c=.5 r=1", mk(params, processes.tent_shift(), 0.5, 1.0)),
        ("middle rand8 c=.2 r=.8", mk(params, rand8, 0.2, 0.8)),
        ("small id lam=.2 r=.6", sk(params, processes.identity_shift(), 0.2, r=0.6)),
        ("small tent lam=.2 r=.6", sk(params, processes.tent_shift(), 0.2, r=0.6)),
        ("zero tilt", mk(params, processes.zero_shift(), 0.0, 1.0)),
    ]


def _weights_kernel(tilt, n_steps, eps_cutoff, stream, size) -> np.ndarray:
    _, lw = simulate.sample_tilted_batch(tilt, size, n_steps, stream, eps_cutoff=eps_cutoff)
    return np.exp(lw)


def check_weight_unit_mean(n_paths: int, rng: simulate.RngStream, gate: float,
                           eps_cutoff: float | None):
    """Girsanov weights of every ``weight_battery`` tilt have mean 1.

    Tilt i draws ``n_paths`` paths of 256 steps through ``map_batches`` on
    ``rng.child(i)``, in batches bounded by the tilt's expected jump records
    per path; the kernel keeps only each path's weight.  Unit mean holds
    exactly at any jump resolution, so a coarse ``eps_cutoff`` keeps the
    small-regime members cheap; None takes the sampler's default.
    """
    params = processes.AlphaStableParams(1.5)
    n_steps = 256
    worst = ("", 0.0)
    for i, (label, tilt) in enumerate(weight_battery(params)):
        eps, rate_int, rate_ext = simulate.tilted_jump_rates(tilt, eps_cutoff)
        kernel = partial(_weights_kernel, tilt, n_steps, eps)
        w = np.concatenate(simulate.map_batches(kernel, n_paths, n_steps, rng.child(i),
                                                records=rate_int + rate_ext))
        if tilt.amplitude_bound == 0.0:
            if not np.all(w == 1.0):
                return False, f"{label}: zero tilt must give unit weights"
            continue
        dev = abs(w.mean() - 1.0) / (w.std() / math.sqrt(n_paths))
        if dev > worst[1]:
            worst = (label, dev)
    return worst[1] < gate, f"worst |mean-1|/se {worst[1]:.2f} at {worst[0]!r} (gate {gate})"


def check_tilted_mean_oracle(n_paths: int):
    params = processes.AlphaStableParams(1.5)
    tilt = girsanov.TiltSpec.middle_shift(params, processes.identity_shift(), 0.2, 0.8)
    target = _tilted_mean_by_quadrature(tilt)
    batch, _ = simulate.sample_tilted_batch(tilt, n_paths, 256, simulate.RngStream(104))
    x1 = batch.values[:, -1] + tilt.compensator_shift_curve(1.0)
    se = x1.std() / math.sqrt(n_paths)
    dev = abs(x1.mean() - target) / se
    return (dev < 4.0 and x1.mean() > 0.0,
            f"mean X(1) {x1.mean():.4f} vs quadrature {target:.4f}, dev {dev:.2f} se")


def _tilted_mean_by_quadrature(tilt: girsanov.TiltSpec) -> float:
    """int_0^1 int_{|x| < cut} (e^theta(x, t) - 1) x |x|^-2.5 dx dt, the mean of X(1).

    Summed over +-x the x-integrand behaves like x^(-1/2) at 0, so x = u^2
    makes it smooth: a 64-point Gauss-Legendre rule in u on [0, cut^(1/2)],
    times a 16-point rule in t on each piece of f between its knots, where
    theta jumps.  One call to ``theta`` evaluates the whole product grid.
    """
    def rule(n, edges):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        a, b = np.asarray(edges[:-1])[:, None], np.asarray(edges[1:])[:, None]
        return (0.5 * (b - a) * nodes + 0.5 * (b + a)).ravel(), (0.5 * (b - a) * weights).ravel()

    u, wu = rule(64, [0.0, math.sqrt(tilt.jump_cut)])
    t, wt = rule(16, tilt.f.knot_times)
    x = np.concatenate([u * u, -u * u])[:, None]  # rows: +x, then -x
    g = (np.exp(girsanov.theta(tilt, x, t[None, :])) - 1.0) * x * np.abs(x) ** -2.5
    grid = (g[:u.size] + g[u.size:]) * (2.0 * u)[:, None]  # dx = 2u du
    return float(wu @ grid @ wt)


def check_deterministic_exponent(n_tilts: int, seed: int):
    params_pool = [processes.AlphaStableParams(a) for a in (1.2, 1.5, 1.8)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    made = 0
    while made < n_tilts:
        params = params_pool[made % 3]
        f = processes.random_shift(int(rng.integers(2, 9)), rng)
        # every draw is a call argument, so a refused tilt leaves the sequence as it is
        try:
            if rng.random() < 0.5:
                tilt = girsanov.TiltSpec.middle_shift(params, f, float(rng.uniform(0.05, 1.5)),
                                                      float(rng.uniform(0.3, 2.0)))
            else:
                tilt = girsanov.TiltSpec.small_shift(params, f, float(rng.uniform(0.05, 0.5)),
                                                     float(rng.uniform(0.3, 1.0)))
        except ValueError:
            continue
        made += 1
        series = girsanov.deterministic_exponent(tilt)
        quad_val = _exponent_by_quadrature(tilt)
        if series == quad_val == 0.0:
            continue
        worst = max(worst, abs(series - quad_val) / max(abs(quad_val), 1e-300))
    return worst < 1e-6, f"max rel dev series vs quadrature {worst:.2e} over {n_tilts} tilts"


def _exponent_by_quadrature(tilt: girsanov.TiltSpec) -> float:
    """Independent evaluation of the psi integral, segment by segment.

    The (beta x)^2/2 part of psi integrates in closed form; the remainder
    psi(u)+psi(-u)-u^2 is O(u^4), so the numeric integrand is smooth at 0.
    """
    a = tilt.params.alpha
    cut = tilt.jump_cut
    total = 0.0
    for t_lo, t_hi, slope in zip(tilt.f.knot_times[:-1], tilt.f.knot_times[1:], tilt.f.slopes):
        beta = tilt.kappa * (2.0 - a) / 2.0 * slope / cut
        if beta == 0.0:
            continue

        def rem(x):
            u = beta * x
            return (constants.psi(u) + constants.psi(-u) - u * u) * x ** (-1.0 - a)

        smooth = integrate.quad(rem, 0.0, cut, limit=200, epsabs=1e-13, epsrel=1e-11)[0]
        exact_sq = beta**2 * cut ** (2.0 - a) / (2.0 - a)
        total += (t_hi - t_lo) * (smooth + exact_sq)
    return tilt.intensity_scale * total


def check_time_change(n_paths: int, p_gate: float, rng: simulate.RngStream):
    params = processes.AlphaStableParams(1.5)
    b1 = simulate.sample_time_changed_batch(params, lambda t: np.ones_like(t), 30, 64, rng.child(0))
    b2 = simulate.sample_stable_batch(params, 30, 64, rng.child(0))
    if not np.array_equal(b1.values, b2.values):
        return False, "mu == 1 does not reduce to the homogeneous sampler"

    def sups(sample, stream):
        return simulate.sample_sups(sample, [(None, 0.0)], n_paths, 2048, stream)[0]

    s_eta = sups(partial(simulate.sample_time_changed_batch, params, lambda t: 1.0 + t),
                 rng.child(1))
    s_zeta = 1.5 ** (1 / 1.5) * sups(partial(simulate.sample_stable_batch, params), rng.child(2))
    p = stats.ks_2samp(s_eta, s_zeta).pvalue
    return p > p_gate, f"KS p-value {p:.4f} (gate {p_gate})"


def check_lemma_ratios():
    r1, r2, r3 = lil.grid_gap_ratios(10**6, 0.5, 1.5)
    ok = abs(r3 - 1.0) < 1e-3 and 0.0 < r3 <= 1.0 and 0.0 <= r1 < 0.05 and 0.0 <= r2 < 0.05
    seq = [lil.grid_gap_ratios(k, 0.5, 1.5)[0] for k in (10**3, 10**4, 10**5, 10**6)]
    ok = ok and all(b < a for a, b in zip(seq, seq[1:]))
    return ok, f"k=1e6: r1={r1:.2e} r2={r2:.4f} |r3-1|={abs(r3-1):.2e}; r1 decreasing"


def check_integral_test():
    cases = [
        (2.0 / 1.5, 0.0, "converges"),
        (1.0 / 1.5, 0.0, "diverges"),
        (0.0, -1.0 / 1.5, "diverges"),
        (1.0 / 1.5, 2.0 / 1.5, "converges"),
    ]
    for p, q, want in cases:
        got = lil.integral_test(p, q, 1.5).classification
        if got != want:
            return False, f"case ({p},{q}) -> {got}, want {want}"
    return True, "4 closed-form cases classified correctly"


def check_grid_monotonicity():
    low = lil.GridSpec(kind="lower", k_min=21, k_max=200)
    up = lil.GridSpec(kind="upper", k_min=1, k_max=40, gamma=1.5)
    ok = np.all(np.diff(low.log_times()) > 0) and np.all(np.diff(up.log_times()) > 0)
    return bool(ok), "log-times strictly increasing on the lower and upper grids"


def check_anderson(n_paths: int, rng: simulate.RngStream, n_steps: int):
    params = processes.AlphaStableParams(1.5)
    rep = smallball.anderson_report(params, 1.0, n_paths, rng=rng, n_steps=n_steps)
    return rep.n_flagged == 0, (
        f"baseline p={rep.baseline.p_hat:.4f}; flags {rep.n_flagged}/{len(rep.rows)}")


def check_crude_vs_is(n_paths: int, r: float, n_steps: int, rng_crude: simulate.RngStream,
                      rng_is: simulate.RngStream):
    params = processes.AlphaStableParams(1.5)
    q = smallball.SmallBallQuery.middle(params, processes.identity_shift(), c=0.2, r=r)
    crude = smallball.estimate_crude(q, n_paths, n_steps=n_steps, rng=rng_crude)
    is_est = smallball.estimate_is(q, n_paths, n_steps=n_steps, rng=rng_is)
    return crude.overlaps(is_est), (
        f"crude {crude.value:.4e}+-{crude.stderr:.1e} vs IS {is_est.value:.4e}+-{is_est.stderr:.1e}")


def check_conditioning_identity(n_paths: int):
    params = processes.AlphaStableParams(1.5)
    q = smallball.SmallBallQuery.centered(params, 1.0)
    rng = simulate.RngStream(110)
    crude = smallball.estimate_crude(q, n_paths, n_steps=512, rng=rng.child(0))
    cond = smallball.estimate_given_no_big_jumps(q, n_paths, n_steps=512, rng=rng.child(1))
    pa = smallball.prob_no_big_jumps(params.alpha, q.r)
    lhs, rhs = crude.value, pa * cond.value
    comb = math.sqrt(crude.stderr**2 + (pa * cond.stderr) ** 2)
    dev = abs(lhs - rhs) / max(comb, 1e-12)
    return dev < 4.0, f"crude {lhs:.4f} vs P(A) x conditional {rhs:.4f}, dev {dev:.2f} se"


def check_shift_symmetry(n_paths: int):
    params = processes.AlphaStableParams(1.5)
    f_plus = processes.tent_shift()
    f_minus = processes.make_shift([(t, -v) for t, v in zip(f_plus.knot_times, f_plus.knot_values)])
    rng = simulate.RngStream(111)
    q_p = smallball.SmallBallQuery(params, f_plus, 0.5, 1.2, "middle")
    q_m = smallball.SmallBallQuery(params, f_minus, 0.5, 1.2, "middle")
    e_p = smallball.estimate_crude(q_p, n_paths, n_steps=512, rng=rng.child(0))
    e_m = smallball.estimate_crude(q_m, n_paths, n_steps=512, rng=rng.child(1))
    return e_p.overlaps(e_m), f"+shift {e_p.value:.4f} vs -shift {e_m.value:.4f}"


def check_determinism():
    params = processes.AlphaStableParams(1.5)
    q = smallball.SmallBallQuery.centered(params, 1.0)
    rng = simulate.RngStream(112)
    a = smallball.estimate_crude(q, 2000, n_steps=256, rng=rng)
    b = smallball.estimate_crude(q, 2000, n_steps=256, rng=rng)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=4) as ex:
        c = smallball.estimate_crude(q, 2000, n_steps=256, rng=rng, pmap=ex.map)
    ok = a.value == b.value == c.value
    return ok, f"serial twice and 4-way pooled all give p = {a.value}"


def check_smallball_ordering():
    lines = []
    for a in (1.2, 1.5, 1.8):
        k = constants.smallball_constant_spectral(a, n_grid=512)
        c = constants.middle_shift_constant(a)
        if not k.value <= c:
            return False, f"K({a})={k.value:.3f} exceeds C({a})={c:.3f}"
        lines.append(f"K({a})={k.value:.3f}<=C({a})={c:.0f}")
    return True, "; ".join(lines)


def check_split_and_distance(n_paths: int):
    params = processes.AlphaStableParams(1.5)
    rng = simulate.RngStream(113)
    batch = simulate.sample_jump_batch(params, 0.05, n_paths, 256, rng.child(0))
    path = batch.extract(0)
    y, z = lil.split_at(path, 0.37)
    recon = float(np.max(np.abs(y.values + z.values - path.values)))
    parts = []
    tol = 8 * np.finfo(float).eps * max(float(np.max(np.abs(path.values))), 1.0)
    ok = recon <= tol
    parts.append(f"reconstruction error {recon:.1e} (machine tol {tol:.1e})")
    # the frozen part's refined sup equals the refined sup of the path
    # sliced to [0, t_star], bit for bit
    idx = int(np.searchsorted(path.times, 0.37, side="right") - 1)
    keep = path.jump_times <= path.times[idx]
    sliced = replace(
        path, times=path.times[: idx + 1], values=path.values[:, : idx + 1],
        jump_path=path.jump_path[keep], jump_times=path.jump_times[keep],
        jump_sizes=path.jump_sizes[keep], small_noise=path.small_noise[:, :idx])

    def sup(p):
        return float(simulate.sup_distance_batch(p)[0])

    sup_y, sup_x = sup(y), sup(path)
    ok = ok and sup_y == sup(sliced) and sup_y <= sup_x
    parts.append(f"sup(Y) {sup_y:.3f} == sup(X restricted) <= sup(X) {sup_x:.3f}")
    # independence of past sup and future increment: correlation within noise
    half = np.argmin(np.abs(batch.times - 0.5))
    past = np.max(np.abs(batch.values[:, : half + 1]), axis=1)
    future = batch.values[:, -1] - batch.values[:, half]
    corr = float(np.corrcoef(np.minimum(past, 10), np.sign(future))[0, 1])
    ok = ok and abs(corr) < 4.0 / math.sqrt(n_paths)
    parts.append(f"corr(past, future sign) {corr:+.4f}")
    # doubling log log T rescales one frozen path by exactly 2^(1/alpha) at delta=0
    rec1 = lil.scaled_distance(path, math.exp(2.0), 0.0, 1.5)
    rec2 = lil.scaled_distance(path, math.exp(4.0), 0.0, 1.5)
    dev = abs(rec2.distance / rec1.distance - 2.0 ** (1.0 / 1.5))
    ok = ok and dev < 1e-12
    parts.append(f"scaling ratio dev {dev:.1e}")
    return ok, "; ".join(parts)


def run_selftest(full: bool = False) -> list[CheckResult]:
    scale = 5 if full else 1
    checks = [
        _check("char_exponent_scale", check_char_exponent_scale, (1.2, 1.5, 1.8)),
        _check("gaussian_eigenvalue", check_gaussian_eigenvalue),
        _check("psi_properties", check_psi_properties),
        _check("increment_char_function", check_increment_characteristic_function, 1000 * scale),
        _check("truncation_probability", check_truncation_probability, 2000 * scale,
               simulate.RngStream(102), 4.0),
        _check("weight_unit_mean", check_weight_unit_mean, 2000 * scale,
               simulate.RngStream(103), 5.0, 0.05),
        _check("tilted_mean_oracle", check_tilted_mean_oracle, 4000 * scale),
        _check("deterministic_exponent", check_deterministic_exponent, 20 if full else 6, 105),
        _check("time_change", check_time_change, 2000 * scale, 0.01 if full else 0.001,
               simulate.RngStream(107)),
        _check("lemma_ratios", check_lemma_ratios),
        _check("integral_test", check_integral_test),
        _check("grid_monotonicity", check_grid_monotonicity),
        _check("anderson_battery", check_anderson, 4000 * scale, simulate.RngStream(108), 512),
        _check("crude_vs_is", check_crude_vs_is, 3000 * scale, 1.0, 512,
               simulate.RngStream(109).child(0), simulate.RngStream(109).child(1)),
        _check("conditioning_identity", check_conditioning_identity, 3000 * scale),
        _check("shift_symmetry", check_shift_symmetry, 3000 * scale),
        _check("determinism", check_determinism),
        _check("smallball_ordering", check_smallball_ordering),
        _check("split_and_distance", check_split_and_distance, 2000 * scale),
    ]
    return checks


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"{tag} {r.name:28s} {r.seconds:6.1f}s  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
