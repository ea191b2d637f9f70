"""Small-ball estimators: crude, conditional, importance-sampled, batteries."""

import math

import numpy as np
import pytest

from stable_smallball import (
    AlphaStableParams,
    RngStream,
    SmallBallQuery,
    anderson_report,
    default_battery,
    empirical_no_big_jump_fraction,
    estimate_crude,
    estimate_given_no_big_jumps,
    estimate_is,
    identity_shift,
    prob_no_big_jumps,
    tail_prob_check,
    tent_shift,
    theory_lower_bound_middle,
    zero_shift,
)

PARAMS = AlphaStableParams(1.5)


class TestQuery:
    def test_middle_constructor_coupling(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.3, r=0.5)
        assert q.c == pytest.approx(0.3)
        assert q.shift_scale == pytest.approx(0.3 * 0.5 ** (1.0 - 1.5))

    def test_centered(self):
        q = SmallBallQuery.centered(PARAMS, 1.0)
        assert q.shift_scale == 0.0 and q.f.is_zero

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            SmallBallQuery.centered(PARAMS, 0.0)


class TestProbNoBigJumps:
    def test_closed_form(self):
        assert prob_no_big_jumps(1.5, 1.0) == pytest.approx(math.exp(-4.0 / 3.0))
        assert prob_no_big_jumps(1.5, 2.0) == pytest.approx(
            math.exp(-(4.0 / 3.0) * 2.0**-1.5))

    def test_empirical_match(self):
        est = empirical_no_big_jump_fraction(PARAMS, 1.0, 4000, rng=RngStream(40))
        ref = prob_no_big_jumps(1.5, 1.0)
        assert abs(est.value - ref) < 4.0 * est.stderr


class TestCrude:
    def test_deterministic_and_pool_invariant(self):
        from concurrent.futures import ThreadPoolExecutor
        q = SmallBallQuery.centered(PARAMS, 1.0)
        a = estimate_crude(q, 2000, n_steps=256, rng=RngStream(41))
        b = estimate_crude(q, 2000, n_steps=256, rng=RngStream(41))
        with ThreadPoolExecutor(4) as ex:
            c = estimate_crude(q, 2000, n_steps=256, rng=RngStream(41), pmap=ex.map)
        assert a.value == b.value == c.value

    def test_stderr_shrinks_with_n(self):
        q = SmallBallQuery.centered(PARAMS, 1.5)
        small = estimate_crude(q, 2000, n_steps=256, rng=RngStream(42))
        big = estimate_crude(q, 8000, n_steps=256, rng=RngStream(42))
        assert big.stderr < small.stderr
        # binomial scaling: quadrupling n should halve stderr within 20%
        assert big.stderr / small.stderr == pytest.approx(0.5, rel=0.2)

    def test_samplers_agree(self):
        q = SmallBallQuery.centered(PARAMS, 1.2)
        a = estimate_crude(q, 4000, n_steps=256, rng=RngStream(43), sampler="jumps")
        b = estimate_crude(q, 4000, n_steps=256, rng=RngStream(44),
                           sampler="increments")
        assert a.overlaps(b)

    def test_requires_stream(self):
        q = SmallBallQuery.centered(PARAMS, 1.0)
        with pytest.raises(ValueError):
            estimate_crude(q, 100, rng=np.random.default_rng(0))

    def test_monotone_in_radius(self):
        shared = RngStream(45)
        vals = [estimate_crude(SmallBallQuery.centered(PARAMS, r), 3000,
                               n_steps=256, rng=shared).value
                for r in (0.8, 1.2, 1.8)]
        assert vals[0] <= vals[1] <= vals[2]


class TestConditioning:
    def test_total_probability_identity(self):
        q = SmallBallQuery.centered(PARAMS, 1.0)
        crude = estimate_crude(q, 6000, n_steps=256, rng=RngStream(46))
        cond = estimate_given_no_big_jumps(q, 6000, n_steps=256, rng=RngStream(47))
        pa = prob_no_big_jumps(1.5, 1.0)
        comb = math.sqrt(crude.stderr**2 + (pa * cond.stderr) ** 2)
        assert abs(crude.value - pa * cond.value) < 4.0 * comb


class TestImportanceSampling:
    def test_agrees_with_crude(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=1.0)
        crude = estimate_crude(q, 4000, n_steps=512, rng=RngStream(48))
        is_est = estimate_is(q, 4000, n_steps=512, rng=RngStream(49))
        assert crude.overlaps(is_est)

    def test_reports_ess_and_flags(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=0.8)
        est = estimate_is(q, 500, n_steps=256, rng=RngStream(50))
        assert est.ess is None or est.ess <= est.n

    def test_rejects_invalid_tilt(self):
        # c (2-alpha)/2 sup|f'| >= 1 is outside the tilt's validity range
        q = SmallBallQuery.middle(PARAMS, tent_shift(), c=2.5, r=1.0)
        with pytest.raises(ValueError):
            estimate_is(q, 100, rng=RngStream(51))

    def test_variance_reduction_on_rare_event(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=0.8)
        crude = estimate_crude(q, 4000, n_steps=512, rng=RngStream(52))
        is_est = estimate_is(q, 4000, n_steps=512, rng=RngStream(53))
        assert is_est.stderr < crude.stderr


class TestTheoryBound:
    def test_lower_bound_holds_empirically(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=1.0)
        bound = theory_lower_bound_middle(q)
        est = estimate_crude(q, 6000, n_steps=512, rng=RngStream(54))
        assert bound < est.value + 4.0 * est.stderr
        assert bound == pytest.approx(math.exp(-1446.8014001941835610), abs=1e-300)

    def test_refuses_out_of_range_shift(self):
        q = SmallBallQuery.middle(PARAMS, tent_shift(), c=2.1, r=1.0)
        with pytest.raises(ValueError):
            theory_lower_bound_middle(q)


class TestTail:
    def test_slope_and_monotonicity(self):
        # x = 10 is still pre-asymptotic, so the slope runs steeper than
        # -alpha; the tight exponent check lives in the acceptance suite on
        # an x window where the power law has set in
        rep = tail_prob_check(1.5, [10.0, 20.0, 40.0], 20_000, rng=RngStream(55),
                              n_steps=512)
        assert rep.monotone_within_2se
        assert rep.slope == pytest.approx(-1.5, abs=0.45)
        assert rep.k_ratio < 2.0


class TestAnderson:
    def test_default_battery_composition(self):
        battery = default_battery(PARAMS)
        labels = [label for label, _, _ in battery]
        assert len(battery) == 5
        assert any("identity" in lab for lab in labels)
        assert any("tent" in lab for lab in labels)
        assert any("random8" in lab for lab in labels)

    def test_no_flags_at_moderate_n(self):
        rep = anderson_report(PARAMS, 1.0, 8000, rng=RngStream(56), n_steps=512)
        assert rep.n_flagged == 0
        assert rep.baseline.p_hat > 0.0

    def test_zero_battery_trivially_unflagged(self):
        rep = anderson_report(PARAMS, 1.0, 2000, rng=RngStream(57), n_steps=256,
                              battery=[("zero again", zero_shift(), 0.0)])
        assert rep.n_flagged == 0

    def test_lambda_sweep_unflagged(self):
        battery = [(f"id x{s}", identity_shift(), s)
                   for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
        rep = anderson_report(PARAMS, 1.0, 4000, rng=RngStream(58), n_steps=256,
                              battery=battery)
        assert rep.n_flagged == 0
