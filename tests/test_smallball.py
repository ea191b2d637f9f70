"""Small-ball estimators: crude, conditional, importance-sampled, batteries."""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stable_smallball import (
    AlphaStableParams,
    RngStream,
    SmallBallQuery,
    anderson_report,
    default_battery,
    empirical_no_big_jump_fraction,
    estimate_crude,
    estimate_is,
    identity_shift,
    prob_no_big_jumps,
    sample_jump_batch,
    tail_prob_check,
    tent_shift,
    zero_shift,
)
from stable_smallball.girsanov import TiltSpec
from stable_smallball.simulate import _BATCH_RECORDS, _jump_rate, tilted_jump_rates
from stable_smallball.smallball import _no_big_jump_kernel

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

    def test_rejects_unknown_regime_tag(self):
        with pytest.raises(ValueError, match="regime_tag"):
            SmallBallQuery(PARAMS, identity_shift(), 0.5, 1.0, "large")


class TestProbNoBigJumps:
    def test_closed_form(self):
        assert prob_no_big_jumps(1.5, 1.0) == pytest.approx(math.exp(-4.0 / 3.0))
        assert prob_no_big_jumps(1.5, 2.0) == pytest.approx(
            math.exp(-(4.0 / 3.0) * 2.0**-1.5))

    @pytest.mark.parametrize("call, match", [
        (partial(prob_no_big_jumps, 1.5, math.nan), "r must be positive and finite"),
        (partial(prob_no_big_jumps, 1.5, math.inf), "r must be positive and finite"),
        (partial(prob_no_big_jumps, 5.0, 1.0), "alpha must lie strictly in"),
        (partial(prob_no_big_jumps, 1.5, 1e-300), "r^-alpha overflows"),
        (partial(empirical_no_big_jump_fraction, PARAMS, math.nan, 10, rng=RngStream(1)),
         "r must be positive and finite"),
        (partial(empirical_no_big_jump_fraction, PARAMS, math.inf, 10, rng=RngStream(1)),
         "r must be positive and finite"),
    ], ids=["nan", "inf", "alpha", "tiny", "empirical-nan", "empirical-inf"])
    def test_invalid_input_refused(self, call, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300),
           r=st.floats(0.2, 3.0), alpha=st.sampled_from([1.2, 1.5, 1.8]))
    def test_oracle_counts_the_sampler_paths_without_a_big_jump(self, seed, size, r, alpha):
        # the oracle draws only the cells' jump records of the sampler at
        # 256 steps, so on one stream it sees the very jumps of its paths
        params, eps = AlphaStableParams(alpha), min(r / 4.0, 0.25)
        stream = RngStream(seed)
        batch = sample_jump_batch(params, eps, size, 256, stream)
        with_big = np.unique(batch.jump_path[np.abs(batch.jump_sizes) >= r])
        assert _no_big_jump_kernel(params, r, eps, stream, size) == size - with_big.size


class TestCrude:
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


class TestImportanceSampling:
    def test_reports_ess_and_flags(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=0.8)
        est = estimate_is(q, 500, n_steps=256, rng=RngStream(50))
        assert est.ess is None or est.ess <= est.n

    def test_paths_that_leave_the_ball_add_no_weight(self):
        # at r = 0.05 every path leaves the ball in its first time block, so
        # no log-weight of a whole path is ever formed: value 0, not NaN
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=0.05)
        with np.errstate(over="raise", invalid="raise"):
            est = estimate_is(q, 300, n_steps=256, rng=RngStream(54))
        assert est.value == 0.0 and est.stderr == 0.0
        assert "unresolved_at_this_n" in est.flags

    def test_rejects_invalid_tilt(self):
        # c (2-alpha)/2 sup|f'| >= 1 is outside the tilt's validity range
        q = SmallBallQuery.middle(PARAMS, tent_shift(), c=2.5, r=1.0)
        with pytest.raises(ValueError):
            estimate_is(q, 100, rng=RngStream(51))

    def test_centered_value_matches_crude(self):
        # a path may take a jump in [r, 2r) and still stay in the ball, so IS
        # conditions on no jump of at least 2r; conditioned on no jump of at
        # least r it read 11.7% below crude here, 5.5 combined se.  Both
        # share eps and grid, so the grid bias cancels between them
        q = SmallBallQuery.centered(PARAMS, 1.0)
        stream = RngStream(55)
        crude = estimate_crude(q, 400_000, 512, rng=stream.child(0), eps_cutoff=0.1)
        is_est = estimate_is(q, 400_000, 512, rng=stream.child(1), eps_cutoff=0.1)
        comb = math.hypot(crude.stderr, is_est.stderr)
        assert abs(is_est.value - crude.value) < 4.0 * comb, (crude.value, is_est.value, comb)

    def test_variance_reduction_on_rare_event(self):
        q = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=0.8)
        crude = estimate_crude(q, 4000, n_steps=512, rng=RngStream(52))
        is_est = estimate_is(q, 4000, n_steps=512, rng=RngStream(53))
        assert is_est.stderr < crude.stderr


class _RecordingMap:
    """A ``pmap`` that runs every job in order and keeps each job's batch size."""

    def __init__(self):
        self.sizes = []

    def __call__(self, fn, jobs):
        jobs = list(jobs)
        self.sizes += [size for _, _, size in jobs]
        return map(fn, jobs)


# at eps 0.005 a path expects (4/3) 0.005^-1.5 = 3771 jump records (the IS
# envelope a few more), so 400 paths of 64 steps hold 1.5M: the records
# bound, not the grid, sets the plan
RECORD_BOUND_RUNS = {
    "crude": (lambda pmap: estimate_crude(SmallBallQuery.centered(PARAMS, 1.0), 400, 64,
                                          rng=RngStream(60), pmap=pmap, eps_cutoff=0.005),
              _jump_rate(1.5, 0.005)),
    "anderson": (lambda pmap: anderson_report(PARAMS, 1.0, 400, RngStream(61), n_steps=64,
                                              pmap=pmap, eps_cutoff=0.005),
                 _jump_rate(1.5, 0.005)),
    "is": (lambda pmap: estimate_is(SmallBallQuery.middle(PARAMS, identity_shift(), 0.2, 0.8),
                                    400, 64, rng=RngStream(62), pmap=pmap, eps_cutoff=0.005),
           sum(tilted_jump_rates(TiltSpec.middle_shift(PARAMS, identity_shift(), 0.2, 0.8),
                                 0.005)[1:])),
}


@pytest.mark.parametrize("name", RECORD_BOUND_RUNS)
def test_no_mapped_batch_exceeds_the_records_bound(name):
    run, records = RECORD_BOUND_RUNS[name]
    pmap = _RecordingMap()
    run(pmap)
    assert sum(pmap.sizes) == 400 and len(pmap.sizes) >= 2
    assert max(pmap.sizes) * records <= _BATCH_RECORDS


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
