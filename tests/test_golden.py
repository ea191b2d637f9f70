"""Golden digests: sampler records, refined sups, estimators and artifacts, bit for bit.

The SHA-256 digests below pin the exact output of the jump-resolved samplers,
of the increment (CMS) samplers' paths,
of ``sup_distance_batch``, of every batch-driven estimator, of the spectral
rate constant (value, raw eigenvalues and gap), of the path splitting and
scaled-distance sweep in ``lil`` and of the CSV files that ``stable-smallball
simulate`` writes, at fixed seeds and small sizes; one more digest pins the
battery sups at the shape of the benchmark's ``anderson`` workload.  Speed-ups and refactors of
the samplers, the sup refinement, the batch loops or the eigen solver must
leave every one of them unchanged; a change to the RNG draw order, the batch plan,
the order of the per-batch reductions, the binning or the refined sup fails
here loudly.  Floats enter through ``float.hex``.  The digests also depend on NumPy's bit
generators and float kernels (pow, log, exp), so a different NumPy build or
CPU may need them recomputed at a known-good commit.  The spectral digest
also depends on the BLAS thread count, since OpenBLAS reduces the eigen
blocks on a different path with one thread than with several: it is pinned
with one BLAS thread, which ``conftest.py`` sets for every test session (and
the benchmark for its runs).
"""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from stable_smallball import (
    AlphaStableParams,
    GridSpec,
    RngStream,
    SmallBallQuery,
    TiltSpec,
    anderson_report,
    default_battery,
    empirical_no_big_jump_fraction,
    estimate_crude,
    estimate_is,
    identity_shift,
    sample_jump_batch,
    sample_scaled_distances,
    sample_stable_batch,
    sample_sups,
    sample_tilted_batch,
    sample_time_changed_batch,
    smallball_constant_mc,
    smallball_constant_spectral,
    split_at,
    sup_distance_batch,
    tail_prob_check,
    tent_shift,
)
from stable_smallball.cli import main

PARAMS = AlphaStableParams(1.5)
RECORDS = ("values", "jump_path", "jump_times", "jump_sizes", "small_noise")


def _digest(arr) -> str:
    arr = np.asarray(arr)
    canon = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    head = f"{canon.dtype.str}{canon.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(canon).tobytes()).hexdigest()


def _battery_sups(batch) -> np.ndarray:
    targets = [(None, 0.0)] + [(f, lam) for _, f, lam in default_battery(PARAMS)]
    return np.stack([sup_distance_batch(batch, f, lam) for f, lam in targets])


def _jump_digests() -> dict:
    batch = sample_jump_batch(PARAMS, 0.05, 64, 128, RngStream(4101))
    out = {name: _digest(getattr(batch, name)) for name in RECORDS}
    out["sups"] = _digest(_battery_sups(batch))
    return out


def _tilted_digests() -> dict:
    tilt = TiltSpec.small_shift(PARAMS, identity_shift(), lam=0.2, r=0.6)
    batch, lw = sample_tilted_batch(tilt, 16, 64, RngStream(4102))
    out = {name: _digest(getattr(batch, name)) for name in RECORDS}
    out["drift_steps"] = _digest(batch.drift_steps)
    out["log_weights"] = _digest(lw)
    out["sups"] = _digest(_battery_sups(batch))
    return out


def _increment_digests() -> dict:
    # both are cut into several CMS pieces and several row chunks, the last
    # ones partial; the time-changed batch scales each step by its own factor
    stable = sample_stable_batch(PARAMS, 64, 2048, RngStream(4211))
    clocked = sample_time_changed_batch(PARAMS, lambda t: 1.0 + t, 40, 2048, RngStream(4212))
    return {"stable": _digest(stable.values), "time_changed": _digest(clocked.values)}


def _no_interior_log_weight_digest() -> str:
    # eps_cutoff just below the cut empties the tilted band: the middle batch
    # has no jump records at all, the small one only untilted exterior jumps
    lws, n_records = [], []
    for tilt in (TiltSpec.middle_shift(PARAMS, identity_shift(), c=0.2, r=0.8),
                 TiltSpec.small_shift(PARAMS, tent_shift(), lam=0.2, r=0.6)):
        batch, lw = sample_tilted_batch(tilt, 16, 64, RngStream(4210),
                                        eps_cutoff=np.nextafter(tilt.jump_cut, 0.0))
        assert not np.any(np.abs(batch.jump_sizes) < tilt.jump_cut)
        lws.append(lw)
        n_records.append(batch.jump_sizes.size)
    assert n_records[0] == 0 < n_records[1]
    return _digest(np.concatenate(lws))


def _benchmark_battery_digest() -> str:
    # the shape of the benchmark's anderson workload: three 2047-path batches
    # with (2/1.5) 0.02^-1.5 = 471 jump records per path on average, six targets each
    sample = partial(sample_jump_batch, PARAMS, 0.02)
    targets = [(None, 0.0)] + [(f, lam) for _, f, lam in default_battery(PARAMS)]
    return _digest(sample_sups(sample, targets, 6141, 2048, RngStream(1).child(0)))


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _anderson_digest() -> str:
    rep = anderson_report(PARAMS, 2.0, 300, RngStream(4103), n_steps=256)
    rows = [[row.label, row.shift_scale.hex(), row.p_hat.hex(), row.stderr.hex(), row.flagged]
            for row in (rep.baseline, *rep.rows)]
    return _json_digest(rows)


def _estimate_digest(est) -> str:
    return _json_digest([est.value.hex(), est.stderr.hex(), est.n,
                         [c.hex() for c in est.ci95],
                         None if est.ess is None else est.ess.hex(), list(est.flags)])


QUERY = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=1.2)


def _estimator_digests() -> dict:
    # 3069 paths of 4096 steps are three batches, so the IS float sums depend
    # on the order in which the per-batch parts are added
    is_query = SmallBallQuery.middle(PARAMS, identity_shift(), c=0.2, r=1.0)
    tail = tail_prob_check(1.5, [2.0, 4.0, 8.0], 2100, rng=RngStream(4206), n_steps=2048)
    mc = smallball_constant_mc(1.5, r_list=(1.0, 1.5, 2.0), n_paths=400, n_steps=128,
                               rng=RngStream(4207))
    spectral = smallball_constant_spectral(1.5, n_grid=256)
    diag = spectral.diagnostics
    return {
        "crude_jumps": _estimate_digest(
            estimate_crude(QUERY, 600, 256, rng=RngStream(4202))),
        "crude_increments": _estimate_digest(
            estimate_crude(QUERY, 600, 256, rng=RngStream(4203), sampler="increments")),
        "is_centered": _estimate_digest(
            estimate_is(SmallBallQuery.centered(PARAMS, 1.2), 600, 256, rng=RngStream(4204))),
        "is": _estimate_digest(estimate_is(is_query, 3069, 4096, rng=RngStream(4201))),
        "no_big_jump_fraction": _estimate_digest(
            empirical_no_big_jump_fraction(PARAMS, 1.0, 500, rng=RngStream(4205))),
        "tail_p_hat": _digest(tail.p_hat),
        "mc_p_hat": _json_digest([p.hex() for p in mc.diagnostics["p_hat"]] + [mc.value.hex()]),
        "spectral": _json_digest([spectral.value.hex(),
                                  [lam.hex() for lam in diag["raw_eigenvalues"]],
                                  diag["spectral_gap"].hex()]),
    }


def _split_digests() -> dict:
    # a tilted path carries every per-step record: jumps, proxy noise and drift;
    # grid arrays are flattened, so one path hashes alike in any 1-d or (1, n) layout
    tilt = TiltSpec.middle_shift(PARAMS, tent_shift(), 0.5, 1.0)
    batch, _ = sample_tilted_batch(tilt, 4, 128, RngStream(4208), eps_cutoff=0.05)
    out = {}
    for side, part in zip(("frozen", "rest"), split_at(batch.extract(1), 0.37)):
        for name in ("values", "jump_times", "jump_sizes", "small_noise", "drift_steps"):
            out[f"{side}.{name}"] = _digest(np.ravel(getattr(part, name)))
    return out


def _scaled_distances_digest() -> str:
    spec = GridSpec(kind="lower", k_min=1000, k_max=1007)
    recs = sample_scaled_distances(spec, 0.5, 1.5, tent_shift(), n_steps=256,
                                   rng=RngStream(4209))
    return _json_digest([[rec.k, rec.log_t.hex(), rec.delta.hex(), rec.distance.hex()]
                         for rec in recs])


def _simulate_csv_digest(out) -> str:
    assert main(["simulate", "--n", "3", "--steps", "64", "--seed", "5",
                 "--out", str(out)]) == 0
    files = sorted(p for p in out.iterdir() if p.suffix == ".csv")
    assert len(files) == 6
    return _json_digest([[p.name, hashlib.sha256(p.read_bytes()).hexdigest()]
                         for p in files])


# digests of the records at the seeds above
JUMP = {
    "values": "5080401a141a2282e43f961d19e92dca825f613d595c202af014f37ea5b7ea1c",
    "jump_path": "1191a3104617ade4e0376f9f664a64cf88aa871b66e15d5c8fcc035041b733d3",
    "jump_times": "d66c645e1e3c35b556a4d9bfc870779d5b6e85a456aaf37083677fc40b6c7712",
    "jump_sizes": "37bfd4039f88fd292b99ef0b1eec0cb0155b00b3d81fb754b08001f0ee0183fb",
    "small_noise": "4ce49ee62273353c86a093c79c5f0775ecb71e0bf9bd5e1553f3720808c54058",
    "sups": "ed5078a17941f6da06961cbabcb974a2921eaf00a527a4be9e55a82033869dfc"
}
TILTED = {
    "values": "6631b561fb4f02a03cb191ecc598b64d2ecc3ee17e483443c6b91be0df213590",
    "jump_path": "783eb789059bc976f163593c3016a38841e2f478f143bee3fb75a2e85cc6b224",
    "jump_times": "b918357febe0b03d1d02c3923913696ea70aede2344070a6b432ab3020ded613",
    "jump_sizes": "d8d80d20097f7bddce26bc9401c06cac6ed7bbef8c37cb10bfedc29e42eaad12",
    "small_noise": "fdb796893ffa1ef48a37b2236a4363b02d5966db7f46e9b1a6016f78c478e7ef",
    "drift_steps": "93fc138dea54a896b07b89fb262f5a6f40965ee08452783f9f5f114cf6110186",
    "log_weights": "f1dd587bdcbf65aeec90536b6cea8017c214a2ab0860f84fa8668e7eefeef1ae",
    "sups": "8b5621e16903e9c8e8f684f1ca92f4fb2cd3481b0a7ca7e540201e95f22167c4"
}
INCREMENTS = {
    "stable": "f5c670bca35ee38a1a260917517e1d7425095143541e043bccc4293d38715b4e",
    "time_changed": "c7579fd32e0f67c9d256eb24123cd95769eca9e7c4128e55d660d5992faa925f"
}
NO_INTERIOR_LOG_WEIGHTS = "1ec62c470b56892a7079bf05ee158650ee499d7a0a47959421452f86a673bfca"
BENCHMARK_BATTERY = "e862d3dcab1f930e09341b8057c85d3faa17416efbadafb6640d1ec5b555a43b"
ANDERSON = "5673b95949c2eb9002eb3aa52c7bc1dd3b60bca2d8f3745d227d47772ca56f0a"
ESTIMATORS = {
    "crude_jumps": "3388479e7d5c43e17f8e266db873ef06c2e924fea8a130b84e02c4e7df22fa9a",
    "crude_increments": "6afcb5832de1a508d65aae2700f48e79ed1a84c9af2c57cb19de98b88167757d",
    "is": "53cef5ff3246bf2bc9b851dbf7c34d0247c4bc3a98b3d2af2c9838c4559567eb",
    "is_centered": "4e6384fa7a33616e57f8c7836bb3996461d9b90aca3f16481409cfb53220965f",
    "no_big_jump_fraction": "4fc5b39239ccf7b8535d9bba09568c2920bb6b3c4fc00da09fdb49a87955c6ed",
    "tail_p_hat": "1588d36ef7306ce36bb90c31be7440d051ec3687029769f3ef951a73b80acc05",
    "mc_p_hat": "337c8d2c3898dc53c787048700f9704165a4e27fb96f6a10478dddc43d064dab",
    "spectral": "66ef1c62845fbca572cfccf205f9002049396ba1b3fe726bbe9f53efc77b8311"
}
SPLIT = {
    "frozen.values": "945e82d8fc02c1de6a39c90ea78eed92e72fe004b65a7f78aed753b24c03b7e9",
    "frozen.jump_times": "9db4fabe89a2c1625de63554fd002fd5007c951410e2ae3a5cd62dcdc4288613",
    "frozen.jump_sizes": "576577e65e648caeb885fe69dee5c9e67fbf2649e38f753bbfb89248cb2b9060",
    "frozen.small_noise": "a94c754b106ad28e94e68bd359eaea2905174cb8c5903e6d1007db3d8aca087b",
    "frozen.drift_steps": "4eaf3d581ca8527f961339d0d9b4784d059a5029e6f4900391b90298fb6cdd8a",
    "rest.values": "cc45b9ccf2792391359d63c4aa0950262df11eb38077599d04f874f9d8698dc1",
    "rest.jump_times": "83b6f38e0bfa4ccf9b40d26a88f869a830ddb3cf8e9227c424f2a3128d123a0e",
    "rest.jump_sizes": "ca0108025e9c12bb6cbc1112f2700f6ee9214da32bc4bd2bc58d9d38c2c50053",
    "rest.small_noise": "7ec88a6d1cbd91b04e1496febcd31888608560e712d81a2802a1ff5c6a3f8e9a",
    "rest.drift_steps": "cef13cef86c1086b7b0a68a90ef871bf0dbf2559eb423b3e16e8c2815a16a851"
}
SCALED_DISTANCES = "7be8f7a35a9dd24cfa51ef515156e2a87b07f39653603630faded38fb393d38c"
SIMULATE_CSV = "6d19a8a9dcd982a4c1b5c9ba814522300f3c99b0e19ddfeeac6f807c16187aad"


@pytest.fixture(scope="module")
def jump():
    return _jump_digests()


@pytest.fixture(scope="module")
def tilted():
    return _tilted_digests()


@pytest.mark.parametrize("name", [*RECORDS, "sups"])
def test_jump_batch_bits(jump, name):
    assert jump[name] == JUMP[name]


@pytest.mark.parametrize("name", [*RECORDS, "drift_steps", "log_weights", "sups"])
def test_small_regime_tilted_batch_bits(tilted, name):
    assert tilted[name] == TILTED[name]


@pytest.fixture(scope="module")
def increments():
    return _increment_digests()


@pytest.mark.parametrize("name", sorted(INCREMENTS))
def test_increment_batch_bits(increments, name):
    assert increments[name] == INCREMENTS[name]


def test_no_interior_record_log_weights_bits():
    assert _no_interior_log_weight_digest() == NO_INTERIOR_LOG_WEIGHTS


def test_battery_sups_at_benchmark_shape_bits():
    assert _benchmark_battery_digest() == BENCHMARK_BATTERY


def test_anderson_report_bits():
    assert _anderson_digest() == ANDERSON


@pytest.fixture(scope="module")
def estimators():
    return _estimator_digests()


@pytest.fixture(scope="module")
def split():
    return _split_digests()


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimator_bits(estimators, name):
    assert estimators[name] == ESTIMATORS[name]


@pytest.mark.parametrize("name", sorted(SPLIT))
def test_split_at_bits(split, name):
    assert split[name] == SPLIT[name]


def test_scaled_distances_bits():
    assert _scaled_distances_digest() == SCALED_DISTANCES


def test_simulate_csv_bits(tmp_path, monkeypatch):
    monkeypatch.delenv("STABLE_SMALLBALL_OUT", raising=False)
    assert _simulate_csv_digest(tmp_path) == SIMULATE_CSV
