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
also depends on the LAPACK that NumPy bundles (OpenBLAS) and on the BLAS
thread count, since OpenBLAS factors the even blocks on a different path
with one thread than with several (the shifted solve from block order 128
up, the eigenvalues from 256): it is pinned with one BLAS thread, which
``conftest.py`` sets for every test session (and the benchmark for its runs).
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
    # eps_cutoff just below the cut empties the tilted band: each batch holds
    # only untilted exterior jumps, in [r, 2r) for the middle one
    lws, n_records = [], []
    for tilt in (TiltSpec.middle_shift(PARAMS, identity_shift(), c=0.2, r=0.8),
                 TiltSpec.small_shift(PARAMS, tent_shift(), lam=0.2, r=0.6)):
        batch, lw = sample_tilted_batch(tilt, 16, 64, RngStream(4210),
                                        eps_cutoff=np.nextafter(tilt.jump_cut, 0.0))
        assert not np.any(np.abs(batch.jump_sizes) < tilt.jump_cut)
        lws.append(lw)
        n_records.append(batch.jump_sizes.size)
    assert min(n_records) > 0
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
    "values": "d975e8cd7b69847c63ef286643dc703647c17000b5775e3999fef52dc4f11873",
    "jump_path": "329458cb4f9c69b137764e91aeb47bb7da84c565cb514e1ad6331ca9704de644",
    "jump_times": "f9a0a27db8209f81fc86653c2033c054daaa0961b3cc3044658825b2db9fe498",
    "jump_sizes": "85610ece07f06f15f818d25ca44ad0cc3a978a48fdfc0bfe9b5b9c46f9f493a1",
    "small_noise": "63a6d6bfa8195999ab056cf6af79d3b5c20794720e51208c56cb9d36a9383639",
    "sups": "09489f815f30ff20e77cf5c2e37ff8a334133519a3924fc80da435699525c433"
}
TILTED = {
    "values": "b3ceb3dd36b3da0550166b7b8301ba449277d9a229ba2dad81565a134998be21",
    "jump_path": "d5854d79db79674811f10af05c22104cfb6ba9f0c8297cbe2bb183f5101a0280",
    "jump_times": "1ab2fcd3c8bdba579d48cd128e2657273a0ce9d719b71d819e30c6ec1f19d12e",
    "jump_sizes": "286ed18674fc4b714657264a9ad61957351dfa7962cbee86311f053f16e68efb",
    "small_noise": "ac1684c7d0790647d10f3de007fcabd9684d1a1cd41d1907cb3ad52f34454c4d",
    "drift_steps": "93fc138dea54a896b07b89fb262f5a6f40965ee08452783f9f5f114cf6110186",
    "log_weights": "b8ba0943eaec9ffbb25330357e56f904847f21ff0de03744d6178e61a40b8ca7",
    "sups": "728a7f12d1962d39a03e2f18d04ecd9577d8308a89c1848cfde80e2c6c495a53"
}
INCREMENTS = {
    "stable": "80103fea1b699fc48591a187436eb4adeaac03089f5e425fba3daf8cbdb32fac",
    "time_changed": "87d7d4e79f788d4bf66a628449396ff6a0cb9b89781196f43c93ea68d42e85ff"
}
NO_INTERIOR_LOG_WEIGHTS = "c1cf81bcc624e26136c46c63b4875f1337baec0eabb6f1e822d5bbb93280e93f"
BENCHMARK_BATTERY = "33276723be3e8c6030ca90efcfe23bf66e1cd38028f280a519c9cc653c2d6564"
ANDERSON = "86b528f3839314841f53601b64206965888166b6123277a0bdabd2fc739f254f"
ESTIMATORS = {
    "crude_jumps": "4088565ee8731d67918a859a4bf82f6f56e5b771bc028a242714e4fe0bb6c2c9",
    "crude_increments": "9c29274ef930b414a9aa87cde2222d81e9e936623074afadd62bf70c3098f87b",
    "is": "1b5361c7ab99b5f6647acc99bf22f27d01d6aebba3c4b4b5747051d0b4935b6a",
    "is_centered": "e807f818a0b224c0628802ce9f21362385c2cf3fa069f3037af5b617aac64039",
    "no_big_jump_fraction": "56fb908983bb16be08f0b2359871e624525153ed8ebc6bed4ba1874f6461de76",
    "tail_p_hat": "fbb911978ebae3b8785a0120779ec48756496f6488a160b18b25983a390d0617",
    "mc_p_hat": "df059372c4ed5d6f6927d596203a06bef3469c44a5fe023fe13ca2bd882d0c21",
    "spectral": "454066680da4c0aa4a983e8fcb2e59d9d464d4d1a2edc83363fb4a9022826de4"
}
SPLIT = {
    "frozen.values": "1389836e802cf8f7c3aea7e5efe2701cd743ec26d60605d6dbcd66db231fb4f0",
    "frozen.jump_times": "61098ce0bdd5d843fd1193b9192493ef893737e5449dff47f08a9c8020580a24",
    "frozen.jump_sizes": "ecdf8b531d5ac3757566b1b836dcb1b9418ce9db1563079097d99e760e23b747",
    "frozen.small_noise": "76c24c8f3d334f37ba5214c4860b81d0dc997bd2464c82ffc627d8ae377fdf20",
    "frozen.drift_steps": "4eaf3d581ca8527f961339d0d9b4784d059a5029e6f4900391b90298fb6cdd8a",
    "rest.values": "ad642d3439151ee88cc38d54afe9ca5f34396cef57ef6d54b6fd1774059dfa49",
    "rest.jump_times": "d533536959698753fcb2f72649f6e7f83094f9eea062382e0406070fcf3101e5",
    "rest.jump_sizes": "42cb9c79c5e7b96c0810d5e1e21a6a923e1c3c1b6621099119fb1a99ea129a25",
    "rest.small_noise": "217f7f6160f076cbacef0006e16a2baf5fd4451f02c8584e7a754aab8e272dc5",
    "rest.drift_steps": "cef13cef86c1086b7b0a68a90ef871bf0dbf2559eb423b3e16e8c2815a16a851"
}
SCALED_DISTANCES = "acc4241ef1e12d0bd952eb9c04841261c8b1185a74b2cba908e3258f37952c54"
SIMULATE_CSV = "c6211df02a811293b21122aafbd069d0d72685c4bbf5c2ae4bebfa863616a75a"


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
