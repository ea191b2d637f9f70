"""Golden digests: sampler records, refined sups and the Anderson battery, bit for bit.

The SHA-256 digests below pin the exact output of the jump-resolved samplers,
of ``sup_distance_batch`` and of ``anderson_report`` at fixed seeds and small
sizes.  Speed-ups of the jump ordering or of the sup refinement must leave
every one of them unchanged; a change to the RNG draw order, the binning or
the refined sup fails here loudly.  The digests also depend on NumPy's bit
generators and float kernels (pow, log, exp), so a different NumPy build or
CPU may need them recomputed at a known-good commit.
"""

import hashlib
import json

import numpy as np
import pytest

from stable_smallball import (
    AlphaStableParams,
    RngStream,
    TiltSpec,
    anderson_report,
    default_battery,
    identity_shift,
    sample_jump_batch,
    sample_tilted_batch,
    sup_distance_batch,
)

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


def _anderson_digest() -> str:
    rep = anderson_report(PARAMS, 2.0, 300, RngStream(4103), n_steps=256)
    rows = [[row.label, row.shift_scale.hex(), row.p_hat.hex(), row.stderr.hex(), row.flagged]
            for row in (rep.baseline, *rep.rows)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# digests of the records at the seeds above
JUMP = {
    "values": "5080401a141a2282e43f961d19e92dca825f613d595c202af014f37ea5b7ea1c",
    "jump_path": "1191a3104617ade4e0376f9f664a64cf88aa871b66e15d5c8fcc035041b733d3",
    "jump_times": "d66c645e1e3c35b556a4d9bfc870779d5b6e85a456aaf37083677fc40b6c7712",
    "jump_sizes": "37bfd4039f88fd292b99ef0b1eec0cb0155b00b3d81fb754b08001f0ee0183fb",
    "small_noise": "4ce49ee62273353c86a093c79c5f0775ecb71e0bf9bd5e1553f3720808c54058",
    "sups": "adf41fdb501cf509440efdf6e789c0208055752e7edc3f2bb0a5027dc45f131c"
}
TILTED = {
    "values": "2c1ea26f332e6a98037ff459f76d1c8188403d4e901c45b4625263ef17f8adea",
    "jump_path": "783eb789059bc976f163593c3016a38841e2f478f143bee3fb75a2e85cc6b224",
    "jump_times": "b918357febe0b03d1d02c3923913696ea70aede2344070a6b432ab3020ded613",
    "jump_sizes": "d8d80d20097f7bddce26bc9401c06cac6ed7bbef8c37cb10bfedc29e42eaad12",
    "small_noise": "fdb796893ffa1ef48a37b2236a4363b02d5966db7f46e9b1a6016f78c478e7ef",
    "drift_steps": "ab9442dbb6ae3181bf7c4cc8a98c0cbc523e1f43ef48045d5dce292abfc0a58b",
    "log_weights": "f1dd587bdcbf65aeec90536b6cea8017c214a2ab0860f84fa8668e7eefeef1ae",
    "sups": "386dee032c674c4034d2a4253d89629e04e917ea3fea73aa21a5985e6ce055f2"
}
ANDERSON = "5673b95949c2eb9002eb3aa52c7bc1dd3b60bca2d8f3745d227d47772ca56f0a"


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


def test_anderson_report_bits():
    assert _anderson_digest() == ANDERSON
