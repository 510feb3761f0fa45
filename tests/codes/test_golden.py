"""Golden values for the standalone codecs.

The codec tests elsewhere are round trips, which a change to a generator
matrix passes as long as encode and decode change together.  These pin
the encoded bytes themselves (as SHA-256 digests) and LRC's repair order
and decodable set, each computed once and committed; a change that moves
one of them changes what is on disk.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.codes.blaum_roth import BlaumRothCode
from repro.codes.liberation import LiberationCode
from repro.codes.linear import (
    CauchyRSRAID6,
    GeneralReedSolomon,
    LocalReconstructionCode,
    ReedSolomonRAID6,
)
from repro.exceptions import DecodeError

SEED = 2015

ENCODE_SHA256 = {
    "ReedSolomonRAID6(5)": (
        lambda: ReedSolomonRAID6(5, element_size=64),
        "45a54c020958841efb897112931723da1831bd48a716f6aa1afe2a23c25d2194",
    ),
    "GeneralReedSolomon(5, 3)": (
        lambda: GeneralReedSolomon(5, 3, element_size=48),
        "038fabe0c0cd6c7252ab37602eea58b84e1e98bf2bb1421d1bc10aff8f1c2f98",
    ),
    "LocalReconstructionCode(6, 3, 2)": (
        lambda: LocalReconstructionCode(6, 3, 2, element_size=32),
        "5d71e1bd12c80e0c8eaba521cd9ac66e3c84835acfd5398f4da7725052ca93e0",
    ),
    "CauchyRSRAID6(5)": (
        lambda: CauchyRSRAID6(5, element_size=64),
        "ff53b3da9c97ac9b7eb2148fbe39bb4a82d8c64a2d567a62a62835a00196d083",
    ),
    "LiberationCode(7)": (
        lambda: LiberationCode(7, element_size=56),
        "e0008b8b7727bfefcb9f180534b7c4d3613c8f39ab17c68613253098752cbe07",
    ),
    "BlaumRothCode(5)": (
        lambda: BlaumRothCode(5, element_size=32),
        "8ae1d2a228e1020e7374f06df38f7a37fce8790677c8546bb1565b1eeb02a34b",
    ),
}

#: sha256 of the JSON list of ``is_decodable`` verdicts over every erasure
#: set of 1..4 disks, in ``itertools.combinations`` order.
DECODABLE_SHA256 = {
    (12, 2, 2):
        "00bd2420a2c038dc14033e16ea699e3c301819bb2a54032201548592c194012a",
    (6, 3, 2):
        "4d878a0b1f806fb2244c2c2ec79c2962c0337d88072313caf20f8973692e18f9",
}

#: sha256 of the JSON list of LRC(6, 3, 2) ``decode`` return values (the
#: repair order, ``null`` for a refused set) over the same sets.
REPAIR_ORDER_SHA256 = (
    "49185e09d0161e7d101ea9c74bd69c6acabb1a71e2116c6881737386d1106b7e"
)


def sha256(payload) -> str:
    return hashlib.sha256(payload).hexdigest()


def erasure_sets(num_disks):
    for size in range(1, 5):
        yield from itertools.combinations(range(num_disks), size)


@pytest.mark.parametrize("name", sorted(ENCODE_SHA256))
def test_encoded_bytes(name):
    make, digest = ENCODE_SHA256[name]
    codec = make()
    data = np.random.default_rng(SEED).integers(
        0, 256, (codec.k, codec.element_size), dtype=np.uint8
    )
    assert sha256(codec.encode(data).tobytes()) == digest


def test_lrc_repair_order():
    lrc = LocalReconstructionCode(6, 3, 2, element_size=8)
    data = np.random.default_rng(1).integers(0, 256, (6, 8), dtype=np.uint8)
    stripe = lrc.encode(data)
    orders = []
    for lost in erasure_sets(lrc.num_disks):
        damaged = stripe.copy()
        try:
            orders.append(lrc.decode(damaged, list(lost)))
        except DecodeError:
            orders.append(None)
            continue
        assert np.array_equal(damaged, stripe), lost
    assert sha256(json.dumps(orders).encode()) == REPAIR_ORDER_SHA256


@pytest.mark.parametrize("klr", sorted(DECODABLE_SHA256))
def test_lrc_decodable_set(klr, monkeypatch):
    lrc = LocalReconstructionCode(*klr, element_size=8)

    def no_buffers(*args, **kwargs):
        raise AssertionError("is_decodable touched a stripe")

    # the verdict comes from the coefficients alone
    monkeypatch.setattr(LocalReconstructionCode, "decode", no_buffers)
    monkeypatch.setattr(LocalReconstructionCode, "_solve", no_buffers)
    verdicts = [lrc.is_decodable(list(lost))
                for lost in erasure_sets(lrc.num_disks)]
    assert sha256(json.dumps(verdicts).encode()) == DECODABLE_SHA256[klr]
