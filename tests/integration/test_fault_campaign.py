"""Randomised fault-injection campaign.

A long adversarial schedule against one volume: writes, disk failures,
rebuilds, latent sector errors, scrubs — interleaved at random but always
within RAID-6's contract (never more than two concurrent whole-disk
failures).  After every event the volume must still serve bit-exact reads
against the shadow model, and at the end parity must be clean.
"""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.codes import make_code
from repro.faults import ErrorPolicy

CODES = ("dcode", "rdp", "hdp")


class Campaign:
    def __init__(self, code: str, seed: int):
        self.rng = np.random.default_rng(seed)
        layout = make_code(code, 7)
        # the schedule owns every disk failure: the error policy must not
        # fail a disk for the latent sectors the schedule keeps injecting
        self.volume = RAID6Volume(
            layout, num_stripes=4, element_size=16,
            policy=ErrorPolicy(escalate_after=10**6),
        )
        self.shadow = np.zeros(
            (self.volume.num_elements, 16), dtype=np.uint8
        )
        self.failed: list = []

    # -- events ----------------------------------------------------------

    def ev_write(self):
        n = int(self.rng.integers(1, 12))
        start = int(self.rng.integers(0, self.volume.num_elements - n))
        data = self.rng.integers(0, 256, (n, 16), dtype=np.uint8)
        self.volume.write(start, data)
        self.shadow[start:start + n] = data

    def _outstanding_latent(self) -> bool:
        return any(d.bad_sectors for d in self.volume.disks)

    def ev_fail(self):
        # staying inside RAID-6's contract: a whole-disk failure on top of
        # unrepaired medium errors can exceed two damaged columns per
        # stripe, which is legitimate data loss — repair first if we can,
        # otherwise skip the event
        if len(self.failed) >= 2:
            return
        if self._outstanding_latent():
            if self.failed:
                return
            self.volume.scrub_and_repair()
        alive = [
            d.disk_id for d in self.volume.disks if not d.failed
        ]
        victim = int(self.rng.choice(alive))
        self.volume.fail_disk(victim)
        self.failed.append(victim)

    def ev_rebuild(self):
        if not self.failed:
            return
        disk = self.failed.pop(int(self.rng.integers(len(self.failed))))
        self.volume.replace_and_rebuild(disk)

    def ev_latent(self):
        # one outstanding medium error at a time, and never alongside a
        # double failure: the damage then always fits two columns
        if len(self.failed) >= 2 or self._outstanding_latent():
            return
        alive = [d.disk_id for d in self.volume.disks if not d.failed]
        disk = int(self.rng.choice(alive))
        stripe = int(self.rng.integers(self.volume.mapper.num_stripes))
        row = int(self.rng.integers(self.volume.layout.rows))
        self.volume.inject_latent_error(disk, stripe, row)

    def ev_scrub(self):
        if self.failed:
            return
        self.volume.scrub_and_repair()

    def ev_verify(self):
        got = self.volume.read(0, self.volume.num_elements)
        assert np.array_equal(got, self.shadow), "data diverged"

    def run(self, steps: int):
        events = [
            (self.ev_write, 0.45),
            (self.ev_fail, 0.10),
            (self.ev_rebuild, 0.10),
            (self.ev_latent, 0.10),
            (self.ev_scrub, 0.10),
            (self.ev_verify, 0.15),
        ]
        funcs = [e for e, _ in events]
        probs = np.array([w for _, w in events])
        probs = probs / probs.sum()
        for _ in range(steps):
            idx = int(self.rng.choice(len(funcs), p=probs))
            funcs[idx]()
        # settle: rebuild everything, repair, final verification
        while self.failed:
            self.ev_rebuild()
        self.volume.scrub_and_repair()
        self.ev_verify()
        assert self.volume.scrub() == []


@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_fault_campaign(code, seed):
    Campaign(code, seed).run(steps=120)


def test_campaign_hits_every_event_kind():
    """Make sure the schedule actually exercises failures and repairs."""
    campaign = Campaign("dcode", seed=4)
    hits = {name: 0 for name in
            ("write", "fail", "rebuild", "latent", "scrub", "verify")}
    originals = {
        "write": campaign.ev_write,
        "fail": campaign.ev_fail,
        "rebuild": campaign.ev_rebuild,
        "latent": campaign.ev_latent,
        "scrub": campaign.ev_scrub,
        "verify": campaign.ev_verify,
    }

    def wrap(name):
        def inner():
            hits[name] += 1
            originals[name]()
        return inner

    for name in hits:
        setattr(campaign, f"ev_{name}", wrap(name))
    campaign.run(steps=250)
    assert all(count > 0 for count in hits.values()), hits
