"""The volume's error-policy ladder: retry, heal inline, escalate."""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.codes import DCode
from repro.faults import ErrorPolicy, FaultInjector, FaultSpec, HealthState


def fresh_volume(rng, policy=None, num_stripes=4):
    vol = RAID6Volume(DCode(7), num_stripes=num_stripes, element_size=16,
                      policy=policy)
    data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
    vol.write(0, data)
    return vol, data


class TestInlineHealing:
    def test_latent_error_on_healthy_read_is_remapped(self, rng):
        """Regression: a latent error hit by a normal read must be
        reconstructed from parity AND rewritten, so the next read of the
        same element is an ordinary one-disk read."""
        vol, data = fresh_volume(rng)
        vol.inject_latent_error(disk=3, stripe=1, row=2)
        assert np.array_equal(vol.read(0, vol.num_elements), data)
        # the sector was remapped, not just read around
        assert vol.disks[3].bad_sectors == frozenset()
        remaps = [e for e in vol.heal_log if e.kind == "remap"]
        assert [(e.disk, e.stripe) for e in remaps] == [(3, 1)]
        # counted once: the stripe reload takes the sector that failed
        # as a known erasure and does not read it again
        assert vol.error_counters.latent[3] == 1
        # follow-up read is clean: exactly one disk element per logical
        # element, no reconstruction traffic
        vol.reset_io_counters()
        assert np.array_equal(vol.read(0, vol.num_elements), data)
        reads = sum(r for r, _ in vol.io_counters().values())
        assert reads == vol.num_elements

    def test_policy_can_disable_healing(self, rng):
        policy = ErrorPolicy(heal_latent_on_read=False)
        vol, data = fresh_volume(rng, policy=policy)
        vol.inject_latent_error(disk=3, stripe=1, row=2)
        assert np.array_equal(vol.read(0, vol.num_elements), data)
        # read served correctly but the medium error is left for the scrub
        assert len(vol.disks[3].bad_sectors) == 1
        assert [e for e in vol.heal_log if e.kind == "remap"] == []
        assert vol.scrub_and_repair().repaired_count == 1


class TestTransientRetry:
    def test_single_glitch_retried_in_place(self, rng):
        vol, data = fresh_volume(rng)
        FaultInjector(schedule=[
            FaultSpec("transient", at_op=0, disk=2, op="read")
        ]).attach(vol)
        assert np.array_equal(vol.read(0, vol.num_elements), data)
        assert any(e.kind == "retry_ok" for e in vol.heal_log)
        assert vol.error_counters.transient[2] == 1
        assert vol.error_counters.backoff_ms > 0

    def test_burst_exhausts_retries_then_reconstructs(self, rng):
        vol, data = fresh_volume(rng)
        # longer than max_retries+1 attempts: the element read fails for
        # good and the stripe is served through reconstruction instead
        FaultInjector(schedule=[
            FaultSpec("transient", at_op=0, disk=2, op="read",
                      count=vol.policy.max_retries + 2)
        ]).attach(vol)
        assert np.array_equal(vol.read(0, vol.num_elements), data)
        assert vol.error_counters.transient[2] >= vol.policy.max_retries + 1


class TestEscalation:
    def test_flaky_disk_is_proactively_failed(self, rng):
        policy = ErrorPolicy(max_retries=0, escalate_after=3)
        vol, data = fresh_volume(rng, policy=policy)
        FaultInjector(schedule=[
            FaultSpec("transient", at_op=0, disk=2, op="read", count=50)
        ]).attach(vol)
        # keep reading through the flapping disk; the policy gives up on
        # it long before the burst does
        assert np.array_equal(vol.read(0, vol.num_elements), data)
        assert vol.disks[2].failed
        assert vol.error_counters.escalated == [2]
        assert vol.health is HealthState.DEGRADED
        assert any(e.kind == "escalate" and e.disk == 2
                   for e in vol.heal_log)
        # degraded but fully readable
        assert np.array_equal(vol.read(0, vol.num_elements), data)

    def test_escalation_suppressed_without_redundancy(self, rng):
        """A flaky disk is never failed when two disks are already down —
        that would sacrifice data to tidiness."""
        policy = ErrorPolicy(escalate_after=2)
        vol, _ = fresh_volume(rng, policy=policy)
        vol.fail_disk(0)
        vol.fail_disk(1)
        for _ in range(5):
            vol._note_error(2, "transient")
        assert not vol.disks[2].failed
        assert vol.error_counters.escalated == []

    def test_write_racing_disk_death_is_dropped_not_fatal(self, rng):
        vol, data = fresh_volume(rng)
        FaultInjector(schedule=[
            FaultSpec("disk_death", at_op=0, disk=4, op="write")
        ]).attach(vol)
        new = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
        vol.write(0, new)  # must not raise
        assert vol.disks[4].failed
        assert any(e.kind == "dropped_write" and e.disk == 4
                   for e in vol.heal_log)
        # every element the dead disk held is still served from parity
        assert np.array_equal(vol.read(0, vol.num_elements), new)
