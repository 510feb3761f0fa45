"""Stateful property testing of the RAID-6 volume (hypothesis rules).

Hypothesis drives arbitrary interleavings of writes, failures, rebuilds,
latent errors and scrubs against a shadow array; invariants are checked
after every step.  This complements the fixed-seed fault campaign with
minimised counter-examples when something breaks.

Every rule runs on two volumes: one whose disks are quiet unless a rule
plants a latent sector (so its plans go to the disks as one vector), and
a mirror carrying a fault hook that does nothing on every disk (so the
same plans go element by element).  Their backing images and per-disk
I/O counters must never differ — the differential oracle of
``tests/array/test_rmw_batch.py``, here across failures, rebuilds,
latent errors and scrubs.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.array import RAID6Volume
from repro.codes import DCode

ELEMENT = 8


class VolumeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.volume = RAID6Volume(DCode(5), num_stripes=2,
                                  element_size=ELEMENT)
        self.hooked = RAID6Volume(DCode(5), num_stripes=2,
                                element_size=ELEMENT)
        for disk in self.hooked.disks:
            disk.fault_hook = lambda disk, op, offset: None
        self.shadow = np.zeros((self.volume.num_elements, ELEMENT),
                               dtype=np.uint8)
        self.failed = set()
        self.latent = 0

    # -- rules -------------------------------------------------------------

    # short, anything up to the whole volume, or exactly both stripes
    # whole — which, healthy, are encoded in place in the backing store
    @rule(start=st.integers(0, 29),
          n=st.one_of(st.integers(1, 6), st.integers(7, 30), st.just(30)),
          fill=st.integers(0, 255))
    def write(self, start, n, fill):
        start = min(start, self.volume.num_elements - n)
        data = np.full((n, ELEMENT), fill, dtype=np.uint8)
        self.volume.write(start, data)
        self.hooked.write(start, data)
        self.shadow[start:start + n] = data

    @rule(disk=st.integers(0, 4))
    @precondition(lambda self: len(self.failed) < 2)
    def fail_disk(self, disk):
        if disk in self.failed or self.latent:
            return
        self.volume.fail_disk(disk)
        self.hooked.fail_disk(disk)
        self.failed.add(disk)

    @rule()
    @precondition(lambda self: len(self.failed) > 0)
    def rebuild_one(self):
        disk = sorted(self.failed)[0]
        self.volume.replace_and_rebuild(disk)
        self.hooked.replace_and_rebuild(disk)
        self.failed.discard(disk)

    @rule(disk=st.integers(0, 4), stripe=st.integers(0, 1),
          row=st.integers(0, 4))
    @precondition(lambda self: not self.failed and self.latent == 0)
    def inject_latent(self, disk, stripe, row):
        self.volume.inject_latent_error(disk, stripe, row)
        self.hooked.inject_latent_error(disk, stripe, row)
        self.latent += 1

    @rule()
    @precondition(lambda self: not self.failed)
    def scrub_repair(self):
        self.volume.scrub_and_repair()
        self.hooked.scrub_and_repair()
        self.latent = 0

    def _reconcile(self):
        """Adopt policy-driven escalations into the model.

        Healing reads and scrub repairs count errors per disk, and the
        escalation ladder proactively fails a disk that keeps sourcing
        latent faults — the model must track those failures exactly like
        explicit ``fail_disk`` calls, or later rules fire against a
        volume that is quietly DEGRADED.
        """
        self.failed |= set(self.volume.failed_disks)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def reads_match_shadow(self):
        if not hasattr(self, "volume"):
            return
        self._reconcile()
        got = self.volume.read(0, self.volume.num_elements)
        assert np.array_equal(got, self.shadow)
        got = self.hooked.read(0, self.hooked.num_elements)
        assert np.array_equal(got, self.shadow)
        # a healing read just now may itself have escalated a disk to
        # failed; the next rule's precondition must see it
        self._reconcile()

    @invariant()
    def vector_matches_per_element(self):
        if not hasattr(self, "volume"):
            return
        assert self.volume.failed_disks == self.hooked.failed_disks
        live = [d.disk_id for d in self.volume.disks if not d.failed]
        assert np.array_equal(
            self.volume._backing[:, live], self.hooked._backing[:, live]
        )
        assert self.volume.io_counters() == self.hooked.io_counters()

    @invariant()
    def parity_clean_when_healthy(self):
        if not hasattr(self, "volume"):
            return
        self._reconcile()
        if not self.failed and self.latent == 0:
            assert self.volume.scrub() == []
            assert self.hooked.scrub() == []


TestVolumeStateMachine = VolumeMachine.TestCase
TestVolumeStateMachine.settings = settings(
    max_examples=15,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _replay(steps):
    """Run ``(rule, kwargs)`` steps through a fresh machine, every
    invariant checked after each — an explicit example, which
    hypothesis' stateful API has no ``@example`` for."""
    machine = VolumeMachine()
    machine.setup()
    for name, kwargs in steps:
        getattr(machine, name)(**kwargs)
        machine.reads_match_shadow()
        machine.vector_matches_per_element()
        machine.parity_clean_when_healthy()
    return machine


def test_latent_escalation_mid_scrub():
    """The rare failure of this machine, pinned.  Latent sectors under
    parity rows (3 and 4 on D-Code p = 5) are never met by the invariant
    read, only by the next scrub, which charges each to its disk; with
    repeated injections on one disk the scrub that meets the
    ``escalate_after``-th (8) error has the error policy fail that disk
    in the middle of its gather.  ``scrub_and_repair`` then rewrote the
    reconstructed cell onto the dead disk and raised a raw
    ``DiskFailedError``.  It now repairs only cells on live disks and
    stops, leaving the disk to a rebuild — the machine adopts the
    escalation (``_reconcile``) and rebuilds it like any failure."""
    steps = []
    for k in range(8):
        steps += [
            ("inject_latent", {"disk": 0, "stripe": k % 2, "row": 3 + k % 2}),
            ("scrub_repair", {}),
        ]
    machine = _replay(steps)
    assert machine.volume.failed_disks == (0,) == machine.hooked.failed_disks
    assert machine.failed == {0}
    assert machine.volume.heal_log[-1].kind == "escalate"
    _replay(steps + [("rebuild_one", {})])
