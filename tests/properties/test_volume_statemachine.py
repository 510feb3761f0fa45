"""Stateful property testing of the RAID-6 volume (hypothesis rules).

Hypothesis drives arbitrary interleavings of writes, failures, rebuilds,
latent errors and scrubs against a shadow array; invariants are checked
after every step.  This complements the fixed-seed op streams of
``tests/oracles/test_diff.py`` with minimised counter-examples when
something breaks.

Every rule runs on a :class:`~tests.oracles.diff.Mirror`: the C kernel's
volume, the numpy one, one whose every disk carries a fault hook that
does nothing (the same plans element by element) and, until a latent
sector is planted, the reference walk.  Their returned bytes, backing
images and per-disk I/O counters must never differ.
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

from repro.codes import DCode

from tests.oracles.diff import Mirror

ELEMENT = 8


class VolumeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.mirror = Mirror(DCode(5), stripes=2, es=ELEMENT)
        self.volume = self.mirror.kernel
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
        self.mirror.write(start, data)
        self.shadow[start:start + n] = data

    @rule(disk=st.integers(0, 4))
    @precondition(lambda self: len(self.failed) < 2)
    def fail_disk(self, disk):
        if disk in self.failed or self.latent:
            return
        self.mirror.fail_disk(disk)
        self.failed.add(disk)

    @rule()
    @precondition(lambda self: len(self.failed) > 0)
    def rebuild_one(self):
        disk = sorted(self.failed)[0]
        self.mirror.rebuild(disk, batch=8)
        self.failed.discard(disk)

    @rule(disk=st.integers(0, 4), stripe=st.integers(0, 1),
          row=st.integers(0, 4))
    @precondition(lambda self: not self.failed and self.latent == 0)
    def inject_latent(self, disk, stripe, row):
        self.mirror.mark_bad(disk, stripe * self.volume.layout.rows + row)
        self.latent += 1

    @rule()
    @precondition(lambda self: not self.failed)
    def scrub_repair(self):
        self.mirror.scrub_and_repair()
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
        if not hasattr(self, "mirror"):
            return
        self._reconcile()
        got = self.mirror.read(0, self.volume.num_elements)
        assert np.array_equal(got, self.shadow)
        # a healing read just now may itself have escalated a disk to
        # failed; the next rule's precondition must see it
        self._reconcile()

    @invariant()
    def vector_matches_per_element(self):
        if not hasattr(self, "mirror"):
            return
        self.mirror.check()

    @invariant()
    def parity_clean_when_healthy(self):
        if not hasattr(self, "mirror"):
            return
        self._reconcile()
        if not self.failed and self.latent == 0:
            assert self.mirror.scrub() == []


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
    for volume in machine.mirror.volumes:
        assert volume.failed_disks == (0,)
    assert machine.failed == {0}
    assert machine.volume.heal_log[-1].kind == "escalate"
    _replay(steps + [("rebuild_one", {})])
