"""``PlanCache`` under threads: hits take no lock, inserts and evictions do.

Four threads look up about forty keys in a cache capped at six, a hot
handful most of the time, with the interpreter switching threads every
microsecond so that hits race evictions.  No lookup raises, each returns
an object compiled for its own key, and no thread ever sees the cache
hold more than its cap.
"""

import random
import sys
import threading

from repro.array import ioplan

THREADS = 4
KEYS = [("rmw", k, ()) for k in range(40)]
LOOKUPS = 4000


class _Compiled:
    def __init__(self, key):
        self.key = key


def test_hits_race_evictions(monkeypatch):
    monkeypatch.setattr(ioplan, "MAX_PLANS", 6)
    cache = ioplan.PlanCache()
    errors, wrong, biggest = [], [], []
    start = threading.Barrier(THREADS)

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        most = 0
        try:
            start.wait()
            for _ in range(LOOKUPS):
                # a hot set of five, so most lookups hit
                key = KEYS[rng.randrange(5 if rng.random() < 0.8 else 40)]
                plan = cache.get(key, _Compiled, key)
                if type(plan) is not _Compiled or plan.key != key:
                    wrong.append((key, plan))
                most = max(most, len(cache))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        biggest.append(most)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not wrong, wrong[:5]
    assert max(biggest) <= 6
    assert len(cache) == 6
