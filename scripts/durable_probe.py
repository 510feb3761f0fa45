"""Time a durable shard's checkpoints, the barrier every durable ack waits on.

One shard of ``serve_durable``'s geometry (dcode p = 7, 128 stripes,
4 KiB elements, a 12-stripe cache evicting 6 at a time, durable) runs
``--batches`` batches of 16 ops: a 3:7 read:write mix of 1–8-element
ops drawn uniformly over the shard, executed as a shard worker executes
a batch (``execute_ops``), then ``store.checkpoint()``, the call that
stands between a durable batch and its acknowledgement.  Prints one
JSON line: checkpoint p50 / p99 / max in ms, the compaction count,
ms per compaction and their share of all checkpoint time, and the
bytes the shard's state directory holds at the end.

Run from a checkout::

    python3 scripts/durable_probe.py --seed 1

It imports the ``src/`` beside it, so a copy in another checkout
measures that checkout.  The state file goes to a temporary directory
that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.serve.protocol import OP_READ, OP_WRITE  # noqa: E402
from repro.serve.shard import ShardSpec, execute_ops  # noqa: E402
from repro.serve.state import build_shard_state  # noqa: E402

ELEMENT_SIZE = 4096
BATCH = 16


def run(seed: int, batches: int) -> dict:
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="durable-probe-") as root:
        spec = ShardSpec(
            code="dcode", p=7, num_stripes=128, element_size=ELEMENT_SIZE,
            cache_stripes=12, evict_batch=6, durable=True,
            state_path=os.path.join(root, "shard-0.state"),
        )
        t0 = time.perf_counter()
        volume, cache, store, _ = build_shard_state(spec)
        setup_ms = (time.perf_counter() - t0) * 1e3
        n = volume.num_elements
        payload = rng.integers(0, 256, 8 * ELEMENT_SIZE, dtype=np.uint8)
        times, compacting = [], []
        try:
            for _ in range(batches):
                ops = []
                for _ in range(BATCH):
                    count = int(rng.integers(1, 9))
                    start = int(rng.integers(0, n - count + 1))
                    if rng.random() < 0.3:
                        ops.append((OP_READ, start, count, None))
                    else:
                        ops.append((OP_WRITE, start, count, payload[
                            :count * ELEMENT_SIZE].tobytes()))
                execute_ops(volume, cache, ops)
                before = store.compactions
                t0 = time.perf_counter()
                store.checkpoint()
                times.append((time.perf_counter() - t0) * 1e3)
                compacting.append(store.compactions > before)
            size = sum(
                os.path.getsize(os.path.join(root, name))
                for name in os.listdir(root)
            )
        finally:
            store.close()
    times = np.array(times)
    compacting = np.array(compacting)
    compact_ms = times[compacting]
    return {
        "seed": seed,
        "batches": batches,
        "setup_ms": round(setup_ms, 1),
        "checkpoint_p50_ms": round(float(np.percentile(times, 50)), 3),
        "checkpoint_p99_ms": round(float(np.percentile(times, 99)), 3),
        "checkpoint_max_ms": round(float(times.max()), 3),
        "compactions": int(compacting.sum()),
        "ms_per_compaction": (
            round(float(compact_ms.mean()), 1) if len(compact_ms) else None
        ),
        "compaction_share": round(float(compact_ms.sum() / times.sum()), 3),
        "state_mb": round(size / 1e6, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=400)
    args = parser.parse_args()
    print(json.dumps(run(args.seed, args.batches)))


if __name__ == "__main__":
    main()
