"""Figure 7 — degraded-mode read speed and per-disk average speed.

Regenerates Figure 7(a)/(b): 200 requests per data-disk failure case per
code per prime on the timing model, with reconstruction reads priced in.

The second test grounds the figure in the real array: the volume's
degraded read — one C kernel call following the read's route of cached
read plans, where a kernel is built — must issue exactly the per-disk
element reads the AccessEngine model prices: the Figure 7 numbers are
measurements of the code path a consumer actually runs.
"""

import numpy as np

from repro.analysis.figures import fig7_degraded_read
from repro.array import RAID6Volume
from repro.codes import make_code
from repro.iosim.engine import AccessEngine
from repro.util.ckernel import xor_kernel

from tests.oracles.diff import kernel_calls

from .conftest import CODES, PRIMES, format_series_table, write_result


def test_fig7(benchmark, results_dir):
    out = benchmark.pedantic(
        fig7_degraded_read,
        kwargs=dict(primes=PRIMES, codes=CODES, num_requests_per_case=200,
                    num_stripes=64),
        rounds=1,
        iterations=1,
    )
    table_a = format_series_table(
        "Figure 7(a): degraded read speed (model MB/s)",
        PRIMES,
        out["speed"],
    )
    table_b = format_series_table(
        "Figure 7(b): average degraded read speed per disk (model MB/s)",
        PRIMES,
        out["average"],
    )
    write_result(results_dir, "fig7_degraded_read.txt",
                 table_a + "\n\n" + table_b)
    print("\n" + table_a + "\n\n" + table_b)

    for i in range(len(PRIMES)):
        # paper: D-Code 11.6–26.0 % over X-Code; slightly below RDP/H-Code
        assert out["speed"]["dcode"][i] > out["speed"]["xcode"][i]
        assert out["speed"]["dcode"][i] < out["speed"]["rdp"][i]
        # paper Fig 7(b): D-Code's per-disk average beats RDP and H-Code
        assert out["average"]["dcode"][i] > out["average"]["rdp"][i]


def test_fig7_batched_volume_matches_model(monkeypatch):
    """Planned degraded reads issue exactly the model's per-disk I/O —
    on the path the benchmark times: with the C kernel, each read is one
    ``route_exec`` call following its route of read plans."""
    served = kernel_calls(monkeypatch, "route_exec")
    num_stripes = 16
    for code in CODES:
        layout = make_code(code, 7)
        volume = RAID6Volume(layout, num_stripes=num_stripes,
                             element_size=64)
        data = np.random.default_rng(7).integers(
            0, 256, (volume.num_elements, 64), dtype=np.uint8
        )
        volume.write(0, data)
        for failed in ((1,), (1, 4)):
            for disk in failed:
                volume.fail_disk(disk)
            engine = AccessEngine(layout, num_stripes=num_stripes,
                                  failed_disks=failed)
            # the whole volume in one request: the read plans serve it
            # as runs of same-pattern stripes
            volume.reset_io_counters()
            del served[:]
            got = volume.read(0, volume.num_elements)
            assert np.array_equal(got, data), (code, failed)
            assert served == [volume] * (xor_kernel() is not None)
            counters = volume.io_counters()
            predicted = engine.read_accesses(0, volume.num_elements)
            actual = [counters[d][0] for d in sorted(counters)]
            assert actual == list(predicted.reads), (code, failed)
