"""Extension — single-failure repair reads across the code landscape.

Connects the paper's degraded-read theme to the wider design space: for
one lost data block, how many elements must be read?  RAID-6 MDS codes
pay a full recovery group (hybrid planning trims the whole-disk case);
LRC pays only its local group; WEAVER pays 2; replication would pay 1.
Efficiency is the other axis — the table shows the trade the paper's
introduction frames.
"""

from repro.codes import make_code
from repro.codes.linear import LocalReconstructionCode
from repro.codes.weaver import WeaverCode
from repro.recovery.planner import hybrid_plan

from .conftest import write_result


def harness():
    rows = []
    for code in ("rdp", "xcode", "dcode"):
        layout = make_code(code, 13)
        # per-element repair: average size of the cheapest covering group
        per_element = sum(
            min(len(g.members) - 1 + 1 for g in layout.groups_covering(c))
            for c in layout.data_cells
        ) / layout.num_data_cells
        whole_disk = hybrid_plan(layout, 0).num_reads / len(
            layout.cells_in_column(0)
        )
        rows.append((f"{code} (p=13)", layout.storage_efficiency,
                     per_element, whole_disk))

    weaver = WeaverCode(13)
    rows.append(("weaver n=13", weaver.storage_efficiency, 2.0, 2.0))

    lrc = LocalReconstructionCode(k=12, l=2, r=2, element_size=32)
    rows.append((
        "lrc(12,2,2)", lrc.storage_efficiency,
        float(lrc.repair_cost_single_data_failure()),
        float(lrc.repair_cost_single_data_failure()),
    ))
    return rows


def test_repair_cost_landscape(benchmark, results_dir):
    rows = benchmark.pedantic(harness, rounds=1, iterations=1)
    lines = [
        "Repair-cost landscape: reads per repaired element, one failure",
        f"{'code':<14}{'efficiency':>11}{'per element':>13}"
        f"{'per disk-el':>13}",
    ]
    for name, eff, per_el, per_disk in rows:
        lines.append(f"{name:<14}{eff:>11.3f}{per_el:>13.2f}"
                     f"{per_disk:>13.2f}")
    table = "\n".join(lines)
    write_result(results_dir, "repair_cost_landscape.txt", table)
    print("\n" + table)

    by_name = {name: (eff, per_el) for name, eff, per_el, _ in rows}
    # the design-space trade: LRC and WEAVER repair cheaper than any
    # RAID-6 MDS code, but only by giving up capacity
    assert by_name["lrc(12,2,2)"][1] < by_name["dcode (p=13)"][1]
    assert by_name["lrc(12,2,2)"][0] < by_name["dcode (p=13)"][0]
    assert by_name["weaver n=13"][0] == 0.5
