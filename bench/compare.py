"""Compare two sets of benchmark reports under the benchmark's own bounds.

    python -m bench.compare A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``bench.run --out`` report.  For every workload x
end-to-end metric the table gives each side's median and quartiles, the
inter-quartile spread as a share of the median, and a verdict for B
against A: ``ok`` (not worse by more than the bound), ``WORSE``, or
``unresolved`` when either side's spread exceeds the bound — unless
every B run reads better than every A run.  With one set (no ``--``)
it prints that set's spread table alone.

The paper's counts (``disk_ios_per_op``, ``load_factor``, ``write_amp``)
repeat exactly for one seed, so for them any difference between runs of
the same seed is a change of behaviour, reported as ``CHANGED``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from bench.run import EXACT, load_contract
from bench.stats import quartiles


def load(paths: List[str]) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """(workload, metric) -> [(seed, value)] over the given reports."""
    out: Dict[Tuple[str, str], List[Tuple[int, float]]] = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for workload, body in report["workloads"].items():
            for metric, entry in body["metrics"].items():
                out[(workload, metric)].append(
                    (report["seed"], float(entry["value"]))
                )
    return out


def _worse(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    if better == "lower":
        dominated = max(b) < min(a)
    else:
        dominated = min(b) > max(a)
    if max(qa["spread"], qb["spread"]) > bound and not dominated:
        return "unresolved"
    return "WORSE" if _worse(qa["median"], qb["median"], better) > bound else "ok"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    split = argv.index("--") if "--" in argv else len(argv)
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    contract = load_contract()
    gated = {m["name"]: m for m in contract["end_to_end"]}
    status = 0
    header = f"{'workload':<14} {'metric':<18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    print(header + ("  | B: median      spread  worse-by  verdict" if side_b else "   bound"))
    for (workload, metric), pairs in sorted(side_a.items()):
        values = [v for _, v in pairs]
        qa = quartiles(values)
        line = (
            f"{workload:<14} {metric:<18} {qa['n']:>3} {qa['median']:>12.4f} "
            f"{qa['q1']:>12.4f} {qa['q3']:>12.4f} {qa['spread']:>7.3f}"
        )
        spec = gated.get(metric)
        if not side_b:
            if spec is not None:
                flag = "  > bound/3" if qa["spread"] > spec["bound"] / 3 and metric != "setup_s" else ""
                line += f"   {spec['bound']:.2f}{flag}"
            print(line)
            continue
        other = side_b.get((workload, metric))
        if not other:
            print(line + "  | (absent from B)")
            continue
        b_values = [v for _, v in other]
        qb = quartiles(b_values)
        if metric in EXACT:
            by_seed = dict(pairs)
            same = all(by_seed.get(seed, v) == v for seed, v in other)
            result = "ok" if same else "CHANGED"
            worse = 0.0
        elif spec is not None:
            worse = _worse(qa["median"], qb["median"], spec["better"])
            result = verdict(values, b_values, spec["better"], spec["bound"])
        else:
            worse, result = 0.0, "ungated"
        if result in ("WORSE", "CHANGED"):
            status = 1
        print(
            line + f"  | {qb['median']:>12.4f} {qb['spread']:>7.3f} "
            f"{worse:>+8.3f}  {result}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
