"""The benchmark's contract, checked on short fixed-round runs.

Run with ``python -m pytest bench/tests`` (not part of tier-1: it
starts servers and takes a few minutes).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from bench import env  # noqa: E402
from bench.run import EXACT, RunFailed, _spawn  # noqa: E402
from bench.workloads import SPECS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
#: every workload the benchmark can run, serve_durable (not gated) too
WORKLOADS = [s.name for s in SPECS]


def bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines[-1] if lines else ""


def test_contract_file_is_within_the_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [w["name"] for w in CONTRACT["workloads"]] + [
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_workloads_match_the_code():
    assert [(s.name, s.why) for s in SPECS if s.in_contract] == [
        (w["name"], w["why"]) for w in CONTRACT["workloads"]
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload, tmp_path):
    out = tmp_path / "report.json"
    proc, last = bench(
        "--workload", workload, "--seed", "7", "--rounds", "4",
        "--trace", "0", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0, name
    report = json.loads(out.read_text())
    assert report["environment"]["c_kernel"] is True
    metrics = report["workloads"][workload]["metrics"]
    for name, metric in metrics.items():
        assert NAME.fullmatch(name)
        assert {"value", "unit", "bound", "est"} <= set(metric), name
        assert UNIT.fullmatch(metric["unit"])
    for m in CONTRACT["end_to_end"]:
        assert metrics[m["name"]]["bound"] == m["bound"]
    assert all(metrics[n]["est"] == "exact" for n in EXACT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    proc, last = bench(
        "--workload", workload, "--seed", "7", "--rounds", "2", "--trace", "1",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert "waterfall.unexplained_frac" in value
    # the cells predicted not to move
    if workload != "serve_durable":
        assert all(
            v == 0 for k, v in value.items()
            if k.startswith(("serve.checkpoint.", "journal."))
        )
    if workload == "serve_open":
        assert value["array.cache.destages_per_write"] == 0
    if workload == "vol_mix":
        assert value["iosim.model_drift_ios"] == 0
    assert value["array.volume.disk_reads_per_op"] > 0
    if workload.startswith("serve_"):
        assert value["serve.coalescer.avg_batch"] >= 1
    else:
        assert value["serve.loadgen.ceiling_ops_s"] == 0


def _exact(workload, seed, rounds):
    proc, last = bench(
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(last)["metrics"]
    return [metrics[name]["value"] for name in EXACT]


@pytest.mark.parametrize("workload", ["vol_mix", "serve_sat"])
def test_counts_repeat_exactly_and_follow_the_seed(workload):
    # however many rounds were timed, and whatever the machine did
    first = _exact(workload, 7, 2)
    assert _exact(workload, 7, 3) == first
    assert _exact(workload, 8, 2) != first


def test_corrupted_shadow_fails_the_run():
    proc, last = bench(
        "--workload", "vol_mix", "--seed", "7", "--rounds", "2",
        "--corrupt-shadow",
    )
    assert proc.returncode != 0
    assert json.loads(last)["correct"] is False
    assert "final image" in proc.stdout


def test_refuses_the_numpy_engine():
    env = dict(os.environ, REPRO_PURE_NUMPY="1")
    proc, last = bench("--workload", "vol_mix", "--rounds", "1", env=env)
    assert proc.returncode != 0
    assert not last.startswith("{")
    assert "--allow-numpy" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, last = bench("--workload", "vol_mix", "--seed", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not last.startswith("{")


def test_a_hung_worker_fails_the_run():
    os.environ.update(env.child_env())
    with pytest.raises(RunFailed, match="killed after"):
        _spawn("serve_sat", 7, ["--seconds", "60"], limit_s=4.0)
    # the killed worker owned two payload rings; the check removed them
    assert all(
        env.alive(int(path.split("_")[-2])) for path in env.ring_segments()
    )


def test_a_process_left_behind_is_found_and_killed():
    stray = subprocess.Popen(["sleep", "60"], start_new_session=True)
    try:
        left = env.leaks(env.ring_segments(), stray.pid)
        assert left == [f"live process {stray.pid}"]
        assert stray.wait(timeout=10) != 0
    finally:
        stray.kill()


def test_compare_flags_a_regression(tmp_path):
    def report(path, seed, ops_s):
        path.write_text(json.dumps({
            "seed": seed, "workloads": {"vol_mix": {"metrics": {
                "ops_s": {"value": ops_s, "unit": "1/s", "bound": 0.25,
                          "est": "best"},
                "disk_ios_per_op": {"value": 17.5, "unit": "count",
                                    "bound": None, "est": "exact"},
            }}},
        }))
        return str(path)

    a = [report(tmp_path / f"a{i}.json", i, 5000 + i) for i in range(4)]
    same = [report(tmp_path / f"b{i}.json", i, 4990 + i) for i in range(4)]
    slow = [report(tmp_path / f"c{i}.json", i, 3000 + i) for i in range(4)]

    def compare(b):
        return subprocess.run(
            [sys.executable, "-m", "bench.compare", *a, "--", *b],
            cwd=ROOT, capture_output=True, text=True,
        )

    ok, bad = compare(same), compare(slow)
    assert ok.returncode == 0 and "WORSE" not in ok.stdout
    assert bad.returncode == 1 and "WORSE" in bad.stdout
