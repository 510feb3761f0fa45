"""Package ``__init__`` files resolve their exports on first use.

A process that serves one D-Code volume must not pay for every registry
code, the timing model and the figure harness at import.  These run in
fresh interpreters: the test process itself has long since imported
everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(script: str, *args: str):
    """Run ``script`` in a new interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_protocol_import_loads_no_other_layer():
    loaded = run_fresh("""
        import json, sys
        import repro.serve.protocol
        print(json.dumps(sorted(m for m in sys.modules if "repro" in m)))
    """)
    assert "repro.serve.protocol" in loaded
    for absent in ("repro.perf", "repro.iosim", "repro.codes.linear",
                   "repro.array.volume", "repro.serve.server"):
        assert absent not in loaded, loaded


def test_exports_resolve_lazily_and_stay():
    loaded, names = run_fresh("""
        import json, sys
        import repro
        before = sorted(m for m in sys.modules if m.startswith("repro."))
        from repro import DCode, RAID6Volume
        import repro.codes
        assert repro.codes.DCode is DCode and "DCode" in vars(repro.codes)
        assert repro.array.volume.RAID6Volume is RAID6Volume  # submodule
        assert "io_cost" in dir(repro)
        namespace = {}
        exec("from repro import *", namespace)
        print(json.dumps([before, sorted(set(repro.__all__) - set(namespace))]))
    """)
    assert loaded == ["repro._lazy"]
    assert names == []


def test_unknown_attribute_is_an_attribute_error():
    assert run_fresh("""
        import json
        import repro, repro.codes
        seen = []
        for owner in (repro, repro.codes):
            try:
                owner.no_such_thing
            except AttributeError as exc:
                seen.append(str(exc))
        print(json.dumps(seen))
    """) == [
        "module 'repro' has no attribute 'no_such_thing'",
        "module 'repro.codes' has no attribute 'no_such_thing'",
    ]
