"""Start-up import hygiene, checked in fresh interpreters.

``import repro`` and the CLI's argument parsing must not load the heavy
third-party libraries (scipy, networkx) or the protocol stack; those load
where they are used.  Processes that fork workers import the protocol
stack first, so the workers inherit it instead of importing it again.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "networkx", "repro.classical", "repro.core", "repro.quantum")

REPORT_HEAVY = f"""
import json, sys
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


def _run(code: str, tmp_path=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    if tmp_path is not None:
        env["REPRO_RESULT_CACHE"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_repro_loads_no_heavy_modules():
    assert json.loads(_run("import repro\n" + REPORT_HEAVY)) == []


def test_cli_help_loads_no_heavy_modules():
    code = """
    import contextlib, io, runpy, sys
    sys.argv = ["repro", "--help"]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    """
    out = _run(textwrap.dedent(code) + REPORT_HEAVY)
    assert json.loads(out) == []


def test_public_api_resolves_lazily():
    code = """
    import json
    import repro

    names = list(repro.__all__)
    for name in names:
        getattr(repro, name)
    listed = dir(repro)
    assert all(name in listed for name in names)
    assert "__version__" in listed
    try:
        repro.no_such_export
    except AttributeError as exc:
        assert "no_such_export" in str(exc)
    else:
        raise AssertionError("unknown attribute did not raise")
    namespace = {}
    exec("from repro import *", namespace)
    assert sorted(n for n in namespace if not n.startswith("__")) == sorted(names)
    assert namespace["RandomSource"] is repro.RandomSource
    print(json.dumps(names))
    """
    names = json.loads(_run(code))
    assert names == sorted(names)
    assert {"RandomSource", "quantum_le_complete", "run_scenario"} <= set(names)


def test_fabric_imports_protocol_stack_before_forking(tmp_path):
    code = f"""
    import json, sys
    from repro.fabric.coordinator import run_fabric_sweep
    from repro.runtime.catalog import get_scenario

    ring = "repro.classical.leader_election.ring"
    assert ring not in sys.modules
    scenario = get_scenario("ring-le/lcr").with_overrides(sizes=(8,), trials=1)
    run = run_fabric_sweep(scenario, {str(tmp_path / "fabric")!r}, workers=1)
    assert len(run.trial_sets) == 1
    # numpy loads these on first attribute access; every worker needs them.
    print(json.dumps([m for m in (ring, "numpy.random", "numpy.ma") if m not in sys.modules]))
    """
    assert json.loads(_run(code, tmp_path)) == []
