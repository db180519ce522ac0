"""Program-side entry points the benchmark runs in fresh interpreters.

Every mode below runs inside a process of the program under test, with
``src`` on ``PYTHONPATH``; the driver (``run.py``) only ever talks to these
processes through argv, stdout and files in its work directory.

Modes:

* ``setup`` — import ``repro`` and build the registry, print ``READY``.
* ``cli ARGS...`` — run ``repro ARGS...`` with the layer spans of
  :mod:`spans` installed (traced runs only; untraced runs use
  ``python -m repro`` directly).
* ``trials SPEC`` — the ``large-trial`` ops: registry trials
  (``Scenario.run_trial``) at the sizes in the JSON spec.
* ``prefill SPEC`` — compute every ``serve-mixed`` request through
  ``run_scenario(jobs=1)`` and print its trial sets, the reference the
  served payloads are checked against; requests marked ``prefill`` are
  also written to the server's result store (the hot working set).
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from time import perf_counter

TRACE_DIR_ENV = "E2E_TRACE_DIR"


def _recorder():
    """A :class:`spans.Recorder` installed on ``repro``, or None if untraced."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None, None
    import spans

    recorder = spans.Recorder()
    spans.install(recorder, dump_dir=trace_dir)
    return recorder, trace_dir


def _mode_setup() -> int:
    import repro  # noqa: F401
    from repro.runtime import default_registry

    default_registry()
    print("READY", flush=True)
    return 0


def _mode_cli(argv: list[str]) -> int:
    import repro.cli

    recorder, trace_dir = _recorder()
    try:
        return repro.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.dump(os.path.join(trace_dir, f"cli-{os.getpid()}.json"))


def _fingerprint(outcome, n: int) -> dict:
    detail = {
        key: (value if isinstance(value, (int, float, str)) else repr(value))
        for key, value in outcome.detail.items()
    }
    return {
        "n": n,
        "messages": int(outcome.messages),
        "rounds": int(outcome.rounds),
        "success": bool(outcome.success),
        "detail": detail,
    }


def _run_op(op: dict) -> dict:
    from repro.adversary import AdversarySpec
    from repro.runtime.scenario import Scenario, TopologySpec
    from repro.util.rng import RandomSource

    adversary = op.get("adversary")
    scenario = Scenario(
        name=op["name"],
        protocol=op["protocol"],
        topology=TopologySpec(op["topology"]),
        sizes=(op["n"],),
        adversary=AdversarySpec.parse(adversary) if adversary else None,
    )
    record = {"op": op["name"], "key": op["key"]}
    start = perf_counter()
    try:
        outcome = scenario.run_trial(op["n"], RandomSource(op["seed"]))
        record["seconds"] = perf_counter() - start
        record["fingerprint"] = _fingerprint(outcome, op["n"])
    except Exception as exc:  # noqa: BLE001 - an op failure is data
        record["seconds"] = perf_counter() - start
        record["error"] = type(exc).__name__
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        record["where"] = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return record


def _mode_trials(spec_path: str) -> int:
    """Run the large-trial ops in order; one JSON line per op on stdout."""
    with open(spec_path) as handle:
        spec = json.load(handle)
    from repro.runtime import default_registry

    default_registry()
    print("READY", flush=True)
    recorder, trace_dir = _recorder()
    for op in spec["ops"]:
        print(json.dumps(_run_op(op)), flush=True)
    if recorder is not None:
        recorder.dump(os.path.join(trace_dir, f"trials-{os.getpid()}.json"))
    return 0


def _mode_prefill(spec_path: str) -> int:
    """Compute reference runs; store the ones marked ``prefill``."""
    import dataclasses

    with open(spec_path) as handle:
        spec = json.load(handle)
    from repro.runtime import ResultStore, get_scenario, run_scenario

    store = ResultStore(root=spec["store"])
    payloads = []
    for request in spec["requests"]:
        overrides = request["overrides"]
        scenario = get_scenario(request["scenario"]).with_overrides(
            sizes=tuple(overrides["sizes"]),
            trials=overrides["trials"],
            seed=overrides["seed"],
        )
        run = run_scenario(
            scenario, jobs=1, store=store if request["prefill"] else None
        )
        payloads.append([dataclasses.asdict(ts) for ts in run.trial_sets])
    json.dump(payloads, sys.stdout)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _mode_setup()
    if mode == "cli":
        return _mode_cli(rest)
    if mode == "trials":
        return _mode_trials(rest[0])
    if mode == "prefill":
        return _mode_prefill(rest[0])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
