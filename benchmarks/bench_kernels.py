"""Kernel-tier benchmark: million-node rounds through the batch engine.

Three stages, each gated on bit-identity before any number is reported:

* **parity** — the newly ported protocols (Hirschberg–Sinclair, the CPR
  diameter-2 baseline, engine-driven Borůvka) plus LCR/KPP run the same
  seeded trial under scalar-fast, scalar-reference, and the batch path on
  every installed kernel tier; all fingerprints must match exactly;
* **speedup** — batch vs scalar-fast rounds/sec at moderate n for the
  three new ports, plus numba-vs-numpy rows when numba is importable
  (marked unavailable with a reason otherwise);
* **million** — n = 10⁶ throughput on the arithmetic-port families
  (C_n ring: LCR and HS with a capped round budget; K_n: a full KPP
  trial with directly seeded candidates).  Edges are never materialized
  — C_n and K_n route through pure port arithmetic.

Results land in ``BENCH_kernels.json`` at the repo root.  CI runs
``--smoke`` (parity + speedup floor, small sizes, no file write).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.adversary import AdversarySpec  # noqa: F401  (spec grammar in docs)
from repro.classical.leader_election.complete_kpp import (
    _KPPBatch,
    classical_le_complete,
    default_referees_complete,
)
from repro.classical.leader_election.diameter2_cpr import classical_le_diameter2
from repro.classical.leader_election.ring import (
    _HSBatch,
    _LCRBatch,
    hirschberg_sinclair_ring,
    lcr_ring,
)
from repro.classical.mst_boruvka import boruvka_mst_engine
from repro.network import graphs
from repro.network.engine import SynchronousEngine
from repro.network.kernels import numba_available, resolve_kernel
from repro.network.metrics import MetricsRecorder
from repro.network.topology import CompleteTopology
from repro.util.rng import RandomSource

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_kernels.json"

#: Smoke-mode floor: batch ≥ this × scalar-fast rounds/sec on at least one
#: of the newly ported protocols (HS / CPR / Borůvka).
TARGET_SPEEDUP = 2.0

MILLION = 1_000_000


def _kernel_tiers() -> list[str]:
    return ["numpy", "numba"] if numba_available() else ["numpy"]


def _with_env(key: str, value: str, fn):
    previous = os.environ.get(key)
    os.environ[key] = value
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ[key]
        else:
            os.environ[key] = previous


def _run_mode(trial, mode: str, kernel: str = "numpy"):
    """One seeded trial under a dispatch mode; returns its fingerprint."""
    node_api = "batch" if mode == "batch" else "scalar"
    backend = "reference" if mode == "scalar-reference" else "fast"

    def go():
        return _with_env("REPRO_KERNEL", kernel, lambda: trial(node_api))

    return _with_env("REPRO_ENGINE", backend, go)


# -- seeded trials (fingerprint = everything observable) ----------------------


def _le_fingerprint(result):
    return (
        result.messages,
        result.rounds,
        result.leader,
        tuple(sorted((v, s.name) for v, s in result.statuses.items())),
    )


def _trial_lcr(n):
    def trial(node_api):
        return _le_fingerprint(
            lcr_ring(n, RandomSource(7), node_api=node_api)
        )

    return trial


def _trial_hs(n):
    def trial(node_api):
        return _le_fingerprint(
            hirschberg_sinclair_ring(n, RandomSource(7), node_api=node_api)
        )

    return trial


def _trial_kpp(n):
    def trial(node_api):
        return _le_fingerprint(
            classical_le_complete(n, RandomSource(7), node_api=node_api)
        )

    return trial


def _trial_cpr(n):
    topology = graphs.complete(n)

    def trial(node_api):
        return _le_fingerprint(
            classical_le_diameter2(topology, RandomSource(7), node_api=node_api)
        )

    return trial


def _trial_boruvka(n):
    topology = graphs.cycle(n)
    weight_rng = RandomSource(99)
    weights = {}
    for u, v in topology.edges():
        a, b = (u, v) if u < v else (v, u)
        weights[(a, b)] = weight_rng.uniform()

    def trial(node_api):
        result = boruvka_mst_engine(
            topology, weights, RandomSource(7), node_api=node_api
        )
        return (
            result.messages,
            result.rounds,
            tuple(result.edges),
            round(result.total_weight, 12),
        )

    return trial


# -- stage 1: parity ----------------------------------------------------------

PARITY_GRID = [
    ("le-ring/lcr", _trial_lcr, 512, 96),
    ("le-ring/hs", _trial_hs, 256, 64),
    ("le-complete/classical", _trial_kpp, 256, 64),
    ("le-diameter2/classical", _trial_cpr, 256, 64),
    ("mst/boruvka-engine", _trial_boruvka, 48, 16),
]


def run_parity(smoke: bool) -> list[dict]:
    rows = []
    for name, make_trial, n_full, n_smoke in PARITY_GRID:
        n = n_smoke if smoke else n_full
        trial = make_trial(n)
        fingerprints = {
            "scalar-fast": _run_mode(trial, "scalar-fast"),
            "scalar-reference": _run_mode(trial, "scalar-reference"),
        }
        for tier in _kernel_tiers():
            fingerprints[f"batch-{tier}"] = _run_mode(trial, "batch", tier)
        if len(set(fingerprints.values())) != 1:
            raise AssertionError(
                f"{name} (n={n}) diverged across dispatch paths/tiers: "
                f"{fingerprints}"
            )
        rows.append({"protocol": name, "n": n, "paths": sorted(fingerprints)})
        print(f"parity  {name:<24} n={n:<5} {len(fingerprints)} paths identical")
    return rows


# -- stage 2: batch-vs-scalar and numba-vs-numpy speedups ---------------------

SPEEDUP_GRID = [
    ("le-ring/hs", "cycle", _trial_hs, 1024, 128),
    ("le-diameter2/classical", "complete", _trial_cpr, 1024, 128),
    ("mst/boruvka-engine", "cycle", _trial_boruvka, 48, 16),
]


def _time_call(fn, repeats: int):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_speedups(smoke: bool) -> list[dict]:
    repeats = 1 if smoke else 3
    rows = []
    for name, family, make_trial, n_full, n_smoke in SPEEDUP_GRID:
        n = n_smoke if smoke else n_full
        trial = make_trial(n)
        secs_scalar, fp_scalar = _time_call(
            lambda: _run_mode(trial, "scalar-fast"), repeats
        )
        secs_batch, fp_batch = _time_call(
            lambda: _run_mode(trial, "batch", "numpy"), repeats
        )
        if fp_scalar != fp_batch:
            raise AssertionError(f"{name} batch/scalar fingerprints diverged")
        rounds = fp_scalar[1]
        row = {
            "protocol": name,
            "topology": family,
            "n": n,
            "rounds": rounds,
            "scalar_fast_rounds_per_sec": round(rounds / secs_scalar, 2),
            "batch_numpy_rounds_per_sec": round(rounds / secs_batch, 2),
            "speedup_batch_vs_scalar_fast": round(secs_scalar / secs_batch, 2),
        }
        if numba_available():
            secs_numba, fp_numba = _time_call(
                lambda: _run_mode(trial, "batch", "numba"), repeats
            )
            if fp_numba != fp_batch:
                raise AssertionError(
                    f"{name} numba/numpy fingerprints diverged"
                )
            row["batch_numba_rounds_per_sec"] = round(rounds / secs_numba, 2)
            row["speedup_numba_vs_numpy"] = round(secs_batch / secs_numba, 2)
        else:
            row["numba"] = {
                "available": False,
                "reason": "numba not installed in this environment",
            }
        rows.append(row)
        print(
            f"speedup {name:<24} n={n:<5} "
            f"batch {row['batch_numpy_rounds_per_sec']:>10,.0f} r/s | "
            f"scalar-fast {row['scalar_fast_rounds_per_sec']:>10,.0f} r/s | "
            f"batch/fast {row['speedup_batch_vs_scalar_fast']:.2f}x"
        )
    return rows


# -- stage 3: million-node rounds ---------------------------------------------


def _million_lcr(kernel: str, max_rounds: int = 64):
    """C_1e6 Chang–Roberts, round budget capped (full election is Θ(n))."""
    topology = graphs.cycle(MILLION)
    ids = (np.random.default_rng(5).permutation(MILLION) + 1).astype(np.int64)
    program = _LCRBatch(topology, ids)
    metrics = MetricsRecorder()
    engine = SynchronousEngine(
        topology, program, metrics, label="bench-lcr", kernel=kernel
    )
    start = time.perf_counter()
    engine.run(max_rounds=max_rounds)
    seconds = time.perf_counter() - start
    fingerprint = (metrics.messages, metrics.rounds)
    return seconds, metrics, fingerprint


def _million_hs(kernel: str, max_rounds: int = 48):
    """C_1e6 Hirschberg–Sinclair, capped mid-election."""
    topology = graphs.cycle(MILLION)
    ids = (np.random.default_rng(6).permutation(MILLION) + 1).astype(np.int64)
    program = _HSBatch(topology, ids)
    metrics = MetricsRecorder()
    engine = SynchronousEngine(
        topology, program, metrics, label="bench-hs", kernel=kernel
    )
    start = time.perf_counter()
    engine.run(max_rounds=max_rounds)
    seconds = time.perf_counter() - start
    fingerprint = (
        metrics.messages,
        metrics.rounds,
        int(program.phase.sum()),
        int(program.replies.sum()),
    )
    return seconds, metrics, fingerprint


def _million_kpp(kernel: str, candidates: int = 16):
    """K_1e6 KPP, full four-round trial with directly seeded candidates.

    The driver cannot run at this size: its n⁴ ranks overflow the int64
    ``rank`` column once n ≥ ~55k.  So the bench seeds exactly
    ``candidates`` candidate nodes (with real RNG streams for their
    referee draws) and runs the engine end to end.
    """
    n = MILLION
    topology = CompleteTopology(n)
    referees = default_referees_complete(n)
    picker = np.random.default_rng(8)
    chosen = np.sort(picker.choice(n, size=candidates, replace=False))
    rngs: list = [None] * n
    seed_rng = RandomSource(31)
    for v in chosen.tolist():
        rngs[v] = seed_rng.spawn()
    program = _KPPBatch(n, rngs, referees)
    program.is_candidate[chosen] = True
    program.rank[chosen] = picker.integers(1, 2**40, size=candidates)
    program.status_codes[~program.is_candidate] = 2  # STATUS_NON_ELECTED
    metrics = MetricsRecorder()
    engine = SynchronousEngine(
        topology, program, metrics, label="bench-kpp", kernel=kernel
    )
    start = time.perf_counter()
    engine.run(max_rounds=4)
    seconds = time.perf_counter() - start
    elected = int(np.count_nonzero(program.status_codes == 1))
    fingerprint = (metrics.messages, metrics.rounds, elected)
    return seconds, metrics, fingerprint


MILLION_GRID = [
    ("le-ring/lcr", "cycle", _million_lcr, "64-round cap (full run is Θ(n) rounds)"),
    ("le-ring/hs", "cycle", _million_hs, "48-round cap (full run is Θ(n) rounds)"),
    ("le-complete/classical", "complete", _million_kpp, "full 4-round trial"),
]


def run_million() -> list[dict]:
    rows = []
    for name, family, runner, note in MILLION_GRID:
        tiers = _kernel_tiers()
        timings = {}
        fingerprints = {}
        for tier in tiers:
            seconds, metrics, fingerprints[tier] = runner(tier)
            timings[tier] = {
                "rounds": metrics.rounds,
                "messages": metrics.messages,
                "seconds": round(seconds, 3),
                "rounds_per_sec": round(metrics.rounds / seconds, 3),
                "messages_per_sec": round(metrics.messages / seconds, 1),
            }
        if len(set(fingerprints.values())) != 1:
            raise AssertionError(
                f"{name} (n=1e6) diverged across kernel tiers: {fingerprints}"
            )
        row = {
            "protocol": name,
            "topology": family,
            "n": MILLION,
            "note": note,
            "edges_materialized": False,
            "tiers": timings,
        }
        if not numba_available():
            row["numba"] = {
                "available": False,
                "reason": "numba not installed in this environment",
            }
        rows.append(row)
        base = timings["numpy"]
        print(
            f"million {name:<24} {family:<9} "
            f"{base['rounds']} rounds, {base['messages']:,} msgs in "
            f"{base['seconds']}s  ({base['messages_per_sec']:,.0f} msg/s)"
        )
    return rows


def run_bench(smoke: bool) -> dict:
    payload = {
        "benchmark": "kernel-tier",
        "smoke": smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernel_resolved": resolve_kernel(),
        "numba_available": numba_available(),
        "target": {
            "claim": (
                "batch >= 2x scalar-fast rounds/sec on a newly ported "
                "protocol, fingerprints identical across all paths/tiers"
            ),
            "speedup": TARGET_SPEEDUP,
        },
        "parity": run_parity(smoke),
        "speedups": run_speedups(smoke),
    }
    if not smoke:
        payload["million_node"] = run_million()
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--output", action="store_true",
        help="write BENCH_kernels.json even in smoke mode",
    )
    args = parser.parse_args(argv)
    payload = run_bench(args.smoke)
    best = max(
        row["speedup_batch_vs_scalar_fast"] for row in payload["speedups"]
    )
    print(
        f"best batch/scalar-fast speedup: {best:.2f}x "
        f"(target >= {TARGET_SPEEDUP}x)"
    )
    if not args.smoke or args.output:
        OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {OUTPUT}")
    if best < TARGET_SPEEDUP:
        print("SPEEDUP TARGET MISSED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
