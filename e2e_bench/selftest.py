"""Self-test of the end-to-end benchmark; run from the root of a checkout.

    python3 e2e_bench/selftest.py

1. A smoke-sized run of every workload, untraced and traced, prints every
   metric name with its unit (and, untraced, its named metrics) and a
   correct result.
2. Corrupting one reference fingerprint makes the correctness check fail.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark, the
   command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SCRATCH = pathlib.Path.cwd() / run.WORK_DIR_NAME / "selftest"


def bench(*args: str, cwd: pathlib.Path | None = None) -> tuple[int, list[str]]:
    process = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd or pathlib.Path.cwd(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    return process.returncode, process.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    failures = []
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", workload, "--smoke", "--seconds", "3", "--trace", trace]
                code, lines = bench(*args)
                result = result_of(lines)
                label = f"{workload} --trace {trace}"
                if code != 0 or result is None or not result["correct"]:
                    failures.append(f"{label}: exit {code}, result {result}")
                    continue
                expected = run.PER_LAYER if trace == "1" else run.END_TO_END
                for name, unit in expected.items():
                    if result["metrics"].get(name, {}).get("unit") != unit:
                        failures.append(f"{label}: metric {name} [{unit}] missing")
                printed = {line.split()[1] for line in lines if line.startswith("metric ")}
                for name in run.NAMED[workload] if trace == "0" else ():
                    if name not in printed:
                        failures.append(f"{label}: named metric {name} not printed")
                print(f"ok   {label}: {len(result['metrics'])} metrics, {result['attempted']} ops")

        corrupted = SCRATCH / "reference.json"
        reference = json.loads(run.REFERENCE.read_text())
        fingerprint = reference["large-trial-smoke"]["trial.lcr.0.0"]
        fingerprint["messages"] += 1
        corrupted.write_text(json.dumps(reference))
        code, lines = bench(
            "--workload", "large-trial", "--smoke", "--seconds", "3",
            "--reference", str(corrupted),
        )
        result = result_of(lines)
        if code == 0 or result is None or result["correct"]:
            failures.append(f"corrupted fingerprint not caught: exit {code}, {result}")
        else:
            print("ok   corrupted fingerprint fails the correctness check")

        bare = SCRATCH / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
        process = subprocess.run(
            [*command, "--workload", "large-trial", "--seed", "1", "--seconds", "3", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        if process.returncode == 0 or result_of(process.stdout.strip().splitlines()):
            failures.append("bench in a directory without the program did not fail")
        else:
            print("ok   no program sources: exit", process.returncode, "and no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
