"""End-to-end benchmark of ``repro``: paper sweeps, large trials, serving.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload paper-sweeps --seed 0 --seconds 30 --trace 0

Workloads (see ``e2e_bench/README.md`` for why each was chosen):

* ``paper-sweeps`` — ``repro --help``, then ``repro sweep --experiment E
  --jobs 1`` for every ``EXPERIMENT_SWEEPS`` pair against an empty result
  store (cold pass) and again against the filled store (warm pass).
* ``large-trial`` — registry trials (``Scenario.run_trial``) at
  n = 2^14..2^17 in one fresh interpreter, setup included.
* ``serve-mixed`` — a ``repro serve`` subprocess under an open-loop stream
  of hot (cached) and cold (fabric job) run requests.

Every output is checked: against the fingerprints in ``reference.json`` for
the default seed, against invariants for any other seed.  A wrong answer
makes the command exit 1.  Failed operations (exceptions, non-zero exits,
HTTP >= 500, refused connections, failed jobs) are counted, not masked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
ops untraced and then traced, and prints the per-layer metrics, including
the tracing overhead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import http.client
import json
import math
import os
import pathlib
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
PROGRAM = BENCH_DIR / "program.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR_NAME = ".e2e_bench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 150.0

EXPERIMENTS = ("E1", "E3", "E4", "E5", "E6", "E7", "E8", "E10")
#: E3 alone takes 75 s serially at catalogue sizes; this cap keeps a run short.
E3_SIZES = "16,32"

LARGE_TRIAL_OPS = {
    # name: (protocol, topology, n, adversary)
    "qle": ("le-complete/quantum", "complete", 2**17, None),
    "kpp": ("le-complete/classical", "complete", 2**17, None),
    "lcr": ("le-ring/lcr", "cycle", 2**14, None),
    "amp18_lossy": (
        "agreement/amp18-engine", "complete", 2**14, "drop=0.05,delay=0.02,dup=0.01",
    ),
}
#: One pass, in order; KPP runs in the first pass only.
LARGE_TRIAL_PASS = ("qle",) * 4 + ("kpp", "lcr") + ("amp18_lossy",) * 6
#: One pass takes about this long on the reference box; a run makes
#: ``seconds // LARGE_TRIAL_PASS_S`` passes (at least one), a fixed count,
#: so how many samples a run gets never depends on how busy the box is.
LARGE_TRIAL_PASS_S = 12
#: Likewise for one cold plus one warm pass of the sweeps.
PAPER_SWEEPS_PASS_S = 30

#: Catalogue scenarios the serve working set draws from (cheap at n <= 32).
SERVE_SCENARIOS = (
    "ring-le/lcr",
    "ring-le/hs",
    "complete-le/classical",
    "complete-le/quantum",
    "agreement/classical",
    "agreement-engine/classical",
    "star-search/quantum",
    "ring-le-lossy/lcr",
)
SERVE_RUN_MEMORY = 128
SERVE_WORKING_SET = 192  # > SERVE_RUN_MEMORY, so both cache tiers answer
SERVE_LADDER_RPS = (150, 200, 300, 400, 500, 600, 800)
SERVE_LADDER_REQUESTS = 400
SERVE_TAIL_LIMIT_MS = 20.0
SERVE_MIXED_RPS = 150
SERVE_COLD_EVERY_S = 0.5
SERVE_POLL_S = 0.02
CLIENT_THREADS = 2  # nproc on the reference box: the load's concurrency cap

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)

#: Gated metrics: reported by every workload (see README.md for their meaning).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "time_geomean_s": "s"}

#: The named end-to-end metrics each workload prints.  ``trial.kpp_s`` is
#: printed only when the KPP trial succeeds, which it does not at n = 2^17.
NAMED = {
    "paper-sweeps": ("setup_s", "peak_rss_mb", "failed_ratio", "sweep.cold_s", "sweep.warm_s"),
    "large-trial": (
        "setup_s", "peak_rss_mb", "failed_ratio",
        "trial.qle_s", "trial.lcr_s", "trial.amp18_lossy_s",
    ),
    "serve-mixed": (
        "setup_s", "peak_rss_mb", "failed_ratio", "serve.hot_p50_ms",
        "serve.hot_tail_ms", "serve.cold_p50_s", "serve.max_rps",
    ),
}

LAYER_SELF = {
    "rng": "rng.spawn_s",
    "topology": "topology.build_s",
    "protocol": "protocol.setup_s",
    "engine": "engine.s",
    "walk": "walk.s",
    "quantum": "quantum.s",
    "store.load": "store.load_s",
    "store.save": "store.save_s",
    "fabric": "fabric.job_s",
    "serve.parse": "serve.parse_s",
    "serve.lookup": "serve.lookup_s",
    "serve.payload": "serve.payload_s",
}

PER_LAYER = {
    "import.repro_s": "s",
    "import.scipy_s": "s",
    "import.networkx_s": "s",
    "rng.spawn_s": "s",
    "rng.children": "count",
    "topology.build_s": "s",
    "topology.builds": "count",
    "protocol.setup_s": "s",
    "engine.s": "s",
    "engine.rounds": "count",
    "engine.messages": "count",
    "engine.gather_s": "s",
    "engine.step_s": "s",
    "engine.deliver_s": "s",
    "engine.round_us": "us",
    "adversary.dropped": "count",
    "adversary.delayed": "count",
    "adversary.duplicated": "count",
    "walk.s": "s",
    "walk.calls": "count",
    "quantum.s": "s",
    "quantum.calls": "count",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.saves": "count",
    "store.loads": "count",
    "store.hits": "count",
    "store.misses": "count",
    "fabric.job_s": "s",
    "fabric.workers_spawned": "count",
    "fabric.shards": "count",
    "serve.parse_s": "s",
    "serve.lookup_s": "s",
    "serve.payload_s": "s",
    "serve.http_s": "s",
    "serve.tier_memory_share": "ratio",
    "serve.tier_store_share": "ratio",
    "serve.gen_lag_ms": "ms",
    "telemetry.traced_overhead_pct": "%",
    "traced_wall_s": "s",
    "unaccounted_s": "s",
}


def derive_seed(seed: int, *labels) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond."""
    ordered = sorted(latencies)
    chosen = PERCENTILES[0]
    for q in PERCENTILES:
        if len(ordered) * (1 - q / 100) >= 10:
            chosen = q
    rank = max(0, min(len(ordered) - 1, math.ceil(chosen / 100 * len(ordered)) - 1))
    return chosen, ordered[rank]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


# -- run context ----------------------------------------------------------------


class Context:
    """Everything one benchmark invocation shares: paths, env, processes."""

    def __init__(self, args, root: pathlib.Path):
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.root = root
        self.work = root / WORK_DIR_NAME / f"{args.workload}-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.base_work = self.work
        self.processes: list[subprocess.Popen] = []  # of the current half
        self.started: list[subprocess.Popen] = []  # every process, for cleanup
        self.ops: list[dict] = []  # {"kind", "seconds", "ok", "error"}
        self.problems: list[str] = []  # correctness failures
        self.named: dict[str, tuple[float, str]] = {}  # workload metrics
        self.fingerprints: dict = {}
        self.traced = False
        self.trace_dir: pathlib.Path | None = None
        self.top_spans: list[float] = []  # harness-timed setup + op walls
        self.http_s = 0.0  # client time spent in HTTP exchanges

    # -- environment -----------------------------------------------------------

    def env(self, **extra) -> dict:
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        src = str(self.root / "src")
        env["PYTHONPATH"] = src
        env["REPRO_RESULT_CACHE"] = str(self.work / "default-store")
        env.pop("E2E_TRACE_DIR", None)
        if self.traced:
            env["E2E_TRACE_DIR"] = str(self.trace_dir)
            env["REPRO_PROFILE"] = "1"
        env.update({key: str(value) for key, value in extra.items()})
        return env

    def python(self, *args: str) -> list[str]:
        """argv of a program process, traced through ``program.py`` if on."""
        if self.traced:
            return [sys.executable, "-X", "importtime", str(PROGRAM), *args]
        return [sys.executable, str(PROGRAM), *args]

    def repro(self, *args: str) -> list[str]:
        if self.traced:
            return self.python("cli", *args)
        return [sys.executable, "-m", "repro", *args]

    def spawn(self, argv, env) -> subprocess.Popen:
        stderr_path = self.work / f"stderr-{len(self.processes)}.txt"
        with stderr_path.open("w") as stderr:
            process = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        process.stderr_path = stderr_path
        self.processes.append(process)
        self.started.append(process)
        return process

    def stderr_of(self, process) -> str:
        try:
            return process.stderr_path.read_text()
        except OSError:
            return ""

    def stop_all(self) -> None:
        for process in self.started:
            if process.poll() is None:
                process.kill()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass

    # -- ops -------------------------------------------------------------------

    def op(self, kind: str, seconds: float, error: str | None = None) -> None:
        self.ops.append(
            {"kind": kind, "seconds": seconds, "ok": error is None, "error": error}
        )
        self.top_spans.append(seconds)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.named[name] = (value, unit)


def run_timed(ctx: Context, argv, env, timeout=PROCESS_TIMEOUT_S):
    """Run one program process to completion: (seconds, code, stdout)."""
    start = perf_counter()
    process = ctx.spawn(argv, env)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, _ = process.communicate()
        return perf_counter() - start, "timeout", out
    return perf_counter() - start, process.returncode, out


def wait_ready(process, timeout=PROCESS_TIMEOUT_S) -> bool:
    """Read stdout lines until ``READY``; False if the process ended first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            return False
        if line.strip() == "READY":
            return True
    return False


# -- paper-sweeps ---------------------------------------------------------------


def _sweep_argv(ctx: Context, experiment: str) -> list[str]:
    argv = [
        "sweep",
        "--experiment",
        experiment,
        "--jobs",
        "1",
        "--seed",
        str(derive_seed(ctx.seed, "sweep", experiment)),
    ]
    if ctx.smoke:
        argv += ["--sizes", "16,32" if experiment != "E6" else "64,128", "--trials", "1"]
    elif experiment == "E3":
        argv += ["--sizes", E3_SIZES]
    return argv


_ROW = re.compile(r"^\s*(\d+)\s*\|(.*)$")


def parse_sweep(text: str) -> dict:
    """Per-size aggregates and success summary of one ``sweep`` table."""
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = [cell.strip() for cell in match.group(2).split("|")]
    summary = [line for line in text.splitlines() if line.startswith("success rates")]
    return {"rows": rows, "success": summary[0] if summary else None}


def _check_sweep_invariants(ctx: Context, experiment: str, parsed: dict) -> None:
    ctx.check(parsed["rows"], f"{experiment}: no table rows in sweep output")
    ctx.check(parsed["success"] is not None, f"{experiment}: no success summary")
    for n, cells in parsed["rows"].items():
        try:
            ok = all(0.0 <= float(cell) <= 1.0 for cell in cells[-2:])
            ok = ok and all(float(cell.replace(",", "")) > 0 for cell in cells[:2])
        except (ValueError, IndexError):
            ok = False
        ctx.check(ok, f"{experiment} n={n}: malformed row {cells}")


def paper_sweeps(ctx: Context) -> None:
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, code, out = run_timed(ctx, ctx.repro("--help"), ctx.env())
        ctx.op("help", seconds, None if code == 0 else f"exit {code}")
        ctx.check(code != 0 or "sweep" in out, "repro --help does not list sweep")
        setups.append(seconds)
    ctx.metric("setup_s", median(setups), "s")
    cold_totals, warm_totals = [], []
    for repeat in range(1 if ctx.args.trace else max(1, int(ctx.seconds // PAPER_SWEEPS_PASS_S))):
        env = ctx.env(REPRO_RESULT_CACHE=ctx.work / f"store-{repeat}")
        cold_outputs: dict[str, str] = {}
        for label, totals in (("cold", cold_totals), ("warm", warm_totals)):
            total = 0.0
            for experiment in EXPERIMENTS:
                seconds, code, out = run_timed(ctx, ctx.repro(*_sweep_argv(ctx, experiment)), env)
                total += seconds
                error = None if code == 0 else f"exit {code}"
                ctx.op(f"sweep.{label}", seconds, error)
                print(f"op sweep.{label}.{experiment} {seconds:.4f} s")
                if error:
                    continue
                if label == "cold":
                    cold_outputs[experiment] = out
                    parsed = parse_sweep(out)
                    _check_sweep_invariants(ctx, experiment, parsed)
                    ctx.fingerprints.setdefault(f"sweep.{experiment}", parsed)
                elif experiment in cold_outputs:
                    ctx.check(
                        out == cold_outputs[experiment],
                        f"{experiment}: warm output differs from cold output",
                    )
            totals.append(total)
    ctx.metric("sweep.cold_s", median(cold_totals), "s")
    ctx.metric("sweep.warm_s", median(warm_totals), "s")
    ctx.metric("time_geomean_s", geomean([median(cold_totals), median(warm_totals)]), "s")


# -- large-trial ----------------------------------------------------------------


def large_trial(ctx: Context) -> None:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        start = perf_counter()
        process = ctx.spawn(ctx.python("setup"), ctx.env())
        ready = wait_ready(process)
        seconds = perf_counter() - start
        process.communicate(timeout=PROCESS_TIMEOUT_S)
        ctx.op("setup", seconds, None if ready else "no READY")
        setups.append(seconds)
    ops = []
    for repeat in range(1 if ctx.args.trace else max(1, int(ctx.seconds // LARGE_TRIAL_PASS_S))):
        for name in LARGE_TRIAL_PASS:
            if name == "kpp" and repeat:
                continue
            protocol, topology, n, adversary = LARGE_TRIAL_OPS[name]
            if ctx.smoke:
                n = 2**8 if topology == "complete" else 2**6
            index = sum(1 for op in ops if op["name"] == name)
            # Each trial draws its own seed, so a run's times span inputs.
            ops.append(
                {
                    "name": name,
                    "key": f"trial.{name}.{repeat}.{index}",
                    "protocol": protocol,
                    "topology": topology,
                    "n": n,
                    "adversary": adversary,
                    "seed": derive_seed(ctx.seed, "trial", name, index),
                }
            )
    spec = ctx.work / "trials.json"
    spec.write_text(json.dumps({"ops": ops}))
    start = perf_counter()
    process = ctx.spawn(ctx.python("trials", str(spec)), ctx.env())
    ready = wait_ready(process)
    seconds = perf_counter() - start
    ctx.op("setup", seconds, None if ready else "no READY")
    setups.append(seconds)
    ctx.metric("setup_s", median(setups), "s")
    per_op: dict[str, list[float]] = {}
    if ready:
        for line in process.stdout:
            record = json.loads(line)
            name = record["op"]
            error = record.get("error")
            if error is not None:
                ctx.op(f"trial.{name}", record["seconds"], f"{error} at {record['where']}")
                continue
            ctx.op(f"trial.{name}", record["seconds"])
            per_op.setdefault(name, []).append(record["seconds"])
            print(f"op {record['key']} {record['seconds']:.4f} s")
            ctx.fingerprints[record["key"]] = record["fingerprint"]
            _check_trial_invariants(ctx, name, record["fingerprint"])
    try:
        code = process.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        code = "timeout"
    if code != 0:
        ctx.op("trials-process", 0.0, f"exit {code}: {ctx.stderr_of(process)[-300:]}")
    for name in ("qle", "kpp", "lcr", "amp18_lossy"):
        if name in per_op:
            ctx.metric(f"trial.{name}_s", median(per_op[name]), "s")
    timed = [median(per_op[name]) for name in ("qle", "lcr", "amp18_lossy") if name in per_op]
    if timed:
        ctx.metric("time_geomean_s", geomean(timed), "s")


def _check_trial_invariants(ctx: Context, name: str, fingerprint: dict) -> None:
    ctx.check(fingerprint["success"], f"trial.{name}: not successful")
    detail = fingerprint["detail"]
    if "leader" in detail:
        leader = detail["leader"]
        ctx.check(
            isinstance(leader, int) and 0 <= leader < fingerprint["n"],
            f"trial.{name}: no unique leader ({leader!r})",
        )
    else:
        ctx.check(detail.get("value") in (0, 1), f"trial.{name}: invalid decision {detail}")


# -- serve-mixed ----------------------------------------------------------------


class ServeClient:
    """Open-loop request generator with at most ``CLIENT_THREADS`` in flight.

    Requests are timed from when they were due, so a stall also charges
    the requests queued behind it; ``lag`` records how late each send was.
    Cold requests are polled every ``SERVE_POLL_S`` until their job ends.
    """

    def __init__(self, ctx: Context, port: int, references: list):
        self.ctx = ctx
        self.port = port
        self.references = references
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)
        self.heap: list = []
        self.sequence = 0
        self.outstanding = 0
        self.results: list[dict] = []

    def exchange(self, method: str, path: str, body: bytes | None = None):
        """One HTTP request: (status, payload, seconds); raises OSError."""
        start = perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        seconds = perf_counter() - start
        with self.lock:
            self.ctx.http_s += seconds
        return response.status, json.loads(data) if data else {}, seconds

    def _push(self, due: float, item: dict) -> None:
        with self.lock:
            self.sequence += 1
            heapq.heappush(self.heap, (due, self.sequence, item))
            self.wake.notify()

    def run(self, schedule: list[tuple[float, dict]]) -> list[dict]:
        """Play ``(offset_s, request)`` items from now; returns results."""
        self.results = []
        self.wall_offset = time.time() - perf_counter()
        origin = perf_counter() + 0.05
        with self.lock:
            self.outstanding = len(schedule)
        for offset, request in schedule:
            self._push(origin + offset, dict(request, due=origin + offset))
        threads = [
            threading.Thread(target=self._worker, daemon=True)
            for _ in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=PROCESS_TIMEOUT_S)
        return self.results

    def _worker(self) -> None:
        while True:
            with self.lock:
                while not self.heap and self.outstanding:
                    self.wake.wait(0.05)
                if not self.outstanding:
                    self.wake.notify_all()
                    return
                due, _, item = heapq.heappop(self.heap)
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            finished = self._handle(item)
            if finished is not None:
                with self.lock:
                    self.results.append(finished)
                    self.outstanding -= 1
                    self.wake.notify_all()

    def _handle(self, item: dict) -> dict | None:
        sent = perf_counter()
        entry = item["entry"]
        result = {"kind": item["kind"], "entry": entry, "lag": sent - item["due"]}
        try:
            if item["kind"] == "poll":
                status, payload, _ = self.exchange("GET", item["location"])
                if status == 200 and payload.get("state") in ("queued", "running"):
                    self._push(perf_counter() + SERVE_POLL_S, item)
                    return None
                result["kind"] = "cold"
                result["lag"] = item["lag"]
                self._finish_cold(result, status, payload)
                if isinstance(payload.get("finished_at"), float):
                    # The server stamps the moment the job ended; the poll
                    # interval would otherwise quantize every cold latency.
                    result["seconds"] = payload["finished_at"] - (item["due"] + self.wall_offset)
            else:
                body = json.dumps(self.references[entry]["request"]).encode()
                status, payload, _ = self.exchange("POST", "/v1/runs", body)
                if item["kind"] == "cold" and status == 202:
                    self._push(
                        perf_counter() + SERVE_POLL_S,
                        dict(item, kind="poll", location=payload["location"], lag=result["lag"]),
                    )
                    return None
                result["tier"] = payload.get("tier")
                self._check_payload(result, status, payload, expect=(200,))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        result.setdefault("seconds", perf_counter() - item["due"])
        return result

    def _finish_cold(self, result: dict, status: int, payload: dict) -> None:
        if payload.get("state") == "failed":
            result["error"] = f"job failed: {payload.get('error')}"
            return
        self._check_payload(result, status, payload, expect=(200,))

    def _check_payload(self, result, status, payload, expect) -> None:
        if status >= 500 or status not in expect:
            result["error"] = f"HTTP {status}: {payload.get('error')}"
            return
        served = payload.get("run", {}).get("trial_sets")
        reference = self.references[result["entry"]]["trial_sets"]
        if served != reference:
            self.ctx.problems.append(
                f"served run for {self.references[result['entry']]['request']} "
                f"differs from run_scenario(jobs=1)"
            )


def _serve_requests(ctx: Context) -> list[dict]:
    """The hot working set followed by the cold requests, all seed-derived."""
    cold_count = 2 if ctx.smoke else max(3, int(_mixed_seconds(ctx) / SERVE_COLD_EVERY_S))
    sizes = [8, 16] if ctx.smoke else [16, 32]
    working = 12 if ctx.smoke else SERVE_WORKING_SET
    requests = []
    for index in range(working + cold_count):
        # Cold requests share one scenario, so their latencies are comparable.
        scenario = SERVE_SCENARIOS[index % len(SERVE_SCENARIOS) if index < working else 0]
        requests.append(
            {
                "prefill": index < working,
                "scenario": scenario,
                "overrides": {
                    "sizes": sizes,
                    "trials": 2,
                    "seed": derive_seed(ctx.seed, "serve", index),
                },
            }
        )
    return requests


def _mixed_seconds(ctx: Context) -> float:
    return 2.0 if ctx.smoke else max(4.0, ctx.seconds * 0.4)


def _start_server(ctx: Context, store: pathlib.Path, label: str):
    """Spawn ``repro serve``; (process, port, seconds to first healthz 200)."""
    start = perf_counter()
    process = ctx.spawn(
        ctx.repro(
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--run-memory",
            str(SERVE_RUN_MEMORY),
            "--fabric-dir",
            str(ctx.work / f"fabric-{label}"),
            "--store",
            str(store),
        ),
        ctx.env(),
    )
    line = process.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        return process, None, perf_counter() - start
    port = int(match.group(1))
    while perf_counter() - start < PROCESS_TIMEOUT_S:
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            connection.request("GET", "/healthz")
            if connection.getresponse().status == 200:
                connection.close()
                return process, port, perf_counter() - start
            connection.close()
        except OSError:
            time.sleep(0.005)
    return process, None, perf_counter() - start


def _stop_server(ctx: Context, process) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
    if process.returncode != 0:
        ctx.op("serve.exit", 0.0, f"exit {process.returncode}: {ctx.stderr_of(process)[-300:]}")


def _hot_schedule(rng_seed: int, rate: float, count: int, working: int, start=0.0):
    import random

    rng = random.Random(rng_seed)
    return [
        (start + index / rate, {"kind": "hot", "entry": rng.randrange(working)})
        for index in range(count)
    ]


def _record_results(ctx: Context, results: list[dict]) -> None:
    for result in results:
        ctx.op(f"serve.{result['kind']}", result.get("seconds", 0.0), result.get("error"))


def serve_mixed(ctx: Context) -> None:
    requests = _serve_requests(ctx)
    working = sum(1 for r in requests if r["prefill"])
    store = ctx.work / "serve-store"
    spec = ctx.work / "serve-requests.json"
    spec.write_text(json.dumps({"store": str(store), "requests": requests}))
    # Filling the store is not a timed op, so it never runs traced.
    prefill = [sys.executable, str(PROGRAM), "prefill", str(spec)]
    seconds, code, out = run_timed(ctx, prefill, ctx.env())
    if code != 0:
        raise RuntimeError(f"prefill failed ({code}): {ctx.stderr_of(ctx.processes[-1])[-500:]}")
    references = [
        {"request": {"scenario": r["scenario"], "overrides": r["overrides"]}, "trial_sets": ts}
        for r, ts in zip(requests, json.loads(out))
    ]
    ctx.fingerprints["serve.references"] = hashlib.sha256(
        json.dumps([r["trial_sets"] for r in references], sort_keys=True).encode()
    ).hexdigest()
    setups = []
    for index in range(SETUP_REPEATS):
        process, port, seconds = _start_server(ctx, store, f"setup{index}")
        ctx.op("setup", seconds, None if port else "serve did not come up")
        setups.append(seconds)
        if port is None:
            raise RuntimeError(f"repro serve did not start: {ctx.stderr_of(process)[-500:]}")
        if index < SETUP_REPEATS - 1:
            _stop_server(ctx, process)
    ctx.metric("setup_s", median(setups), "s")
    client = ServeClient(ctx, port, references)
    try:
        # Warm-up: every working-set entry once, in order (not timed).
        warm = client.run([(0.0, {"kind": "hot", "entry": i}) for i in range(working)])
        for result in warm:
            # All due at once: time each from its send, not from its due time.
            ctx.op("serve.warmup", result["seconds"] - result["lag"], result.get("error"))
        if not ctx.args.trace:
            _serve_ladder(ctx, client, working)
        rate = SERVE_MIXED_RPS
        mixed_s = _mixed_seconds(ctx)
        schedule = _hot_schedule(
            derive_seed(ctx.seed, "mixed"), rate, int(rate * mixed_s), working
        )
        cold_entries = range(working, len(requests))
        for number, entry in enumerate(cold_entries):
            schedule.append(
                ((number + 0.5) * mixed_s / len(cold_entries), {"kind": "cold", "entry": entry})
            )
        schedule.sort(key=lambda pair: pair[0])
        results = client.run(schedule)
        _record_results(ctx, results)
    finally:
        _stop_server(ctx, process)
    hot = [r["seconds"] for r in results if r["kind"] == "hot" and "error" not in r]
    cold = [r["seconds"] for r in results if r["kind"] == "cold" and "error" not in r]
    tiers = [r.get("tier") for r in results if r["kind"] == "hot" and "error" not in r]
    if hot:
        q, value = tail(hot)
        ctx.metric("serve.hot_p50_ms", median(hot) * 1e3, "ms")
        ctx.metric("serve.hot_tail_ms", value * 1e3, "ms")
        ctx.metric("serve.hot_tail_percentile", q, "pct")
        ctx.metric("serve.hot_samples", len(hot), "count")
        ctx.metric("serve.tier_memory_share", tiers.count("memory") / len(tiers), "ratio")
        ctx.metric("serve.tier_store_share", tiers.count("store") / len(tiers), "ratio")
    if cold:
        ctx.metric("serve.cold_p50_s", median(cold), "s")
        ctx.metric("serve.cold_samples", len(cold), "count")
    lags = [r["lag"] for r in results]
    ctx.metric("serve.gen_lag_ms", median(lags) * 1e3 if lags else 0.0, "ms")
    if hot and cold:
        ctx.metric("time_geomean_s", geomean([median(hot), median(cold)]), "s")


def _serve_ladder(ctx: Context, client: ServeClient, working: int) -> None:
    """Highest offered hot rate whose tail stays under the limit, no backlog."""
    best = None
    count = 40 if ctx.smoke else SERVE_LADDER_REQUESTS
    for rate in SERVE_LADDER_RPS:
        schedule = _hot_schedule(derive_seed(ctx.seed, "ladder", rate), rate, count, working)
        results = client.run(schedule)
        _record_results(ctx, results)
        ok = [r["seconds"] for r in results if "error" not in r]
        if len(ok) < len(results):
            break
        last_lags = [r["lag"] for r in results[-max(1, len(results) // 10):]]
        _, tail_value = tail(ok)
        if tail_value * 1e3 > SERVE_TAIL_LIMIT_MS or median(last_lags) * 1e3 > SERVE_TAIL_LIMIT_MS:
            break
        best = rate
    ctx.metric("serve.max_rps", float(best or 0), "1/s")


# -- tracing --------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds importing repro (cumulative), scipy and networkx (self sums)."""
    totals = {"repro": 0.0, "scipy": 0.0, "networkx": 0.0}
    for match in _IMPORT_LINE.finditer(text):
        self_us, cumulative_us, _, name = match.groups()
        package = name.split(".")[0]
        if name == "repro":
            totals["repro"] += int(cumulative_us) / 1e6
        elif package in ("scipy", "networkx"):
            totals[package] += int(self_us) / 1e6
    return totals


def layer_metrics(ctx: Context, untraced_wall: float) -> dict[str, float]:
    """Fold the span dumps of every traced process into per-layer metrics."""
    metrics = {name: 0.0 for name in PER_LAYER}
    worker_self = 0.0
    counters: dict[str, float] = {}
    phases: dict[str, float] = {}
    for path in sorted(ctx.trace_dir.glob("*.json")):
        dump = json.loads(path.read_text())
        is_worker = path.name.startswith("worker-")
        for layer, seconds in dump["self_s"].items():
            metrics[LAYER_SELF[layer]] += seconds
            if is_worker:
                worker_self += seconds
        calls = dump["calls"]
        metrics["walk.calls"] += calls.get("walk", 0)
        metrics["quantum.calls"] += calls.get("quantum", 0)
        metrics["topology.builds"] += calls.get("topology", 0)
        metrics["store.saves"] += calls.get("store.save", 0)
        metrics["store.loads"] += calls.get("store.load", 0)
        counts = dump["counts"]
        for name in ("rng.children", "store.hits", "store.misses", "fabric.workers_spawned", "fabric.shards"):
            metrics[name] += counts.get(name, 0)
        for name, state in dump["registry"].items():
            if state.get("kind") == "counter":
                counters[name] = counters.get(name, 0) + state["value"]
        for phase, state in dump["profile"].items():
            phases[phase] = phases.get(phase, 0.0) + state["seconds"]
    # Workers ran inside the server's fabric spans: their layer time is not
    # the fabric layer's own.
    metrics["fabric.job_s"] = max(0.0, metrics["fabric.job_s"] - worker_self)
    metrics["engine.rounds"] = counters.get("repro_engine_rounds_total", 0)
    metrics["engine.messages"] = counters.get("repro_engine_message_units_total", 0)
    metrics["adversary.dropped"] = counters.get("repro_engine_messages_dropped_total", 0)
    metrics["adversary.delayed"] = counters.get("repro_engine_messages_delayed_total", 0)
    metrics["adversary.duplicated"] = counters.get("repro_engine_messages_duplicated_total", 0)
    metrics["engine.gather_s"] = phases.get("engine.gather", 0.0)
    metrics["engine.step_s"] = phases.get("engine.step", 0.0)
    metrics["engine.deliver_s"] = phases.get("engine.deliver", 0.0)
    if metrics["engine.rounds"]:
        metrics["engine.round_us"] = metrics["engine.s"] / metrics["engine.rounds"] * 1e6
    imports = {"repro": 0.0, "scipy": 0.0, "networkx": 0.0}
    for process in ctx.processes:
        for name, seconds in parse_importtime(ctx.stderr_of(process)).items():
            imports[name] += seconds
    metrics["import.repro_s"] = imports["repro"]
    metrics["import.scipy_s"] = imports["scipy"]
    metrics["import.networkx_s"] = imports["networkx"]
    if ctx.http_s:
        app_s = metrics["serve.parse_s"] + metrics["serve.lookup_s"] + metrics["serve.payload_s"]
        metrics["serve.http_s"] = max(0.0, ctx.http_s - app_s)
    for name in ("serve.tier_memory_share", "serve.tier_store_share", "serve.gen_lag_ms"):
        if name in ctx.named:
            metrics[name] = ctx.named[name][0]
    wall = sum(ctx.top_spans)
    accounted = metrics["import.repro_s"] + metrics["serve.http_s"] + sum(
        metrics[name] for name in LAYER_SELF.values()
    )
    metrics["traced_wall_s"] = wall
    metrics["unaccounted_s"] = wall - accounted
    metrics["telemetry.traced_overhead_pct"] = (wall / untraced_wall - 1) * 100
    return metrics


# -- driver ---------------------------------------------------------------------

WORKLOADS = {
    "paper-sweeps": paper_sweeps,
    "large-trial": large_trial,
    "serve-mixed": serve_mixed,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def check_reference(ctx: Context, path: pathlib.Path, record: bool) -> None:
    """Compare fingerprints with the recorded ones for the default seed."""
    key = f"{ctx.args.workload}{'-smoke' if ctx.smoke else ''}"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    if record:
        recorded[key] = ctx.fingerprints
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        return
    expected = recorded.get(key)
    if expected is None:
        ctx.problems.append(f"no reference fingerprints for {key} in {path.name}")
        return
    observed = json.loads(json.dumps(ctx.fingerprints))
    for name in sorted(expected):
        if name in observed:
            if expected[name] != observed[name]:
                ctx.problems.append(f"fingerprint {name} differs from {path.name}")
        elif not _LATER_PASS.match(name):
            ctx.problems.append(f"fingerprint {name} was not produced")


#: Passes after the first run only when ``--seconds`` asks for them.
_LATER_PASS = re.compile(r"trial\.\w+\.[1-9]\d*\.")


def execute(ctx: Context) -> None:
    WORKLOADS[ctx.args.workload](ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--reference", type=pathlib.Path, default=REFERENCE)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="write this run's fingerprints as the default-seed reference",
    )
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    ctx = Context(args, root)
    try:
        if args.trace:
            execute(ctx)
            untraced_wall = sum(ctx.top_spans)
            print(f"untraced half: wall {untraced_wall:.4f} s over {len(ctx.top_spans)} spans")
            # Fresh stores and fabric dirs: the traced half must run cold too.
            ctx.work = ctx.base_work / "traced"
            ctx.trace_dir = ctx.work / "trace"
            ctx.trace_dir.mkdir(parents=True)
            ctx.traced = True
            ctx.processes, ctx.ops, ctx.top_spans, ctx.http_s = [], [], [], 0.0
            execute(ctx)
            metrics = layer_metrics(ctx, untraced_wall)
            print(f"traced half: wall {metrics['traced_wall_s']:.4f} s over {len(ctx.top_spans)} spans")
        else:
            execute(ctx)
            ctx.metric("peak_rss_mb", peak_rss_mb(), "MB")
        if args.seed == DEFAULT_SEED or args.record_reference:
            check_reference(ctx, args.reference, args.record_reference)
    finally:
        ctx.stop_all()
        shutil.rmtree(ctx.base_work, ignore_errors=True)
        try:
            ctx.base_work.parent.rmdir()
        except OSError:
            pass
    attempted = len(ctx.ops)
    failed = sum(1 for op in ctx.ops if not op["ok"])
    for op in ctx.ops:
        if not op["ok"]:
            print(f"failed op {op['kind']}: {op['error']}")
    ctx.metric("failed_ratio", failed / max(1, attempted), "ratio")
    for problem in ctx.problems:
        print(f"WRONG: {problem}")
    if args.trace:
        output = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
        for name, (value, unit) in sorted(ctx.named.items()):
            if name not in output:
                print(f"metric {name} = {value:.6g} {unit}")
    else:
        for name, (value, unit) in sorted(ctx.named.items()):
            print(f"metric {name} = {value:.6g} {unit}")
        missing = [name for name in END_TO_END if name not in ctx.named]
        if missing:
            print(f"missing end-to-end metrics {missing}", file=sys.stderr)
            return 1
        output = {
            name: {"value": ctx.named[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    correct = not ctx.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": output}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
