"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — list the reproduced experiments (E1–E12);
* ``info E4``                   — show one experiment's claim and modules;
* ``elect --topology complete`` — run a paired leader election and print the
                                  result; ``elect le-ring/lcr --topology
                                  cycle -n 1000000`` runs a single registered
                                  protocol on any topology family instead;
* ``agree``                     — run quantum vs classical agreement;
* ``sweep --experiment E1``     — run an experiment's scenario pair across
                                  its size grid, trials fanned over cores
                                  (``--engine fast|reference`` picks the
                                  backend; per-size results are cached under
                                  ``benchmarks/results/cache/`` unless
                                  ``--no-cache``);
* ``worker DIR``                — join a distributed sweep fleet: pull
                                  shards from the fabric queue directory
                                  under heartbeat leases, push results into
                                  its content-addressed store;
* ``fabric status DIR``         — inspect a fabric job (shards done/leased/
                                  pending, live workers, elected reaper);
* ``scenarios``                 — list the scenario catalogue (``--json``
                                  for a machine-readable dump);
* ``protocols``                 — list the protocol registry with its
                                  capability tags (``--json`` for tooling);
* ``cache list|stats|clear``    — inspect or empty the on-disk result cache;
* ``profile --scenario S``      — run a scenario with phase profiling forced
                                  on and print the wall-time breakdown
                                  (engine.step/gather/deliver, fabric
                                  serialize/claim/execute/save);
* ``trace validate FILE...``    — check JSONL trace files against the
                                  versioned trace schema;
* ``routing-demo``              — the Appendix-A superposed-send demo.

``elect``, ``agree``, and ``sweep`` accept ``--node-api {auto,batch,scalar}``
selecting the engine dispatch for protocols that declare the ``batch``
capability: ``auto`` (the default) runs the array-native
:class:`~repro.network.batch.BatchProtocol` implementation when one
exists, ``scalar`` forces the legacy per-node path, and ``batch``
requires the array-native path (an error for scalar-only protocols).
Both paths are bit-identical under the same seeds and adversary specs.

The same three commands accept ``--kernel {auto,numba,numpy}`` (env
``REPRO_KERNEL``) selecting the compiled-kernel tier behind the batch
engine's PortTable gathers: ``auto`` uses numba when importable, ``numpy``
is the always-available bit-identical fallback, and an explicit ``numba``
errors out when numba is missing rather than silently degrading.  The
kernel tier never changes results, so it is deliberately excluded from
result-cache keys.

``sweep`` additionally accepts ``--fabric DIR --workers N``: instead of
the in-process pool, the grid is laid out as shards in a work-queue
directory and executed by N local worker processes (remote hosts sharing
the directory join with ``repro worker DIR``).  Aggregates are
bit-identical to any ``--jobs`` value; an injected or real worker crash
mid-shard is resumed via lease expiry (``--inject-kill W@T`` is the
fault-injection harness CI uses to prove it).

``elect``, ``agree``, and ``sweep`` accept adversary flags (``--drop-rate``,
``--crash N[@R]``, and the full ``--adversary`` spec grammar of
:meth:`repro.adversary.AdversarySpec.parse`) for deterministic
fault-injected runs; results then carry fault accounting and cache under
adversary-aware keys.

``elect``, ``agree``, ``sweep``, and ``worker`` accept the telemetry
flags ``--trace FILE`` (append versioned JSONL span/event records; pool
and fabric workers inherit via ``REPRO_TRACE`` and append to the same
file) and ``--profile`` (phase wall-time breakdowns in the run meta via
``REPRO_PROFILE``).  Telemetry never draws from run RNG streams: traced
or profiled runs are bit-identical to bare ones.  The root-level
``--log-level`` flag turns on structured (logfmt) ``logging`` output
for the fabric's worker/coordinator loggers.

Protocol dispatch goes through :mod:`repro.runtime`: the registry resolves
protocols by name and the scenario layer binds topologies, so the CLI holds
no per-protocol wiring of its own.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.analysis.experiments import EXPERIMENTS, get_experiment

__all__ = ["build_parser", "main"]


def _apply_engine(engine: str | None) -> None:
    """Select the engine backend process-wide (workers inherit the env)."""
    if engine is not None:
        os.environ["REPRO_ENGINE"] = engine


def _apply_kernel(kernel: str | None) -> str:
    """Select the kernel tier process-wide; returns the resolved tier.

    Raises RuntimeError for an explicit ``numba`` request when numba is
    not installed — an explicit request never silently degrades.
    """
    from repro.network.kernels import resolve_kernel

    resolved = resolve_kernel(kernel)
    # Only export after a successful resolve: a rejected explicit request
    # must not poison the process-wide default for later commands.
    if kernel is not None:
        os.environ["REPRO_KERNEL"] = kernel
    return resolved


def _adversary_from_args(args):
    """Merge ``--adversary`` / ``--drop-rate`` / ``--crash`` into one spec.

    Returns None when no adversary flag was given at all.  When flags were
    given, returns the merged spec *even if null* — an explicit
    ``--drop-rate 0`` or ``--adversary none`` is a request for the
    fault-free baseline, which on a catalogue fault scenario means
    stripping its built-in adversary.  Shorthand flags override the spec
    string's fields.
    """
    from repro.adversary import AdversarySpec

    text = getattr(args, "adversary", None)
    drop_rate = getattr(args, "drop_rate", None)
    crash = getattr(args, "crash", None)
    adaptive = getattr(args, "adaptive", None)
    eavesdrop = getattr(args, "eavesdrop", None)
    if (
        text is None
        and drop_rate is None
        and crash is None
        and adaptive is None
        and eavesdrop is None
    ):
        return None
    spec = AdversarySpec.parse(text)
    updates: dict = {}
    if drop_rate is not None:
        updates["drop_rate"] = drop_rate
    if crash is not None:
        count, _, by = crash.partition("@")
        updates["crash_count"] = int(count)
        if by:
            updates["crash_by"] = int(by)
    if adaptive is not None:
        updates["adaptive"] = adaptive
    if eavesdrop is not None:
        updates.update(AdversarySpec.parse_eavesdrop(eavesdrop))
    if updates:
        spec = spec.with_updates(**updates)
    return spec


def _add_node_api_flag(parser) -> None:
    parser.add_argument(
        "--node-api",
        choices=("auto", "batch", "scalar"),
        default="auto",
        help="engine dispatch for batch-capable protocols: array-native "
        "'batch', legacy per-node 'scalar', or 'auto' (batch when "
        "available; both are bit-identical)",
    )


def _add_kernel_flag(parser) -> None:
    parser.add_argument(
        "--kernel",
        choices=("auto", "numba", "numpy"),
        default=None,
        help="kernel tier for the engine's array primitives: 'numba' "
        "requires the optional numba dependency, 'numpy' is the "
        "always-available bit-identical fallback, 'auto' (default, or "
        "the REPRO_KERNEL env var) picks numba when installed",
    )


def _add_adversary_flags(parser) -> None:
    parser.add_argument(
        "--drop-rate",
        type=float,
        default=None,
        help="adversary: drop each sent message with this probability",
    )
    parser.add_argument(
        "--crash",
        default=None,
        metavar="N[@R]",
        help="adversary: crash-stop N random nodes before rounds < R "
        "(default R=1: before the first round)",
    )
    from repro.adversary import ADAPTIVE_STRATEGIES

    parser.add_argument(
        "--adaptive",
        choices=ADAPTIVE_STRATEGIES,
        default=None,
        help="adversary: traffic-conditioned strategy (fault decisions "
        "react to observed per-round sends; see also adaptive-rate=/"
        "adaptive-after= in --adversary)",
    )
    parser.add_argument(
        "--eavesdrop",
        default=None,
        metavar="RATE|S:P[+S:P...]",
        help="adversary: tap each directed edge with probability RATE (or "
        "tap exactly the listed sender:port edges); security ledger lands "
        "in result meta, eavesdrop-drop= in --adversary intercepts",
    )
    parser.add_argument(
        "--adversary",
        default=None,
        metavar="SPEC",
        help="full adversary spec, e.g. 'drop=0.1,delay=0.05,dup=0.01,"
        "crash=2@4,input=tie,adaptive=target-leader,eavesdrop=0.2,"
        "eavesdrop-drop=0.5,seed=7'",
    )

def _add_telemetry_flags(parser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="append JSONL span/event records (run/trial/round, faults, "
        "fabric leases) to FILE; workers inherit via REPRO_TRACE and "
        "append atomically to the same file; never changes results",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect phase wall-time breakdowns (engine step/gather/"
        "deliver, fabric serialize/claim/execute/save) into the run "
        "meta via REPRO_PROFILE; never changes results",
    )


def _apply_telemetry(args) -> None:
    """Export ``--trace``/``--profile`` process-wide (workers inherit)."""
    trace = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    if trace is None and not profile:
        return
    from repro.telemetry import set_profiling, set_trace_path

    if trace is not None:
        set_trace_path(trace)
    if profile:
        set_profiling(True)


#: elect topology → (quantum protocol, classical protocol, topology family,
#: topology params).  One table, no if/elif chain.
ELECT_SETUPS: dict[str, tuple[str, str, str, tuple]] = {
    "complete": ("le-complete/quantum", "le-complete/classical", "complete", ()),
    "hypercube": ("le-mixing/quantum", "le-mixing/classical", "hypercube", ()),
    "diameter2": (
        "le-diameter2/quantum", "le-diameter2/classical", "diameter2-gnp", (),
    ),
    "general": (
        "le-general/quantum", "le-general/classical", "erdos-renyi", (("p", 0.1),),
    ),
}

#: Per-side parameter overrides keyed by (topology, side); values that
#: depend on n are computed in the handler.  The diameter-2 row relaxes the
#: failure budgets to 1/8 (the benchmarks' constant-α convention) so a
#: single interactive run stays fast.
_ELECT_SIDE_PARAMS: dict[tuple[str, str], dict] = {
    ("diameter2", "quantum"): {"alpha": 1 / 8, "inner_alpha": 1 / 8},
    ("general", "quantum"): {"alpha": 1 / 8},
}

TOPOLOGIES = tuple(ELECT_SETUPS)


def _cmd_list(_args) -> int:
    width = max(len(e.paper_result) for e in EXPERIMENTS.values())
    for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:])):
        experiment = EXPERIMENTS[key]
        print(f"{key:>4}  {experiment.paper_result:<{width}}  {experiment.bench}")
    return 0


def _cmd_info(args) -> int:
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    print(f"{experiment.id} — {experiment.paper_result}")
    print(f"\n{experiment.claim}\n")
    if experiment.quantum_exponent is not None:
        print(f"quantum exponent  : {experiment.quantum_exponent:.3f}")
    if experiment.classical_exponent is not None:
        print(f"classical exponent: {experiment.classical_exponent:.3f}")
    print("modules           : " + ", ".join(experiment.modules))
    print(f"benchmark         : {experiment.bench}")
    return 0


def _cmd_elect_single(args) -> int:
    """Single-protocol elect: any registered protocol on any family.

    The million-node path: ``repro elect le-ring/lcr --topology cycle
    -n 1000000 --kernel auto`` runs one protocol without the paired
    quantum/classical comparison (and without materializing edges on
    arithmetic port-table families).
    """
    from repro.runtime import TopologySpec, default_registry
    from repro.runtime.scenario import TOPOLOGY_FAMILIES
    from repro.util.rng import RandomSource

    registry = default_registry()
    try:
        spec = registry.get(args.protocol)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    family = args.topology or spec.topologies[0]
    if family not in TOPOLOGY_FAMILIES:
        print(
            f"unknown topology family {family!r}; available: "
            f"{sorted(TOPOLOGY_FAMILIES)}",
            file=sys.stderr,
        )
        return 2

    params: dict = {}
    try:
        adversary = _adversary_from_args(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if adversary is not None and adversary.is_null:
        adversary = None
    if adversary is not None:
        missing = adversary.required_capabilities() - set(spec.supports)
        if missing:
            print(
                f"protocol {spec.name!r} does not support adversary "
                f"capabilities {sorted(missing)}",
                file=sys.stderr,
            )
            return 2
        params["adversary"] = adversary
    try:
        resolved_api = spec.resolve_node_api(args.node_api)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if "batch" in spec.supports:
        params["node_api"] = resolved_api

    rng = RandomSource(args.seed)
    topo_spec = TopologySpec(family)
    if topo_spec.consumes_trial_rng:
        topology = topo_spec.build(args.n, rng.spawn())
    else:
        topology = topo_spec.build(args.n)
    outcome = spec.run(topology, rng.spawn(), **params)
    kernel = os.environ.get("REPRO_KERNEL", "auto")
    print(
        f"{spec.name} on {family}, n={topology.n} "
        f"(node-api {resolved_api}, kernel {kernel})"
    )
    detail = " ".join(
        f"{key}={value}" for key, value in sorted(outcome.detail.items())
    )
    print(
        f"  messages={int(outcome.messages):,} rounds={int(outcome.rounds):,} "
        f"success={outcome.success}" + (f" {detail}" if detail else "")
    )
    return 0 if outcome.success else 1


def _cmd_elect(args) -> int:
    from repro.runtime import TopologySpec, default_registry
    from repro.util.rng import RandomSource

    _apply_engine(args.engine)
    _apply_telemetry(args)
    try:
        _apply_kernel(args.kernel)
    except (RuntimeError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.protocol is not None:
        return _cmd_elect_single(args)
    if args.topology is not None and args.topology not in ELECT_SETUPS:
        print(
            f"paired elect does not support --topology {args.topology!r}: "
            f"choose one of {sorted(ELECT_SETUPS)}; "
            f"other families need an explicit protocol argument "
            f"(e.g. repro elect le-ring/lcr --topology cycle)",
            file=sys.stderr,
        )
        return 2
    registry = default_registry()
    topology_key = args.topology or "complete"
    quantum_name, classical_name, family, topo_params = ELECT_SETUPS[topology_key]
    rng = RandomSource(args.seed)

    quantum_params = dict(_ELECT_SIDE_PARAMS.get((topology_key, "quantum"), {}))
    classical_params = dict(_ELECT_SIDE_PARAMS.get((topology_key, "classical"), {}))

    try:
        adversary = _adversary_from_args(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if adversary is not None and adversary.is_null:
        adversary = None  # elect has no catalogue adversary to strip
    if adversary is not None:
        classical_spec = registry.get(classical_name)
        missing = adversary.required_capabilities() - set(classical_spec.supports)
        if missing:
            print(
                f"protocol {classical_name!r} does not support adversary "
                f"capabilities {sorted(missing)}",
                file=sys.stderr,
            )
            return 2
        classical_params["adversary"] = adversary
        print(
            f"adversary [{adversary.describe()}] armed on the engine-driven "
            f"classical side (the quantum protocol runs fault-free)",
            file=sys.stderr,
        )

    classical_spec = registry.get(classical_name)
    try:
        resolved_api = classical_spec.resolve_node_api(args.node_api)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if "batch" in classical_spec.supports:
        classical_params["node_api"] = resolved_api

    spec = TopologySpec(family, topo_params)
    if spec.consumes_trial_rng:
        topology = spec.build(args.n, rng.spawn())
    else:
        topology = spec.build(args.n)
    n = topology.n
    if topology_key == "hypercube":
        if n != args.n:
            print(
                f"warning: hypercube rounds --n up to a power of two "
                f"({args.n} -> {n})",
                file=sys.stderr,
            )
        # Nodes know the mixing-time bound τ = 2d on a d-dimensional cube.
        quantum_params["tau"] = classical_params["tau"] = 2 * (n.bit_length() - 1)

    quantum = registry.get(quantum_name).run(topology, rng.spawn(), **quantum_params)
    classical = registry.get(classical_name).run(
        topology, rng.spawn(), **classical_params
    )

    print(f"leader election on {topology_key}, n={n}")
    for label, outcome in (("quantum  ", quantum), ("classical", classical)):
        print(
            f"  {label}: leader={outcome.detail.get('leader')} "
            f"messages={int(outcome.messages):,} "
            f"rounds={int(outcome.rounds):,} success={outcome.success}"
        )
    return 0 if quantum.success and classical.success else 1


def _cmd_agree(args) -> int:
    from repro.network.topology import CompleteTopology
    from repro.runtime import default_registry
    from repro.util.rng import RandomSource

    _apply_telemetry(args)
    try:
        _apply_kernel(args.kernel)
    except (RuntimeError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    registry = default_registry()
    rng = RandomSource(args.seed)
    topology = CompleteTopology(args.n)
    try:
        adversary = _adversary_from_args(args)
        if adversary is not None and adversary.is_null:
            adversary = None  # agree has no catalogue adversary to strip
        engine_caps: set = set()
        if adversary is not None:
            # Input schedules apply to every row; engine-level fault and
            # adaptive capabilities only make sense on the engine-driven
            # AMP18 row (the analytic rows exchange no real messages).
            engine_caps = adversary.required_capabilities() - {"inputs"}
            if engine_caps:
                engine_supports = set(
                    registry.get("agreement/amp18-engine").supports
                )
                missing = engine_caps - engine_supports
                if missing:
                    raise ValueError(
                        f"agreement/amp18-engine does not support adversary "
                        f"capabilities {sorted(missing)} "
                        f"(supports: {sorted(engine_supports)})"
                    )
                if args.n < 3:
                    raise ValueError(
                        f"adversary capabilities {sorted(engine_caps)} arm "
                        f"the engine-driven row, which needs n >= 3"
                    )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    side_params = {"fraction": args.fraction}
    if adversary is not None and engine_caps:
        # Analytic rows only see the input-schedule projection of the spec.
        from repro.adversary import AdversarySpec

        input_only = AdversarySpec(
            input_schedule=adversary.input_schedule,
            flip_fraction=adversary.flip_fraction,
            seed=adversary.seed,
        )
        if not input_only.is_null:
            side_params["adversary"] = input_only
        print(
            f"adversary capabilities {sorted(engine_caps)} armed on the "
            f"engine-driven row only (analytic rows exchange no real "
            f"messages)",
            file=sys.stderr,
        )
    elif adversary is not None:
        side_params["adversary"] = adversary
    quantum = registry.get("agreement/quantum").run(
        topology, rng.spawn(), **side_params
    )
    classical = registry.get("agreement/classical-shared").run(
        topology, rng.spawn(), **side_params
    )
    # Third row: the engine-driven AMP18 realization (real CONGEST
    # messages), dispatched through the requested node API.  It needs a
    # ring of successors to inform, so the degenerate K_2 (which the
    # analytical rows accept) simply omits the row.
    rows = [("quantum  ", quantum), ("classical", classical)]
    if args.n >= 3:
        engine_spec = registry.get("agreement/amp18-engine")
        engine_params = dict(side_params)
        if adversary is not None:
            engine_params["adversary"] = adversary
        engine_params["node_api"] = engine_spec.resolve_node_api(args.node_api)
        engine_side = engine_spec.run(topology, rng.spawn(), **engine_params)
        rows.append((f"engine[{engine_params['node_api']}]", engine_side))
    ones = int(args.fraction * args.n)
    suffix = f", adversary [{adversary.describe()}]" if adversary is not None else ""
    print(f"implicit agreement on K_{args.n} ({ones} benign ones{suffix})")
    for label, outcome in rows:
        print(
            f"  {label}: value={outcome.detail.get('value')} "
            f"messages={int(outcome.messages):,} valid={outcome.success}"
        )
    return 0 if all(outcome.success for _, outcome in rows) else 1


def _parse_sizes(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise ValueError("--sizes must name at least one size")
    return sizes


def _parse_inject_kill(text: str | None) -> dict:
    """``W@T`` → {worker index: FaultPlan(kill after T trials)}."""
    if text is None:
        return {}
    from repro.fabric import FaultPlan

    worker, _, trials = text.partition("@")
    try:
        return {int(worker): FaultPlan(kill_after_trials=int(trials or 1))}
    except ValueError:
        raise ValueError(
            f"--inject-kill must be W[@T] (worker index, trials before "
            f"SIGKILL), got {text!r}"
        ) from None


def _cmd_sweep(args) -> int:
    from repro.analysis.fitting import fit_power_law
    from repro.analysis.tables import comparison_table, render_table
    from repro.runtime import ResultStore, experiment_pair, get_scenario, run_scenario

    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials < 1:
        print(f"--trials must be >= 1, got {args.trials}", file=sys.stderr)
        return 2
    if args.fabric is None and (
        args.workers is not None or args.inject_kill is not None
    ):
        print(
            "--workers/--inject-kill configure the fabric executor and "
            "need --fabric DIR",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        sizes = _parse_sizes(args.sizes)
        adversary = _adversary_from_args(args)
        fault_plans = _parse_inject_kill(args.inject_kill)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    _apply_engine(args.engine)
    _apply_telemetry(args)
    try:
        _apply_kernel(args.kernel)
    except (RuntimeError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.no_cache:
        # Disable both caches: the on-disk result store and the per-worker
        # topology memo (workers read the env).
        os.environ["REPRO_NO_TOPOLOGY_CACHE"] = "1"
        store = None
    else:
        store = ResultStore()
    overrides = dict(sizes=sizes, trials=args.trials, store=store)
    jobs = args.jobs
    if args.fabric is not None:
        jobs = args.workers if args.workers is not None else args.jobs
        fabric_options: dict = {"fault_plans": fault_plans}
        if args.lease_ttl is not None:
            fabric_options["lease_ttl"] = args.lease_ttl
        overrides.update(executor="fabric", fabric_options=fabric_options)

    if (args.experiment is None) == (args.scenario is None):
        print("sweep needs exactly one of --experiment or --scenario", file=sys.stderr)
        return 2

    if args.experiment is not None:
        try:
            quantum_scenario, classical_scenario = experiment_pair(args.experiment)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        if args.node_api != "auto":
            # Like adversary arming: an explicit batch request applies to
            # the sides that have an array-native implementation; scalar
            # applies everywhere.
            from repro.runtime import default_registry

            registry = default_registry()
            sides = {"quantum": quantum_scenario, "classical": classical_scenario}
            skipped = []
            for label, side_scenario in sides.items():
                supports = registry.get(side_scenario.protocol).supports
                if args.node_api == "batch" and "batch" not in supports:
                    skipped.append(label)
                else:
                    sides[label] = side_scenario.with_overrides(
                        node_api=args.node_api
                    )
            if args.node_api == "batch" and len(skipped) == 2:
                print(
                    f"neither side of {args.experiment} has an array-native "
                    f"implementation (--node-api batch)",
                    file=sys.stderr,
                )
                return 2
            if skipped:
                print(
                    f"--node-api batch applies to the "
                    f"{' and '.join(sorted(set(sides) - set(skipped)))} side "
                    f"only ({' and '.join(skipped)} stays scalar)",
                    file=sys.stderr,
                )
            quantum_scenario = sides["quantum"]
            classical_scenario = sides["classical"]
        if adversary is not None and adversary.is_null:
            # Explicit fault-free baseline: strip any catalogue adversary.
            quantum_scenario = quantum_scenario.with_overrides(adversary=None)
            classical_scenario = classical_scenario.with_overrides(adversary=None)
        elif adversary is not None:
            # Arm each side only where the protocol supports the spec (the
            # quantum protocols are not engine-driven, so e.g. --drop-rate
            # on E1 applies to the classical side alone, as in `elect`).
            from repro.runtime import default_registry

            registry = default_registry()
            armed_sides = []
            unarmed_sides = []
            sides = {"quantum": quantum_scenario, "classical": classical_scenario}
            for label, side_scenario in sides.items():
                supports = set(registry.get(side_scenario.protocol).supports)
                if adversary.required_capabilities() <= supports:
                    sides[label] = side_scenario.with_overrides(adversary=adversary)
                    armed_sides.append(label)
                else:
                    unarmed_sides.append(label)
            if not armed_sides:
                print(
                    f"neither side of {args.experiment} supports adversary "
                    f"capabilities {sorted(adversary.required_capabilities())}",
                    file=sys.stderr,
                )
                return 2
            if unarmed_sides:
                print(
                    f"adversary [{adversary.describe()}] armed on the "
                    f"{' and '.join(armed_sides)} side only "
                    f"({' and '.join(unarmed_sides)} runs fault-free)",
                    file=sys.stderr,
                )
            quantum_scenario = sides["quantum"]
            classical_scenario = sides["classical"]
        # Independent seeds per side (the catalogue convention: the classical
        # series must not share the quantum series' RNG streams).
        quantum_seed = args.seed
        classical_seed = None if args.seed is None else args.seed + 1
        quantum_kwargs = dict(overrides)
        classical_kwargs = dict(overrides)
        if args.fabric is not None:
            # One queue directory carries one job: the pair gets subdirs.
            base = pathlib.Path(args.fabric)
            quantum_kwargs["fabric_dir"] = base / "quantum"
            classical_kwargs["fabric_dir"] = base / "classical"
        try:
            quantum = run_scenario(
                quantum_scenario, jobs=jobs, seed=quantum_seed, **quantum_kwargs
            )
            classical = run_scenario(
                classical_scenario, jobs=jobs, seed=classical_seed, **classical_kwargs
            )
        except (ValueError, RuntimeError) as error:
            print(error, file=sys.stderr)
            return 2
        q_series = quantum.to_series("quantum")
        c_series = classical.to_series("classical")
        print(
            comparison_table(
                q_series,
                c_series,
                title=f"{args.experiment} — {quantum_scenario.name} vs "
                f"{classical_scenario.name}",
            )
        )
        if len(q_series.sizes) >= 2:
            q_fit = fit_power_law(q_series.sizes, q_series.messages)
            c_fit = fit_power_law(c_series.sizes, c_series.messages)
            print(f"quantum  : measured {q_fit}")
            print(f"classical: measured {c_fit}")
        print(
            f"success rates: quantum {quantum.overall_success_rate():.2f}, "
            f"classical {classical.overall_success_rate():.2f}"
        )
        return 0

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    if adversary is not None:
        scenario = scenario.with_overrides(adversary=adversary)
    if args.node_api != "auto":
        scenario = scenario.with_overrides(node_api=args.node_api)
    if args.fabric is not None:
        overrides["fabric_dir"] = args.fabric
    try:
        run = run_scenario(scenario, jobs=jobs, seed=args.seed, **overrides)
    except (ValueError, RuntimeError) as error:
        print(error, file=sys.stderr)
        return 2
    rows = [
        [
            str(ts.n),
            f"{ts.messages_mean:,.1f}",
            f"{ts.messages_p50:,.0f}",
            f"{ts.messages_p90:,.0f}",
            f"{ts.rounds_mean:,.1f}",
            f"{ts.success_rate:.2f}",
        ]
        for ts in run.trial_sets
    ]
    adversary_note = (
        f", adversary [{scenario.adversary.describe()}]"
        if scenario.adversary is not None
        else ""
    )
    api_note = (
        f", node-api {scenario.resolved_node_api}"
        if scenario.resolved_node_api != "scalar"
        else ""
    )
    print(
        render_table(
            ["n", "msgs mean", "p50", "p90", "rounds", "success"],
            rows,
            title=f"{scenario.name} ({scenario.protocol} on "
            f"{scenario.topology.family}, {run.trial_sets[0].trials} "
            f"trials/size{adversary_note}{api_note})",
        )
    )
    if len(run.sizes) >= 2:
        print(f"fit: {fit_power_law(run.sizes, run.messages)}")
    return 0


def _cmd_worker(args) -> int:
    from repro.fabric import FaultPlan, run_worker

    _apply_telemetry(args)
    fault_plan = None
    if args.inject_kill_after is not None:
        fault_plan = FaultPlan(kill_after_trials=args.inject_kill_after)
    try:
        summary = run_worker(
            args.dir,
            worker_id=args.id,
            poll=args.poll,
            max_shards=args.max_shards,
            fault_plan=fault_plan,
        )
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    print(
        f"worker {summary['worker']}: completed {len(summary['completed'])} "
        f"shard(s), {summary['trials']} trial(s); job "
        f"{'done' if summary['all_done'] else 'still has pending shards'}"
    )
    return 0


def _render_fabric_status(status) -> None:
    shards = status["shards"]
    workers = status["workers"]
    print(f"fabric job at {status['root']}")
    print(
        f"  scenario : {status['scenario']} ({status['protocol']}, sizes "
        f"{status['sizes']}, {status['trials']} trials/size)"
    )
    print(
        f"  shards   : {shards['done']} done, {shards['leased']} leased, "
        f"{shards['pending']} pending of {shards['total']}"
    )
    for lease in status["leases"]:
        owner = lease["worker"] or "?"
        age = "?" if lease["age"] is None else f"{lease['age']:.1f}s"
        print(f"    {lease['shard']}: {lease['state']} by {owner} (age {age})")
    live = ", ".join(workers["live"]) or "none"
    print(
        f"  workers  : {len(workers['live'])} live of "
        f"{len(workers['registered'])} registered ({live})"
    )
    for row in workers.get("detail", []):
        state = "live" if row["live"] else "stale"
        counters = row.get("counters") or {}
        if row.get("trials_per_min") is None:
            # mtime-only heartbeat (legacy worker): no counters to rate.
            rates = "no counters"
        else:
            rates = (
                f"{counters.get('shards_completed', 0)} shards / "
                f"{counters.get('trials_executed', 0)} trials "
                f"({row['shards_per_min']:.1f} shards/min, "
                f"{row['trials_per_min']:.1f} trials/min)"
            )
        age = "?" if row.get("age") is None else f"{row['age']:.1f}s"
        print(f"    {row['worker']}: {state}, {rates}, heartbeat {age} ago")
    print(f"  reaper   : {status['reaper'] or 'none (no live workers)'}")


def _cmd_fabric(args) -> int:
    import json as json_module
    import time as time_module

    from repro.fabric import fabric_status

    watch = getattr(args, "watch", False)
    while True:
        try:
            status = fabric_status(args.dir)
        except FileNotFoundError as error:
            print(error, file=sys.stderr)
            return 2
        if args.json:
            print(json_module.dumps(status, indent=2, sort_keys=True))
        else:
            if watch:
                print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
            _render_fabric_status(status)
        shards = status["shards"]
        if not watch or (shards["pending"] == 0 and shards["leased"] == 0):
            return 0
        time_module.sleep(args.interval)


def _cmd_serve(args) -> int:
    _apply_engine(args.engine)
    _apply_telemetry(args)
    try:
        _apply_kernel(args.kernel)
    except (ValueError, RuntimeError) as error:
        print(error, file=sys.stderr)
        return 2
    from repro.runtime import ResultStore
    from repro.serve import ServeApp, serve_forever

    store = ResultStore(
        root=args.store, memory_entries=args.store_memory
    )
    app = ServeApp(
        fabric_root=args.fabric_dir,
        store=store,
        workers=args.workers,
        max_jobs=args.max_jobs,
        lease_ttl=args.lease_ttl,
        run_memory=args.run_memory,
    )

    def ready(server) -> None:
        host, port = server.server_address[:2]
        print(
            f"repro serve listening on http://{host}:{port} "
            f"({args.workers} fabric workers/job, {args.max_jobs} "
            f"concurrent jobs, fabric {args.fabric_dir}, store {store.root})",
            flush=True,
        )

    serve_forever(app, host=args.host, port=args.port, ready_callback=ready)
    print(
        f"repro serve drained cleanly after {app.requests} request(s)",
        flush=True,
    )
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.telemetry import metrics_registry

    if (args.scenario is None) == (args.fabric is None):
        print(
            "metrics needs exactly one of --scenario or --fabric",
            file=sys.stderr,
        )
        return 2
    registry = metrics_registry()
    if args.scenario is not None:
        _apply_engine(args.engine)
        try:
            _apply_kernel(args.kernel)
            sizes = _parse_sizes(args.sizes)
        except (ValueError, RuntimeError) as error:
            print(error, file=sys.stderr)
            return 2
        from repro.runtime import get_scenario, run_scenario

        try:
            scenario = get_scenario(args.scenario)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        try:
            run_scenario(
                scenario,
                jobs=args.jobs,
                sizes=sizes,
                trials=args.trials,
                seed=args.seed,
                store=None,
            )
        except (ValueError, RuntimeError) as error:
            print(error, file=sys.stderr)
            return 2
    else:
        from repro.fabric import FabricQueue

        queue = FabricQueue(args.fabric)
        try:
            queue.manifest()
        except FileNotFoundError as error:
            print(error, file=sys.stderr)
            return 2
        # Fold the fleet's enriched heartbeat counters into registry
        # shape, so a finished (or running) fabric job exports through
        # the same Prometheus/JSON formatters a live process would.
        merged: dict[str, float] = {}
        for worker_id in queue.registered_workers():
            counters = (queue.worker_record(worker_id) or {}).get(
                "counters"
            ) or {}
            for key, value in counters.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        for key, value in sorted(merged.items()):
            registry.counter(
                f"repro_fabric_worker_{key}",
                help="summed from fabric worker heartbeat counters",
            ).inc(value)
        progress = queue.progress()
        registry.gauge("repro_fabric_shards_total").set(
            progress["shards"]["total"]
        )
        registry.gauge("repro_fabric_shards_done").set(
            progress["shards"]["done"]
        )
    if args.format == "json":
        print(json.dumps(registry.to_json(), indent=2, sort_keys=True))
    else:
        print(registry.to_prometheus(), end="")
    return 0


def _cmd_protocols(args) -> int:
    import json

    from repro.analysis.tables import render_table
    from repro.runtime import default_registry

    if getattr(args, "json", False):
        # The same payload `repro serve` answers on GET /v1/protocols.
        from repro.serve.api import protocols_payload

        print(json.dumps(protocols_payload(), indent=2))
        return 0
    rows = [
        [
            spec.name,
            spec.side,
            spec.family,
            ",".join(sorted(spec.supports)) or "-",
            spec.description,
        ]
        for spec in default_registry()
    ]
    print(render_table(["protocol", "side", "family", "supports", "claim"],
                       rows, title="registered protocols"))
    return 0


def _cmd_scenarios(args) -> int:
    import json

    from repro.analysis.tables import render_table
    from repro.runtime import SCENARIOS

    if args.protocols:
        return _cmd_protocols(args)
    if getattr(args, "json", False):
        # The same payload `repro serve` answers on GET /v1/scenarios.
        from repro.serve.api import scenarios_payload

        print(json.dumps(scenarios_payload(), indent=2))
        return 0
    rows = [
        [
            scenario.name,
            scenario.protocol,
            scenario.topology.family,
            ",".join(str(n) for n in scenario.sizes),
            str(scenario.trials),
            scenario.adversary.describe() if scenario.adversary else "-",
        ]
        for _, scenario in sorted(SCENARIOS.items())
    ]
    print(
        render_table(
            ["scenario", "protocol", "topology", "sizes", "trials", "adversary"],
            rows,
            title="scenario catalogue (run with: repro sweep --scenario <name>)",
        )
    )
    return 0


def _cmd_cache(args) -> int:
    import json

    from repro.analysis.tables import render_table
    from repro.runtime import ResultStore

    store = ResultStore()
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"root       : {stats['root']}")
        print(f"entries    : {stats['entries']}")
        print(f"bytes      : {stats['bytes']:,}")
        print(f"entry cap  : {stats['max_entries']:,}")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    # list: oldest writes first — the order eviction will take them in,
    # so the head of the listing is exactly what the cap claims next.
    paths = store.entries()
    shown = paths[: args.limit] if args.limit > 0 else paths
    rows = []
    for path in shown:
        try:
            size = f"{path.stat().st_size:,}"
            payload = json.loads(path.read_text())
            scenario = str(payload.get("scenario", "?"))
            n = str(payload.get("trial_set", {}).get("n", "?"))
            adversary = payload.get("identity", {}).get("adversary")
            fault = "yes" if adversary else "-"
        except (OSError, json.JSONDecodeError):
            scenario, n, fault, size = "<unreadable>", "?", "?", "?"
        rows.append([path.name, scenario, n, fault, size])
    if not rows:
        print(f"result cache at {store.root} is empty")
        return 0
    print(
        render_table(
            ["file", "scenario", "n", "adversary", "bytes"],
            rows,
            title=f"result cache ({len(paths)} entries, oldest/evicted-first, "
            f"showing {len(rows)})",
        )
    )
    return 0


def _cmd_profile(args) -> int:
    """Run one scenario with profiling forced on; print the phase table."""
    from repro.runtime import get_scenario, run_scenario
    from repro.telemetry import format_profile, set_profiling

    _apply_engine(args.engine)
    _apply_telemetry(args)
    set_profiling(True)
    try:
        _apply_kernel(args.kernel)
    except (RuntimeError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    try:
        sizes = _parse_sizes(args.sizes)
        scenario = get_scenario(args.scenario)
    except (KeyError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.node_api != "auto":
        scenario = scenario.with_overrides(node_api=args.node_api)
    try:
        # store=None: a cache hit executes nothing, which would profile
        # nothing — the profile command always computes.
        run = run_scenario(
            scenario,
            jobs=args.jobs,
            seed=args.seed,
            sizes=sizes,
            trials=args.trials,
            store=None,
        )
    except (ValueError, RuntimeError) as error:
        print(error, file=sys.stderr)
        return 2
    total_trials = sum(ts.trials for ts in run.trial_sets)
    print(
        f"phase profile: {scenario.name} ({scenario.protocol}), sizes "
        f"{list(run.sizes)}, {total_trials} trials"
    )
    print(format_profile(run.meta.get("profile", {})))
    return 0


def _cmd_trace(args) -> int:
    """Validate JSONL trace files against the versioned trace schema."""
    from repro.telemetry import TraceSchemaError, validate_file

    failures = 0
    for path in args.files:
        try:
            counts = validate_file(path)
        except OSError as error:
            print(error, file=sys.stderr)
            failures += 1
            continue
        except TraceSchemaError as error:
            print(f"invalid trace: {error}", file=sys.stderr)
            failures += 1
            continue
        total = sum(counts.values())
        detail = " ".join(
            f"{event}:{count}" for event, count in sorted(counts.items())
        )
        print(f"{path}: ok ({total} records) {detail}")
    return 2 if failures else 0


def _cmd_routing_demo(args) -> int:
    import math

    from repro.network import graphs
    from repro.quantum.routing import QuantumRoutingNetwork

    leaves = args.leaves
    network = QuantumRoutingNetwork(graphs.star(leaves + 1), alphabet_size=1)
    network.allocate_local(0, "ctl", max(leaves, 2))
    network.build()
    amplitude = 1.0 / math.sqrt(leaves)
    network.prepare_recipient_superposition(
        0, "ctl", {leaf: amplitude for leaf in range(1, leaves + 1)}
    )
    network.write_message_controlled(0, "ctl", symbol=1)
    print(
        f"superposed send to one of {leaves} leaves: message complexity = "
        f"{network.round_message_complexity()} (classical broadcast: {leaves})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Quantum Communication Advantage for "
        "Leader Election and Agreement' (PODC 2025).",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured (logfmt) logging at this level; fabric "
        "workers and the coordinator log joins, steals, completions, "
        "elections, and respawns",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list reproduced experiments").set_defaults(
        handler=_cmd_list
    )

    info = commands.add_parser("info", help="describe one experiment")
    info.add_argument("experiment", help="experiment id, e.g. E4")
    info.set_defaults(handler=_cmd_info)

    elect = commands.add_parser("elect", help="run a leader election")
    elect.add_argument(
        "protocol",
        nargs="?",
        default=None,
        help="optional registered protocol name (e.g. le-ring/lcr) for a "
        "single-protocol run on any topology family; omit for the paired "
        "quantum-vs-classical comparison",
    )
    elect.add_argument(
        "--topology",
        default=None,
        help=f"paired mode: one of {sorted(ELECT_SETUPS)} (default "
        f"complete); single-protocol mode: any topology family name "
        f"(e.g. cycle)",
    )
    elect.add_argument("-n", "--n", type=int, default=1024)
    elect.add_argument("--seed", type=int, default=0)
    elect.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="engine backend: vectorized 'fast' (default) or the "
        "'reference' oracle loop (both are trace-equivalent)",
    )
    _add_node_api_flag(elect)
    _add_kernel_flag(elect)
    _add_adversary_flags(elect)
    _add_telemetry_flags(elect)
    elect.set_defaults(handler=_cmd_elect)

    agree = commands.add_parser("agree", help="run implicit agreement")
    agree.add_argument("--n", type=int, default=4096)
    agree.add_argument("--fraction", type=float, default=0.3)
    agree.add_argument("--seed", type=int, default=0)
    _add_node_api_flag(agree)
    _add_kernel_flag(agree)
    _add_adversary_flags(agree)
    _add_telemetry_flags(agree)
    agree.set_defaults(handler=_cmd_agree)

    sweep = commands.add_parser(
        "sweep",
        help="run a scenario sweep with parallel trials",
        description="Run an experiment's scenario pair (or a single "
        "scenario) across its size grid.  Trials fan out over --jobs "
        "worker processes; per-size aggregates are cached on disk under "
        "benchmarks/results/cache/ so re-running or extending a grid only "
        "computes the missing sizes (disable with --no-cache).  Aggregates "
        "are bit-identical for any --jobs value and either --engine "
        "backend.",
    )
    sweep.add_argument("--experiment", help="experiment id with a scenario pair, e.g. E1")
    sweep.add_argument("--scenario", help="a single scenario name (see: scenarios)")
    sweep.add_argument("--sizes", help="comma-separated size grid override")
    sweep.add_argument("--trials", type=int, help="trials per size override")
    sweep.add_argument("--seed", type=int, help="scenario seed override")
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for trials (default: all cores)",
    )
    sweep.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="engine backend: vectorized 'fast' (default) or the "
        "'reference' oracle loop (both are trace-equivalent)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache and the per-worker topology "
        "memo; every trial recomputes from scratch",
    )
    sweep.add_argument(
        "--fabric",
        metavar="DIR",
        default=None,
        help="execute through the distributed work-queue fabric rooted at "
        "DIR instead of the in-process pool; remote hosts sharing DIR "
        "join with `repro worker DIR`",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="local fabric worker processes to spawn (with --fabric; "
        "default: --jobs resolution)",
    )
    sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="fabric lease heartbeat TTL in seconds (with --fabric)",
    )
    sweep.add_argument(
        "--inject-kill",
        metavar="W[@T]",
        default=None,
        help="fault-injection harness (with --fabric): SIGKILL local "
        "worker index W after T executed trials (default 1); the sweep "
        "must still resume to completion",
    )
    _add_node_api_flag(sweep)
    _add_kernel_flag(sweep)
    _add_adversary_flags(sweep)
    _add_telemetry_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    worker = commands.add_parser(
        "worker",
        help="join a distributed sweep fleet (fabric queue directory)",
        description="Pull shards from the fabric queue at DIR under "
        "heartbeat leases, execute their trials with the exact RNG "
        "streams the in-process runner derives, and push results into "
        "the job's content-addressed store.  Runs until the sweep is "
        "done (or --max-shards is hit).",
    )
    worker.add_argument("dir", help="fabric queue directory (shared)")
    worker.add_argument(
        "--id", default=None, help="worker id (default: <host>-<pid>)"
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between queue polls when no shard is claimable",
    )
    worker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="stop after completing this many shards",
    )
    worker.add_argument(
        "--inject-kill-after",
        type=int,
        default=None,
        metavar="T",
        help="fault injection: SIGKILL this worker after T executed trials",
    )
    _add_telemetry_flags(worker)
    worker.set_defaults(handler=_cmd_worker)

    fabric = commands.add_parser(
        "fabric", help="inspect a distributed sweep fabric job"
    )
    fabric_commands = fabric.add_subparsers(dest="fabric_command", required=True)
    fabric_status_parser = fabric_commands.add_parser(
        "status",
        help="shards done/leased/pending, live workers, elected reaper",
    )
    fabric_status_parser.add_argument("dir", help="fabric queue directory")
    fabric_status_parser.add_argument(
        "--json", action="store_true", help="machine-readable snapshot"
    )
    fabric_status_parser.add_argument(
        "--watch",
        action="store_true",
        help="refresh the snapshot every --interval seconds until the "
        "job has no pending or leased shards",
    )
    fabric_status_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch refreshes",
    )
    fabric_status_parser.set_defaults(handler=_cmd_fabric)

    serve = commands.add_parser(
        "serve",
        help="long-running HTTP scenario service with tiered caching",
        description="Serve the scenario runtime over HTTP: GET "
        "/v1/protocols and /v1/scenarios dump the catalogue, POST "
        "/v1/runs answers hot scenarios straight from the tiered result "
        "cache (in-process LRU over the on-disk store) and queues cold "
        "ones as single-flighted fabric jobs with a bounded worker "
        "fleet; GET /v1/runs/<id> polls, /v1/runs/<id>/events streams "
        "progress, /metrics exports Prometheus text, /healthz reports "
        "liveness.  SIGTERM drains gracefully: stop accepting, finish "
        "in-flight jobs, release leases.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0: pick a free one)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="fabric worker processes per cold job",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=2,
        help="cold jobs computing concurrently (further ones queue)",
    )
    serve.add_argument(
        "--fabric-dir",
        default="benchmarks/results/serve-fabric",
        metavar="DIR",
        help="root directory for the server's fabric job queues",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result store root (default: REPRO_RESULT_CACHE or the "
        "standard cache directory)",
    )
    serve.add_argument(
        "--store-memory",
        type=int,
        default=256,
        metavar="N",
        help="trial sets held in the store's in-process memory tier",
    )
    serve.add_argument(
        "--run-memory",
        type=int,
        default=128,
        metavar="N",
        help="assembled scenario runs held in the tier-1 LRU",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="fabric lease heartbeat TTL for serve-owned jobs (seconds)",
    )
    serve.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="engine backend for computed runs (workers inherit)",
    )
    _add_kernel_flag(serve)
    _add_telemetry_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    cache = commands.add_parser(
        "cache", help="inspect or empty the on-disk result cache"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_list = cache_commands.add_parser("list", help="list cache entries")
    cache_list.add_argument(
        "--limit",
        type=int,
        default=20,
        help="show at most this many oldest entries (0: all)",
    )
    cache_list.set_defaults(handler=_cmd_cache)
    cache_commands.add_parser(
        "stats", help="entry count / total size / cap"
    ).set_defaults(handler=_cmd_cache)
    cache_commands.add_parser(
        "clear", help="delete every cache entry"
    ).set_defaults(handler=_cmd_cache)

    scenarios = commands.add_parser(
        "scenarios", help="list the scenario catalogue / protocol registry"
    )
    scenarios.add_argument(
        "--protocols", action="store_true", help="list registered protocols instead"
    )
    scenarios.add_argument(
        "--json",
        action="store_true",
        help="machine-readable catalogue dump (adversary specs, node-api, "
        "grids) for tooling and CI",
    )
    scenarios.set_defaults(handler=_cmd_scenarios)

    protocols = commands.add_parser(
        "protocols", help="list the protocol registry with capability tags"
    )
    protocols.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry dump (supports tags, defaults, "
        "topologies) for tooling and CI",
    )
    protocols.set_defaults(handler=_cmd_protocols)

    profile = commands.add_parser(
        "profile",
        help="run a scenario with phase profiling and print the breakdown",
        description="Run one scenario from the catalogue with phase "
        "profiling forced on and print where the wall time went "
        "(engine.step/gather/deliver per dispatch path; fabric "
        "serialize/claim/execute/save when workers report in).  The "
        "result cache is bypassed so every trial actually executes; "
        "profiling never changes the computed aggregates.",
    )
    profile.add_argument(
        "--scenario", required=True, help="scenario name (see: scenarios)"
    )
    profile.add_argument("--sizes", help="comma-separated size grid override")
    profile.add_argument("--trials", type=int, help="trials per size override")
    profile.add_argument("--seed", type=int, help="scenario seed override")
    profile.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for trials (default: all cores; per-worker "
        "phase deltas are merged into the report)",
    )
    profile.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="engine backend to profile (reference paths report rounds "
        "but no per-phase split)",
    )
    _add_node_api_flag(profile)
    _add_kernel_flag(profile)
    profile.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="also append JSONL trace records to FILE while profiling",
    )
    profile.set_defaults(handler=_cmd_profile, profile=False)

    metrics = commands.add_parser(
        "metrics",
        help="run a scenario (or read a fabric job) and dump the registry",
        description="Export the telemetry metrics registry without "
        "standing up the server: --scenario runs one catalogue scenario "
        "in-process and dumps the counters/histograms it charged; "
        "--fabric folds a fabric job's worker heartbeat counters into "
        "registry shape instead.  --format picks Prometheus text "
        "(what `repro serve` answers on GET /metrics) or JSON.",
    )
    metrics.add_argument(
        "--scenario", default=None, help="scenario name (see: scenarios)"
    )
    metrics.add_argument(
        "--fabric",
        default=None,
        metavar="DIR",
        help="read a fabric job's worker counters instead of running",
    )
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format (default: Prometheus text exposition)",
    )
    metrics.add_argument("--sizes", help="comma-separated size grid override")
    metrics.add_argument("--trials", type=int, help="trials per size override")
    metrics.add_argument("--seed", type=int, help="scenario seed override")
    metrics.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for trials (default: all cores; per-worker "
        "registry deltas merge into the dump)",
    )
    metrics.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="engine backend for the scenario run",
    )
    _add_kernel_flag(metrics)
    metrics.set_defaults(handler=_cmd_metrics)

    trace = commands.add_parser(
        "trace", help="work with JSONL trace files"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_validate = trace_commands.add_parser(
        "validate",
        help="check trace files against the versioned record schema",
    )
    trace_validate.add_argument(
        "files", nargs="+", help="JSONL trace files (from --trace FILE)"
    )
    trace_validate.set_defaults(handler=_cmd_trace)

    demo = commands.add_parser("routing-demo", help="Appendix-A superposed send")
    demo.add_argument("--leaves", type=int, default=3)
    demo.set_defaults(handler=_cmd_routing_demo)

    return parser


def _repro_env() -> dict[str, str]:
    return {
        key: value for key, value in os.environ.items() if key.startswith("REPRO_")
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.telemetry import configure_logging

        configure_logging(args.log_level)
    # Handlers export their flags as REPRO_* env vars so forked workers
    # inherit them; restore the caller's values once the command returns,
    # so an in-process call leaves no setting behind for the next one.
    saved = _repro_env()
    try:
        return args.handler(args)
    finally:
        for key in _repro_env().keys() - saved.keys():
            del os.environ[key]
        os.environ.update(saved)
