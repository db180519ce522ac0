"""Structured JSONL tracing: versioned span/event records.

A tracer turns a run into an append-only timeline — one JSON object per
line — at run → trial → round granularity, plus adversary fault events
and fabric lease lifecycle events.  The design constraints, in order:

1. **Determinism is untouched.**  A tracer never draws from a run RNG
   stream and never feeds anything back into the protocol; a traced run
   is bit-identical to an untraced one (property-tested in
   ``tests/properties/test_trace_invariance_props.py``).
2. **Disabled overhead is ≈0.**  The :data:`NULL_TRACER` exposes
   ``enabled = False``; hot loops hoist that bool once and pay a single
   predicate per round.
3. **Multi-process safe.**  Records are written with one ``os.write``
   to an ``O_APPEND`` descriptor, so pool workers and fabric workers
   can interleave whole lines into a single file without locks (the
   same POSIX guarantee the fabric leans on for lease files).  The
   descriptor is reopened after ``fork`` via a pid check.

Every record carries ``v`` (schema version), ``event``, and ``ts``
(wall-clock epoch seconds — explicitly *not* a protocol input).  The
per-event required fields live in :data:`TRACE_EVENTS` and are enforced
by :func:`validate_record` / :func:`validate_file`, which CI runs over
every record emitted by the telemetry smoke leg.
"""

from __future__ import annotations

import json
import os
import time

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_EVENTS",
    "TraceSchemaError",
    "NullTracer",
    "NULL_TRACER",
    "JsonlTracer",
    "validate_record",
    "validate_file",
]

#: Bump when a record shape changes incompatibly; validators reject
#: records from other versions so downstream consumers fail loudly.
TRACE_SCHEMA_VERSION = 1

#: Event name → fields required beyond the envelope (v / event / ts).
#: Extra fields are allowed — the schema is a floor, not a ceiling.
TRACE_EVENTS: dict[str, tuple[str, ...]] = {
    # Scenario span (emitted by run_scenario, both pool and fabric).
    "run_start": ("scenario", "protocol", "sizes", "trials", "executor"),
    "run_end": ("scenario", "protocol", "positions", "from_cache"),
    # Trial span (pool workers and fabric shard execution).
    "trial_start": ("scenario", "protocol", "n", "position", "trial"),
    "trial_end": ("scenario", "protocol", "n", "position", "trial", "rounds", "messages"),
    # Engine span with per-round events (both engine run loops).
    "engine_start": ("label", "n", "path", "max_rounds"),
    "round": ("label", "round", "sent", "units", "dropped", "delayed", "duplicated"),
    "crash": ("label", "round", "node"),
    "engine_end": ("label", "rounds", "in_flight", "dropped_protocol", "dropped_adversary"),
    # Fabric worker lifecycle and lease events.
    "worker_start": ("worker", "fabric"),
    "shard_claim": ("worker", "shard", "mode"),
    "shard_done": ("worker", "shard", "trials"),
    "worker_exit": ("worker", "shards", "trials"),
    # Serve lifecycle and per-request events (repro serve).  Additive in
    # schema v1: validators from before these events would reject them,
    # but no existing record shape changed.
    "serve_start": ("host", "port"),
    "serve_request": ("method", "path", "status"),
    "serve_exit": ("requests",),
}

_INT_FIELDS = frozenset(
    {
        "n",
        "position",
        "trial",
        "trials",
        "round",
        "rounds",
        "max_rounds",
        "sent",
        "units",
        "dropped",
        "delayed",
        "duplicated",
        "node",
        "in_flight",
        "dropped_protocol",
        "dropped_adversary",
        "positions",
        "shards",
        "port",
        "status",
        "requests",
    }
)


class TraceSchemaError(ValueError):
    """A trace record does not conform to the published schema."""


class NullTracer:
    """The disabled tracer: a falsy ``enabled`` flag and no-op emits.

    Call sites hoist ``tracer.enabled`` before hot loops, so the null
    tracer's per-round cost is one branch on a local bool.
    """

    enabled = False
    path = None

    def emit(self, event: str, **fields) -> None:  # pragma: no cover - no-op
        pass

    def close(self) -> None:  # pragma: no cover - no-op
        pass


#: Shared singleton — tracers carry no per-run state when disabled.
NULL_TRACER = NullTracer()


def _json_default(value):
    # numpy scalars and Paths reach emit() from engine/fabric call sites.
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class JsonlTracer:
    """Appends one JSON record per line to ``path``.

    The file is opened lazily with ``O_APPEND`` and each record is a
    single ``os.write``, so concurrent writers (forked pool workers,
    fabric workers) interleave whole lines.  After a ``fork`` the child
    re-opens its own descriptor on first emit (pid check) rather than
    sharing the parent's file offset lock-free.
    """

    enabled = True

    def __init__(self, path):
        self.path = str(path)
        self._fd: int | None = None
        self._pid: int | None = None

    def _descriptor(self) -> int:
        pid = os.getpid()
        if self._fd is None or self._pid != pid:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._pid = pid
        return self._fd

    def emit(self, event: str, **fields) -> None:
        record = {"v": TRACE_SCHEMA_VERSION, "event": event, "ts": time.time()}
        record.update(fields)
        line = json.dumps(record, default=_json_default, separators=(",", ":"))
        os.write(self._descriptor(), (line + "\n").encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
        self._fd = None
        self._pid = None


def validate_record(record: dict) -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` conforms."""
    if not isinstance(record, dict):
        raise TraceSchemaError(f"record is not an object: {record!r}")
    version = record.get("v")
    if version != TRACE_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"schema version {version!r} != {TRACE_SCHEMA_VERSION}"
        )
    event = record.get("event")
    if event not in TRACE_EVENTS:
        raise TraceSchemaError(f"unknown event {event!r}")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)):
        raise TraceSchemaError(f"{event}: ts must be numeric, got {ts!r}")
    for field in TRACE_EVENTS[event]:
        if field not in record:
            raise TraceSchemaError(f"{event}: missing required field {field!r}")
        value = record[field]
        if field in _INT_FIELDS and not isinstance(value, int):
            raise TraceSchemaError(
                f"{event}: field {field!r} must be an int, got {value!r}"
            )


def validate_file(path) -> dict[str, int]:
    """Validate every line of a JSONL trace; return per-event counts.

    Raises :class:`TraceSchemaError` naming the first offending line.
    """
    counts: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                validate_record(record)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: {exc}") from exc
            counts[record["event"]] = counts.get(record["event"], 0) + 1
    return counts
