#!/usr/bin/env python3
"""Schema validator for the observability exports (no third-party deps).

Validates the JSON files produced by `h4d --metrics` / the bench harnesses'
`--metrics` flag, and optionally a `--trace` file against the Chrome Trace
Event Format subset the runtime emits. Accepted metrics schemas:

  h4d-metrics-v1        one run (CLI analyze/simulate)
  h4d-bench-metrics-v1  {figure, runs: [{label, metrics: <h4d-metrics-v1
                        or h4d-micro-v1>}]}
  h4d-micro-v1          flat {schema, <name>: <number>, ...} rows emitted by
                        the micro-benchmarks (bench/micro_common.hpp)
  h4d-jobs-v1           multi-tenant service export (`h4d serve/jobs
                        --jobs-metrics`): the "jobs" counter section,
                        per-tenant rows, merged meter/exec, per-job rows

Checks structure, types, and the internal invariants: per-filter meter
aggregates equal the sum over that filter's copies; for jobs exports the
accounting identity submitted = completed + rejected + shed + failed (with
rejected = rejected_queue_full + rejected_quota + rejected_deadline) plus
per-job rows consistent with the counters; and for runs that attached the
tail-tolerance layer, the "io_tail" section's hedge accounting
(hedges_won <= hedges_issued), per-node reads/breaches summing to the
globals, and typed eviction reasons ("failure" / "slow").

Usage: tools/check_metrics.py METRICS.json [...] [--trace TRACE.json ...]
Exit status: 0 when every file validates, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

ERRORS: list[str] = []


def err(path: str, msg: str) -> None:
    ERRORS.append(f"{path}: {msg}")


def require(cond: bool, path: str, msg: str) -> bool:
    if not cond:
        err(path, msg)
    return cond


TIMING_KEYS = (
    "busy_seconds",
    "blocked_input_seconds",
    "blocked_output_seconds",
    "enqueue_stall_seconds",
)

# Canonical WorkMeter counters (fs/meter.hpp kFieldNames). Every per-copy and
# per-filter meter object must carry all of them — a missing key means the
# C++ export and the meter struct have drifted apart.
REQUIRED_METER_KEYS = (
    "glcm_pair_updates",
    "feature_cells_scanned",
    "feature_cell_ops",
    "matrices_built",
    "sparse_entries_emitted",
    "sparse_compress_cells",
    "bytes_memcpy",
    "stitch_elements",
    "elements_quantized",
    "disk_bytes_read",
    "disk_seeks",
    "disk_bytes_written",
    "read_retries",
    "slices_skipped",
    "checksum_failures",
    "replica_failovers",
    "nodes_evicted",
    "copy_restarts",
    "chunks_quarantined",
    "watchdog_kills",
    "chunks_resumed",
    "cache_hits",
    "cache_misses",
    "cache_bytes_served",
    "cache_evictions",
    "prefetch_issued",
    "prefetch_useful",
    "hedges_issued",
    "hedges_won",
    "hedges_abandoned",
    "reads_abandoned",
    "tail_breaches",
    "slow_evictions",
    "buffers_in",
    "buffers_out",
    "bytes_in",
    "bytes_out",
)

EXECUTION_COUNTER_KEYS = (
    "copy_restarts",
    "chunks_quarantined",
    "watchdog_kills",
    "buffers_lost",
    "chunks_resumed",
    "replica_failovers",
    "nodes_evicted",
)


def check_meter(meter: object, path: str, where: str) -> None:
    if not require(isinstance(meter, dict), path, f"{where}: meter is not an object"):
        return
    for k, v in meter.items():
        require(isinstance(v, (int, float)), path, f"{where}: meter.{k} is not a number")
    for k in REQUIRED_METER_KEYS:
        require(k in meter, path, f"{where}: meter missing required counter {k}")


# The optional "cache" section (fs/graph.hpp CacheReport): emitted by both
# h4d-metrics-v1 and h4d-jobs-v1 exports when a slice cache was configured.
CACHE_INT_KEYS = (
    "budget_bytes",
    "prefetch_depth",
    "lookups",
    "hits",
    "misses",
    "bytes_read_disk",
    "bytes_served_cache",
    "prefetch_issued",
    "prefetch_useful",
    "evictions",
    "resident_bytes",
)

def check_cache_object(cache: object, path: str, where: str) -> None:
    """Tile-cache section: key presence, types, and counter conservation."""
    if not require(isinstance(cache, dict), path, f"{where}: not an object"):
        return
    for k in CACHE_INT_KEYS:
        require(isinstance(cache.get(k), int), path, f"{where}: missing {k}")
    if all(isinstance(cache.get(k), int) for k in CACHE_INT_KEYS):
        require(cache["lookups"] == cache["hits"] + cache["misses"], path,
                f"{where}: lookups ({cache['lookups']}) != hits + misses "
                f"({cache['hits']} + {cache['misses']})")
        require(cache["prefetch_useful"] <= cache["prefetch_issued"], path,
                f"{where}: prefetch_useful ({cache['prefetch_useful']}) > "
                f"prefetch_issued ({cache['prefetch_issued']})")
        for k in CACHE_INT_KEYS:
            require(cache[k] >= 0, path, f"{where}: {k} is negative")


# The optional "io_tail" section (fs/graph.hpp TailReport): emitted by both
# h4d-metrics-v1 and h4d-jobs-v1 exports when the tail-tolerance layer
# (hedged reads / adaptive deadlines, src/io/tail.hpp) was attached.
TAIL_INT_KEYS = (
    "hedge_max_inflight",
    "reads",
    "hedges_issued",
    "hedges_won",
    "hedges_abandoned",
    "reads_abandoned",
    "breaches",
    "evictions_slow",
)

TAIL_FLOAT_KEYS = (
    "deadline_ms",
    "deadline_k",
    "deadline_floor_ms",
    "deadline_ceiling_ms",
    "hedge_pct",
)

TAIL_DEADLINE_MODES = ("off", "auto", "fixed")
TAIL_EVICT_REASONS = ("failure", "slow")


def check_tail_object(tail: object, path: str, where: str) -> None:
    """io_tail section: types, hedge accounting, per-node sum identities."""
    if not require(isinstance(tail, dict), path, f"{where}: not an object"):
        return
    require(tail.get("deadline_mode") in TAIL_DEADLINE_MODES, path,
            f"{where}: deadline_mode invalid ({tail.get('deadline_mode')!r})")
    require(isinstance(tail.get("hedge_enabled"), bool), path,
            f"{where}: missing hedge_enabled")
    for k in TAIL_INT_KEYS:
        require(isinstance(tail.get(k), int), path, f"{where}: missing {k}")
    for k in TAIL_FLOAT_KEYS:
        require(isinstance(tail.get(k), (int, float)), path,
                f"{where}: missing {k}")
    if all(isinstance(tail.get(k), int) for k in TAIL_INT_KEYS):
        for k in TAIL_INT_KEYS:
            require(tail[k] >= 0, path, f"{where}: {k} is negative")
        require(tail["hedges_won"] <= tail["hedges_issued"], path,
                f"{where}: hedges_won ({tail['hedges_won']}) > hedges_issued "
                f"({tail['hedges_issued']})")

    nodes = tail.get("nodes")
    if require(isinstance(nodes, list), path, f"{where}: nodes is not an array"):
        node_reads = node_breaches = 0
        rows_ok = True
        for i, n in enumerate(nodes):
            w = f"{where}.nodes[{i}]"
            if not require(isinstance(n, dict), path, f"{w}: not an object"):
                rows_ok = False
                continue
            for k in ("node", "reads", "breaches"):
                if not require(isinstance(n.get(k), int), path,
                               f"{w}: missing {k}"):
                    rows_ok = False
            for k in ("ewma_ms", "p50_ms", "p99_ms"):
                require(isinstance(n.get(k), (int, float)), path,
                        f"{w}: missing {k}")
            node_reads += n.get("reads", 0) if isinstance(n.get("reads"), int) else 0
            node_breaches += (n.get("breaches", 0)
                              if isinstance(n.get("breaches"), int) else 0)
        # Per-node rows are the tracker snapshot the globals were summed
        # from, so the identities are exact (all-zero rows may be omitted).
        if rows_ok and isinstance(tail.get("reads"), int):
            require(node_reads == tail["reads"], path,
                    f"{where}: per-node reads sum to {node_reads}, global "
                    f"says {tail['reads']}")
        if rows_ok and isinstance(tail.get("breaches"), int):
            require(node_breaches == tail["breaches"], path,
                    f"{where}: per-node breaches sum to {node_breaches}, "
                    f"global says {tail['breaches']}")

    evictions = tail.get("evictions")
    if require(isinstance(evictions, list), path,
               f"{where}: evictions is not an array"):
        for i, e in enumerate(evictions):
            w = f"{where}.evictions[{i}]"
            if not require(isinstance(e, dict), path, f"{w}: not an object"):
                continue
            require(isinstance(e.get("node"), int), path, f"{w}: missing node")
            require(e.get("reason") in TAIL_EVICT_REASONS, path,
                    f"{w}: invalid reason {e.get('reason')!r}")


def check_micro_object(doc: object, path: str, where: str) -> None:
    """h4d-micro-v1: a flat bag of named numbers (wall-clock micro-bench row)."""
    if not require(isinstance(doc, dict), path, f"{where}: not an object"):
        return
    numeric = 0
    for k, v in doc.items():
        if k == "schema":
            continue
        if require(isinstance(v, (int, float)), path,
                   f"{where}: {k} is not a number"):
            numeric += 1
    require(numeric > 0, path, f"{where}: no numeric metrics")


def check_metrics_object(doc: object, path: str, where: str = "") -> None:
    if not require(isinstance(doc, dict), path, f"{where}: not an object"):
        return
    require(doc.get("schema") == "h4d-metrics-v1", path,
            f"{where}: schema != h4d-metrics-v1")
    require(isinstance(doc.get("makespan_seconds"), (int, float)), path,
            f"{where}: missing/invalid makespan_seconds")

    filters = doc.get("filters")
    copies = doc.get("copies")
    if not require(isinstance(filters, list) and filters, path,
                   f"{where}: filters missing or empty"):
        return
    if not require(isinstance(copies, list) and copies, path,
                   f"{where}: copies missing or empty"):
        return

    # Per-copy rows: required keys and types.
    by_filter_sums: dict[str, dict[str, float]] = {}
    by_filter_count: dict[str, int] = {}
    for i, c in enumerate(copies):
        w = f"{where}copies[{i}]"
        if not require(isinstance(c, dict), path, f"{w}: not an object"):
            continue
        require(isinstance(c.get("filter"), str), path, f"{w}: missing filter name")
        for k in TIMING_KEYS + ("finish_time",):
            require(isinstance(c.get(k), (int, float)), path, f"{w}: missing {k}")
        check_meter(c.get("meter"), path, w)
        name = c.get("filter", "?")
        by_filter_count[name] = by_filter_count.get(name, 0) + 1
        sums = by_filter_sums.setdefault(name, {})
        for k, v in (c.get("meter") or {}).items():
            if isinstance(v, (int, float)):
                sums[k] = sums.get(k, 0) + v

    # Per-filter aggregates: must equal the sum over that filter's copies.
    for i, f in enumerate(filters):
        w = f"{where}filters[{i}]"
        if not require(isinstance(f, dict), path, f"{w}: not an object"):
            continue
        name = f.get("filter")
        require(isinstance(name, str), path, f"{w}: missing filter name")
        require(isinstance(f.get("utilization"), (int, float)), path,
                f"{w}: missing utilization")
        check_meter(f.get("meter"), path, w)
        if name in by_filter_count:
            require(f.get("copies") == by_filter_count[name], path,
                    f"{w}: copies != number of copy rows for {name}")
            for k, expected in by_filter_sums.get(name, {}).items():
                got = (f.get("meter") or {}).get(k)
                require(isinstance(got, (int, float)) and abs(got - expected) < 0.5,
                        path, f"{w}: meter.{k} != sum over copies "
                              f"({got} vs {expected})")
        else:
            err(path, f"{w}: filter {name} has no copy rows")

    bn = doc.get("bottleneck")
    if require(isinstance(bn, dict), path, f"{where}: missing bottleneck object"):
        for k in ("bound_filter", "verdict"):
            require(isinstance(bn.get(k), str), path, f"{where}: bottleneck.{k} missing")
        require(isinstance(bn.get("bound_utilization"), (int, float)), path,
                f"{where}: bottleneck.bound_utilization missing")

    ex = doc.get("execution")
    if require(isinstance(ex, dict), path, f"{where}: missing execution object"):
        for k in EXECUTION_COUNTER_KEYS:
            require(isinstance(ex.get(k), int), path, f"{where}: execution.{k} missing")
        # Inbox accounting (all zero for the simulated engine).
        for k in ("queue_stalled_pushes", "queue_max_depth"):
            require(isinstance(ex.get(k), int), path, f"{where}: execution.{k} missing")
        require(isinstance(ex.get("queue_stall_seconds"), (int, float)), path,
                f"{where}: execution.queue_stall_seconds missing")
        for k in ("quarantined", "incidents"):
            require(isinstance(ex.get(k), list), path,
                    f"{where}: execution.{k} is not an array")
        for i, q in enumerate(ex.get("quarantined") or []):
            w = f"{where}execution.quarantined[{i}]"
            if require(isinstance(q, dict), path, f"{w}: not an object"):
                require(isinstance(q.get("filter"), str), path, f"{w}: missing filter")
                for k in ("copy", "chunk_id", "seq"):
                    require(isinstance(q.get(k), int), path, f"{w}: missing {k}")
        require(ex.get("chunks_quarantined") == len(ex.get("quarantined") or []),
                path, f"{where}: chunks_quarantined != len(quarantined)")

    if "cache" in doc:
        check_cache_object(doc.get("cache"), path, f"{where}cache")
    if "io_tail" in doc:
        check_tail_object(doc.get("io_tail"), path, f"{where}io_tail")


# The "jobs" counter section of an h4d-jobs-v1 export (svc/job_manager.hpp
# ServiceCounters). Missing keys mean the C++ export drifted.
JOBS_COUNTER_KEYS = (
    "submitted",
    "admitted",
    "completed",
    "rejected",
    "rejected_queue_full",
    "rejected_quota",
    "rejected_deadline",
    "shed",
    "failed",
    "retried",
    "deadline_missed",
    "cancelled",
    "degraded",
)

JOB_TERMINAL_STATES = ("completed", "rejected", "shed", "failed")
JOB_STATES = ("pending", "running") + JOB_TERMINAL_STATES
JOB_REJECT_REASONS = ("none", "queue_full", "quota_exceeded",
                      "deadline_infeasible")


def check_jobs_object(doc: dict, path: str) -> None:
    """h4d-jobs-v1: the multi-tenant service export."""
    c = doc.get("jobs")
    if not require(isinstance(c, dict), path, "jobs: missing counter object"):
        return
    for k in JOBS_COUNTER_KEYS:
        require(isinstance(c.get(k), int), path, f"jobs.{k} missing or not int")
    if all(isinstance(c.get(k), int) for k in JOBS_COUNTER_KEYS):
        # The accounting identity: every submitted job terminated in exactly
        # one of the four terminal states (only true at quiescence, which is
        # when the CLI exports).
        terminal = c["completed"] + c["rejected"] + c["shed"] + c["failed"]
        require(c["submitted"] == terminal, path,
                f"jobs: accounting identity violated (submitted {c['submitted']} "
                f"!= completed+rejected+shed+failed {terminal})")
        typed = (c["rejected_queue_full"] + c["rejected_quota"] +
                 c["rejected_deadline"])
        require(c["rejected"] == typed, path,
                f"jobs: rejected ({c['rejected']}) != sum of typed rejections "
                f"({typed})")
        require(c["admitted"] == c["submitted"] - c["rejected"], path,
                "jobs: admitted != submitted - rejected")

    tenants = doc.get("tenants")
    if require(isinstance(tenants, list), path, "tenants: not an array"):
        tenant_submitted = 0
        for i, t in enumerate(tenants):
            w = f"tenants[{i}]"
            if not require(isinstance(t, dict), path, f"{w}: not an object"):
                continue
            require(isinstance(t.get("tenant"), str), path, f"{w}: missing tenant")
            for k in ("submitted", "completed", "rejected", "shed", "failed"):
                require(isinstance(t.get(k), int), path, f"{w}: missing {k}")
            require(isinstance(t.get("weight"), (int, float)), path,
                    f"{w}: missing weight")
            for k in ("cache_hits", "cache_misses", "cache_bytes_served",
                      "cache_resident_bytes"):
                require(isinstance(t.get(k), int), path, f"{w}: missing {k}")
            tenant_submitted += t.get("submitted", 0) or 0
        if isinstance(c.get("submitted"), int):
            require(tenant_submitted == c["submitted"], path,
                    f"tenants: submitted sums to {tenant_submitted}, "
                    f"counters say {c['submitted']}")

    check_meter(doc.get("meter"), path, "meter")
    ex = doc.get("exec")
    if require(isinstance(ex, dict), path, "exec: missing object"):
        for k in EXECUTION_COUNTER_KEYS:
            require(isinstance(ex.get(k), int), path, f"exec.{k} missing")

    if "cache" in doc:
        check_cache_object(doc.get("cache"), path, "cache")
        # The shared cache serves every tenant: the per-tenant demand rows
        # must sum to (at most) the global counters — "at most" because
        # jobs that ran with a private cache (fault drills) are folded into
        # the global meter but not the shared cache's tenant rows.
        cache = doc.get("cache")
        if isinstance(cache, dict) and isinstance(tenants, list):
            for key, tkey in (("hits", "cache_hits"), ("misses", "cache_misses"),
                              ("bytes_served_cache", "cache_bytes_served")):
                total = sum(t.get(tkey, 0) for t in tenants
                            if isinstance(t, dict) and isinstance(t.get(tkey), int))
                if isinstance(cache.get(key), int):
                    require(total <= cache[key], path,
                            f"cache: tenant {tkey} sums to {total}, exceeds "
                            f"global {key} {cache[key]}")

    if "io_tail" in doc:
        check_tail_object(doc.get("io_tail"), path, "io_tail")

    per_job = doc.get("per_job")
    if not require(isinstance(per_job, list), path, "per_job: not an array"):
        return
    state_counts = {s: 0 for s in JOB_STATES}
    for i, j in enumerate(per_job):
        w = f"per_job[{i}]"
        if not require(isinstance(j, dict), path, f"{w}: not an object"):
            continue
        require(isinstance(j.get("id"), int), path, f"{w}: missing id")
        require(isinstance(j.get("tenant"), str), path, f"{w}: missing tenant")
        state = j.get("state")
        if require(state in JOB_STATES, path, f"{w}: invalid state {state!r}"):
            require(state in JOB_TERMINAL_STATES, path,
                    f"{w}: non-terminal state {state!r} in a quiescent export")
            state_counts[state] += 1
        require(j.get("reject_reason") in JOB_REJECT_REASONS, path,
                f"{w}: invalid reject_reason {j.get('reject_reason')!r}")
        require(isinstance(j.get("attempts"), int), path, f"{w}: missing attempts")
    if isinstance(c, dict):
        for state in JOB_TERMINAL_STATES:
            want = c.get(state)
            if isinstance(want, int):
                require(state_counts[state] == want, path,
                        f"per_job: {state_counts[state]} rows in state {state}, "
                        f"counters say {want}")


def check_metrics_file(path: str) -> None:
    try:
        doc = json.load(open(path, encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        err(path, f"unreadable or invalid JSON: {e}")
        return
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == "h4d-bench-metrics-v1":
        require(isinstance(doc.get("figure"), str), path, "missing figure name")
        runs = doc.get("runs")
        if require(isinstance(runs, list) and runs, path, "runs missing or empty"):
            for i, r in enumerate(runs):
                if require(isinstance(r, dict) and isinstance(r.get("label"), str),
                           path, f"runs[{i}]: missing label"):
                    m = r.get("metrics")
                    if isinstance(m, dict) and m.get("schema") == "h4d-micro-v1":
                        check_micro_object(m, path, f"runs[{i}].metrics")
                    else:
                        check_metrics_object(m, path, f"runs[{i}].")
    elif schema == "h4d-metrics-v1":
        check_metrics_object(doc, path)
    elif schema == "h4d-jobs-v1":
        check_jobs_object(doc, path)
    else:
        err(path, f"unknown schema {schema!r}")


def check_trace_file(path: str) -> None:
    try:
        doc = json.load(open(path, encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        err(path, f"unreadable or invalid JSON: {e}")
        return
    if not require(isinstance(doc, dict), path, "trace is not an object"):
        return
    events = doc.get("traceEvents")
    if not require(isinstance(events, list) and events, path,
                   "traceEvents missing or empty"):
        return
    spans = 0
    for i, e in enumerate(events):
        w = f"traceEvents[{i}]"
        if not require(isinstance(e, dict), path, f"{w}: not an object"):
            continue
        ph = e.get("ph")
        require(ph in ("X", "i", "C", "M"), path, f"{w}: unexpected phase {ph!r}")
        require(isinstance(e.get("name"), str), path, f"{w}: missing name")
        require(isinstance(e.get("pid"), int), path, f"{w}: missing pid")
        if ph == "X":
            spans += 1
            for k in ("ts", "dur"):
                require(isinstance(e.get(k), (int, float)), path, f"{w}: missing {k}")
            require(e.get("dur", 0) >= 0, path, f"{w}: negative dur")
    require(spans > 0, path, "trace has no 'X' activity spans")


def main(argv: list[str]) -> int:
    metrics, traces, i = [], [], 0
    while i < len(argv):
        if argv[i] == "--trace":
            if i + 1 >= len(argv):
                print("error: --trace needs a file", file=sys.stderr)
                return 2
            traces.append(argv[i + 1])
            i += 2
        else:
            metrics.append(argv[i])
            i += 1
    if not metrics and not traces:
        print(__doc__, file=sys.stderr)
        return 2
    for p in metrics:
        check_metrics_file(p)
    for p in traces:
        check_trace_file(p)
    for e in ERRORS:
        print(e)
    print(f"check_metrics: {len(metrics)} metrics + {len(traces)} trace files, "
          f"{len(ERRORS)} errors")
    return 1 if ERRORS else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
