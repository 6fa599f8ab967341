#!/usr/bin/env python3
"""Perf-baseline guard for the committed micro-benchmarks (no third-party deps).

Works on `h4d-bench-metrics-v1` documents whose runs carry flat
`h4d-micro-v1` metrics, as emitted by `bench/micro_glcm --json` and
`bench/micro_features --json` (see bench/micro_common.hpp). The document's
`figure` names the baseline family and selects which invariants apply:

  bench_kernel   (BENCH_kernel.json)
      * kernel pair-update throughput >= 3x the reference on the paper
        configuration;
      * the fused end-to-end ROI path is not slower than the reference
        sparse path;
      * a whole HMP chunk built from column histograms (analyze_chunk) is
        >= 3x faster per ROI than the per-origin scan, on a chunk of each
        column-path variant.
  bench_cache    (BENCH_cache.json)
      * a warm re-analysis through the shared tile cache reads at most
        0.5x the disk bytes of the cold run;
      * the warm run's demand hit rate is >= 60%.
  bench_tail     (BENCH_tail.json)
      * with one gray (heavy-tailed slow) storage node, the hedged pass's
        p99 read latency is >= 2x better than the unhedged pass's;
      * the hedged pass actually hedged: hedges_won >= 1, and it never won
        more hedges than it issued.

All gates run on the committed numbers, so they are deterministic in CI.

Modes:

  tools/check_bench.py --merge OUT.json IN.json [IN.json ...]
      Concatenate the runs of several micro-bench documents into one
      committed baseline (figure "bench_kernel"). Labels must be unique.

  tools/check_bench.py BASELINE.json [--fresh FRESH.json ...]
                       [--regression-factor 2.0]
      Check the committed baseline's figure-specific invariants.
      With --fresh, additionally compare a just-measured run against the
      baseline: any label present in both must not be slower than
      baseline * regression-factor on ns_per_roi. The factor is
      deliberately generous (default 2x) because CI machines are noisy;
      the point is to catch a real regression (kernel silently falling
      back to the slow path), not a 20% wobble.

Exit status: 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

PAPER_CONFIG = "paper_roi7x7x3x3_dirs13_ng32"
GATE_LABELS = (f"glcm_reference/{PAPER_CONFIG}", f"glcm_kernel/{PAPER_CONFIG}")
FUSED_LABELS = (f"roi_reference_sparse/{PAPER_CONFIG}",
                f"roi_kernel_fused/{PAPER_CONFIG}")
MIN_SPEEDUP = 3.0
# One chunk per column-path variant: the hmp_balanced chunk rebuilds each
# (z, t) row's column histograms, the survey_io chunk slides row histograms
# in z (docs/KERNEL.md §3).
CHUNK_CONFIGS = ("all4_roi7x7x3x3_dirs40_ng32_chunk16x16x8x6",
                 "axis4_roi3x3x3x3_dirs8_ng8_chunk32x32x8x6")
MIN_CHUNK_SPEEDUP = 3.0

# bench_cache: warm-over-cold gates for the shared tile cache
# (bench/micro_tile_cache). Disk traffic must at least halve and the demand
# hit rate must clear 60% when the same analysis re-runs through the cache.
CACHE_COLD_LABEL = "reanalysis_cold"
CACHE_WARM_LABEL = "reanalysis_warm"
CACHE_MAX_DISK_RATIO = 0.5
CACHE_MIN_HIT_RATE = 0.6

# bench_tail: gray-node hedged-read gates (bench/micro_tail). Hedging must
# cut the p99 read latency at least in half and must actually have won at
# least one hedge race (otherwise the "improvement" is a broken injector).
TAIL_UNHEDGED_LABEL = "unhedged"
TAIL_HEDGED_LABEL = "hedged"
TAIL_MIN_P99_RATIO = 2.0

# Time-per-unit metric (lower is better) compared by --fresh.
REGRESSION_METRIC = "ns_per_roi"

ERRORS: list[str] = []


def err(msg: str) -> None:
    ERRORS.append(msg)


def load_runs(path: str) -> tuple[str, dict[str, dict[str, float]]]:
    """(figure, label -> flat metrics dict); ("", {}) on structural failure."""
    try:
        doc = json.load(open(path, encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        err(f"{path}: unreadable or invalid JSON: {e}")
        return "", {}
    if not isinstance(doc, dict) or doc.get("schema") != "h4d-bench-metrics-v1":
        err(f"{path}: not an h4d-bench-metrics-v1 document")
        return "", {}
    figure = doc.get("figure")
    if not isinstance(figure, str):
        err(f"{path}: missing figure name")
        figure = ""
    out: dict[str, dict[str, float]] = {}
    for i, r in enumerate(doc.get("runs") or []):
        if not isinstance(r, dict) or not isinstance(r.get("label"), str):
            err(f"{path}: runs[{i}]: missing label")
            continue
        m = r.get("metrics")
        if not isinstance(m, dict) or m.get("schema") != "h4d-micro-v1":
            err(f"{path}: runs[{i}]: metrics is not h4d-micro-v1")
            continue
        label = r["label"]
        if label in out:
            err(f"{path}: duplicate label {label}")
        out[label] = {k: v for k, v in m.items()
                      if isinstance(v, (int, float)) and k != "schema"}
    if not out:
        err(f"{path}: no usable runs")
    return figure, out


def merge(out_path: str, in_paths: list[str]) -> int:
    runs: list[dict] = []
    seen: set[str] = set()
    for p in in_paths:
        for label, metrics in load_runs(p)[1].items():
            if label in seen:
                err(f"{p}: label {label} already present in an earlier input")
                continue
            seen.add(label)
            runs.append({"label": label,
                         "metrics": {"schema": "h4d-micro-v1", **metrics}})
    if ERRORS:
        for e in ERRORS:
            print(e)
        return 1
    doc = {"schema": "h4d-bench-metrics-v1", "figure": "bench_kernel",
           "runs": runs}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"check_bench: merged {len(runs)} runs from {len(in_paths)} files "
          f"into {out_path}")
    return 0


def check_baseline_invariants(runs: dict[str, dict[str, float]],
                              path: str) -> None:
    ref_label, ker_label = GATE_LABELS
    ref = runs.get(ref_label)
    ker = runs.get(ker_label)
    if ref is None or ker is None:
        err(f"{path}: missing gate rows {ref_label!r} / {ker_label!r}")
    else:
        ref_tp = ref.get("pair_updates_per_sec", 0.0)
        ker_tp = ker.get("pair_updates_per_sec", 0.0)
        if ref_tp <= 0 or ker_tp <= 0:
            err(f"{path}: gate rows missing pair_updates_per_sec")
        else:
            speedup = ker_tp / ref_tp
            print(f"  gate: kernel {ker_tp:.3e} vs reference {ref_tp:.3e} "
                  f"pair updates/s -> {speedup:.2f}x (need >= {MIN_SPEEDUP}x)")
            if speedup < MIN_SPEEDUP:
                err(f"{path}: kernel speedup {speedup:.2f}x < {MIN_SPEEDUP}x "
                    f"on {PAPER_CONFIG}")
    ref_e2e = runs.get(FUSED_LABELS[0])
    fus_e2e = runs.get(FUSED_LABELS[1])
    if ref_e2e is None or fus_e2e is None:
        err(f"{path}: missing fused end-to-end rows "
            f"{FUSED_LABELS[0]!r} / {FUSED_LABELS[1]!r}")
    else:
        r_ns = ref_e2e.get("ns_per_roi", 0.0)
        f_ns = fus_e2e.get("ns_per_roi", 0.0)
        if r_ns <= 0 or f_ns <= 0:
            err(f"{path}: end-to-end rows missing ns_per_roi")
        else:
            print(f"  fused e2e: {f_ns:.0f} ns vs reference {r_ns:.0f} ns "
                  f"per ROI ({r_ns / f_ns:.2f}x)")
            if f_ns > r_ns:
                err(f"{path}: fused end-to-end path slower than reference "
                    f"({f_ns:.0f} ns vs {r_ns:.0f} ns)")
    for config in CHUNK_CONFIGS:
        scan_label, cols_label = f"chunk_scan/{config}", f"chunk_columns/{config}"
        scan = runs.get(scan_label)
        cols = runs.get(cols_label)
        if scan is None or cols is None:
            err(f"{path}: missing chunk rows {scan_label!r} / {cols_label!r}")
            continue
        s_ns = scan.get("ns_per_roi", 0.0)
        c_ns = cols.get("ns_per_roi", 0.0)
        if s_ns <= 0 or c_ns <= 0:
            err(f"{path}: chunk rows of {config} missing ns_per_roi")
            continue
        speedup = s_ns / c_ns
        print(f"  gate: column histograms {c_ns:.0f} ns vs scan {s_ns:.0f} ns "
              f"per ROI on {config} -> {speedup:.2f}x "
              f"(need >= {MIN_CHUNK_SPEEDUP}x)")
        if speedup < MIN_CHUNK_SPEEDUP:
            err(f"{path}: column-histogram speedup {speedup:.2f}x < "
                f"{MIN_CHUNK_SPEEDUP}x on {config}")


def check_cache_invariants(runs: dict[str, dict[str, float]],
                           path: str) -> None:
    """BENCH_cache.json: warm disk bytes <= 0.5x cold; warm hit rate >= 60%."""
    cold = runs.get(CACHE_COLD_LABEL)
    warm = runs.get(CACHE_WARM_LABEL)
    if cold is None or warm is None:
        err(f"{path}: missing gate rows {CACHE_COLD_LABEL!r} / "
            f"{CACHE_WARM_LABEL!r}")
        return
    cold_disk = cold.get("bytes_read_disk", 0.0)
    warm_disk = warm.get("bytes_read_disk")
    if cold_disk <= 0 or warm_disk is None:
        err(f"{path}: cache gate rows missing bytes_read_disk")
    else:
        ratio = warm_disk / cold_disk
        print(f"  gate: warm {warm_disk:.0f} vs cold {cold_disk:.0f} disk "
              f"bytes -> {ratio:.2f}x (need <= {CACHE_MAX_DISK_RATIO}x)")
        if ratio > CACHE_MAX_DISK_RATIO:
            err(f"{path}: warm run reads {ratio:.2f}x the cold run's disk "
                f"bytes (limit {CACHE_MAX_DISK_RATIO}x)")
    hits = warm.get("cache_hits", 0.0)
    lookups = hits + warm.get("cache_misses", 0.0)
    if lookups <= 0:
        err(f"{path}: {CACHE_WARM_LABEL} has no cache lookups")
    else:
        rate = hits / lookups
        print(f"  gate: warm hit rate {hits:.0f}/{lookups:.0f} = {rate:.0%} "
              f"(need >= {CACHE_MIN_HIT_RATE:.0%})")
        if rate < CACHE_MIN_HIT_RATE:
            err(f"{path}: warm hit rate {rate:.0%} < {CACHE_MIN_HIT_RATE:.0%}")


def check_tail_invariants(runs: dict[str, dict[str, float]],
                          path: str) -> None:
    """BENCH_tail.json: hedged p99 >= 2x better; hedges actually won."""
    unhedged = runs.get(TAIL_UNHEDGED_LABEL)
    hedged = runs.get(TAIL_HEDGED_LABEL)
    if unhedged is None or hedged is None:
        err(f"{path}: missing gate rows {TAIL_UNHEDGED_LABEL!r} / "
            f"{TAIL_HEDGED_LABEL!r}")
        return
    raw_p99 = unhedged.get("p99_ms", 0.0)
    hedged_p99 = hedged.get("p99_ms", 0.0)
    if raw_p99 <= 0 or hedged_p99 <= 0:
        err(f"{path}: tail gate rows missing p99_ms")
    else:
        ratio = raw_p99 / hedged_p99
        print(f"  gate: unhedged p99 {raw_p99:.2f} ms vs hedged "
              f"{hedged_p99:.2f} ms -> {ratio:.2f}x "
              f"(need >= {TAIL_MIN_P99_RATIO}x)")
        if ratio < TAIL_MIN_P99_RATIO:
            err(f"{path}: hedged p99 improvement {ratio:.2f}x "
                f"< {TAIL_MIN_P99_RATIO}x")
    issued = hedged.get("hedges_issued", 0.0)
    won = hedged.get("hedges_won", 0.0)
    print(f"  gate: hedges {won:.0f}/{issued:.0f} won (need >= 1 won)")
    if won < 1:
        err(f"{path}: hedged pass won no hedge races "
            f"({won:.0f}/{issued:.0f})")
    if won > issued:
        err(f"{path}: hedges_won {won:.0f} > hedges_issued {issued:.0f}")


def check_regression(baseline: dict[str, dict[str, float]],
                     fresh: dict[str, dict[str, float]], fresh_path: str,
                     factor: float) -> None:
    compared = 0
    metric = REGRESSION_METRIC
    for label, base_m in sorted(baseline.items()):
        fresh_m = fresh.get(label)
        if metric not in base_m or fresh_m is None:
            continue
        base_ns = base_m[metric]
        fresh_ns = fresh_m.get(metric)
        if fresh_ns is None:
            err(f"{fresh_path}: {label}: baseline has {metric}, fresh lost it")
            continue
        compared += 1
        ratio = fresh_ns / base_ns
        verdict = "ok" if ratio <= factor else "REGRESSION"
        print(f"  {label}: {fresh_ns:.0f} ns vs baseline {base_ns:.0f} ns "
              f"({ratio:.2f}x, limit {factor:.1f}x) {verdict}")
        if ratio > factor:
            err(f"{fresh_path}: {label} regressed {ratio:.2f}x over baseline "
                f"(limit {factor:.1f}x)")
    if compared == 0:
        err(f"{fresh_path}: no labels overlap the baseline")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--merge":
        if len(argv) < 3:
            print("error: --merge needs OUT.json and at least one IN.json",
                  file=sys.stderr)
            return 2
        return merge(argv[1], argv[2:])

    baseline_path = argv[0]
    fresh_paths: list[str] = []
    factor = 2.0
    i = 1
    while i < len(argv):
        if argv[i] == "--fresh":
            if i + 1 >= len(argv):
                print("error: --fresh needs a file", file=sys.stderr)
                return 2
            fresh_paths.append(argv[i + 1])
            i += 2
        elif argv[i] == "--regression-factor":
            if i + 1 >= len(argv):
                print("error: --regression-factor needs a value", file=sys.stderr)
                return 2
            factor = float(argv[i + 1])
            i += 2
        else:
            print(f"error: unknown argument {argv[i]}", file=sys.stderr)
            return 2

    figure, baseline = load_runs(baseline_path)
    if baseline:
        print(f"baseline {baseline_path} (figure {figure}, {len(baseline)} runs):")
        if figure == "bench_cache":
            check_cache_invariants(baseline, baseline_path)
        elif figure == "bench_tail":
            check_tail_invariants(baseline, baseline_path)
        elif figure == "bench_kernel":
            check_baseline_invariants(baseline, baseline_path)
        else:
            err(f"{baseline_path}: no invariants known for figure {figure!r}")
        for fp in fresh_paths:
            fresh = load_runs(fp)[1]
            if fresh:
                print(f"fresh {fp} vs baseline:")
                check_regression(baseline, fresh, fp, factor)
    for e in ERRORS:
        print(e)
    print(f"check_bench: {len(ERRORS)} errors")
    return 1 if ERRORS else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
