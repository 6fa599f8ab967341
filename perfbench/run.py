#!/usr/bin/env python3
"""End-to-end benchmark of the 4D Haralick pipeline.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload all --smoke  # toy sizes, seconds-long

Builds the library and the harness (perfbench/CMakeLists.txt) into
.bench_build/perfbench, generates the workload's phantom from the seed,
computes the reference outputs, then runs the timed workload and checks
every output. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. Human-readable lines start with '#'; the last
line of stdout is one JSON object {correct, attempted, failed, metrics}.
Exits 1 when an output check fails and 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "h4d_perfbench")
WORKLOADS = ("shipped_split", "hmp_balanced", "survey_io", "serve_mixed")
TEXTURE_COPIES = 4
# Every harness step of one invocation must end within this many seconds of
# the end of the build, so a hung run still exits well inside 180 s.
RUN_BUDGET_S = 170
# An untimed-trace run is split over this many harness processes whose
# samples are pooled: run-to-run differences are mostly per process (thread
# placement, heap layout), so pooling processes steadies the medians.
SUBRUNS = 2
# Scalars that add up over sub-runs; every other scalar is a per-process
# figure and merges as the median over processes.
SUMMED = {"attempted", "failed", "wall_s", "stolen_wall_s", "jobs_completed",
          "svc.jobs_failed", "io.cache_lookups", "io.cache_hits", "io.disk_bytes_read"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed; see " + log_path)


def harness(deadline, *args):
    """Run the harness, killing it at `deadline` (time.monotonic()); returns
    its JSON report."""
    try:
        proc = subprocess.run([HARNESS, *map(str, args)], capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("harness step %s timed out" % args[0])
    if proc.returncode:
        raise BenchError("harness %s failed: %s" % (args[0], proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge(reports):
    """Pool the raw samples of several harness runs of one workload."""
    merged = {"scalars": {}, "series": {}, "strings": reports[0]["strings"], "errors": []}
    scalars = {}
    for r in reports:
        merged["errors"] += r["errors"]
        for key, values in r["series"].items():
            merged["series"].setdefault(key, []).extend(values)
        for key, value in r["scalars"].items():
            scalars.setdefault(key, []).append(value)
    for key, values in scalars.items():
        summed = key in SUMMED or key.startswith("jobs.")
        merged["scalars"][key] = sum(values) if summed else stats.median(values)
    return merged


def environment(report):
    """nproc, LLC size, build type, SIMD, and warnings about the build."""
    llc_level, llc = 0, "unknown"
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            try:
                with open(os.path.join(cache_dir, index, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(cache_dir, index, "size")) as f:
                    size = f.read().strip()
            except (OSError, ValueError):
                continue
            if level >= llc_level:
                llc_level, llc = level, size
    s = report["scalars"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc,
        "build_type": report["strings"].get("build_type", "unknown"),
        "h4d_simd": bool(s.get("build.simd")),
        "optimized": bool(s.get("build.optimized")),
        "sanitized": bool(s.get("build.sanitized")),
    }
    flags = []
    if not env["optimized"]:
        flags.append("unoptimized build: timings are not comparable")
    if env["sanitized"]:
        flags.append("sanitizer build: timings are not comparable")
    if env["nproc"] < TEXTURE_COPIES:
        flags.append("fewer cores than the %d texture copies" % TEXTURE_COPIES)
    if s.get("peak_rss_is_process_peak"):
        flags.append("/proc/self/clear_refs unavailable: peak_rss_mb is the process peak")
    env["flags"] = flags
    return env


def unstolen(times, shares):
    """Wall times less the share of the machine's busy CPU time that the
    hypervisor gave to other guests meanwhile (steal in /proc/stat): what
    the command takes on a host that is not shared. 0 steal leaves them."""
    return [t * (1.0 - f) for t, f in zip(times, shares)]


def end_to_end(name, prep, rep):
    """Metric value and sample count of every end-to-end metric. Rates are
    work over the time it took (so a command whose time depends on how the
    router spread the chunks weighs in by its time); latency is a median.
    Times are unstolen(); the raw wall-clock figures are printed beside."""
    s, series = rep["scalars"], rep["series"]
    rois = prep["scalars"]["rois"]
    m = {"setup_s": (stats.median(series["setup_s"]), len(series["setup_s"]))}
    if name == "serve_mixed":
        raw = series["job_latency_s"]
        lat = unstolen(raw, series["job_steal"])
        n = len(lat)
        done = s["jobs_completed"]
        wall = s["wall_s"] - s["stolen_wall_s"]
        peaks = series["peak_rss_kb"]
        m["peak_rss_mb"] = (stats.median(peaks) / 1024.0, len(peaks))
        m["rois_per_s"] = (done * rois / wall, n)
        m["jobs_per_s"] = (done / wall, n)
        m["job_latency_p50_s"] = (stats.median(lat), n)
        if n >= 100:
            m["job_latency_p90_s"] = (stats.percentile(lat, 90), n)
        tail = stats.tail_percentile(lat)
        if tail:
            m["job_latency_tail_p%g_s" % tail[0]] = (tail[1], n)
        m["raw.rois_per_s"] = (done * rois / s["wall_s"], n)
        m["raw.job_latency_p50_s"] = (stats.median(raw), n)
        m["steal_share"] = (s["stolen_wall_s"] / s["wall_s"], 1)
    else:
        raw = series["command_s"]
        walls = unstolen(raw, series["command_steal"])
        n = len(walls)
        m["rois_per_s"] = (n * rois / sum(walls), n)
        m["jobs_per_s"] = (n / sum(walls), n)
        m["job_latency_p50_s"] = (stats.median(walls), n)
        m["peak_rss_mb"] = (sum(series["peak_rss_kb"]) / n / 1024.0, n)
        m["raw.rois_per_s"] = (n * rois / sum(raw), n)
        m["raw.job_latency_p50_s"] = (stats.median(raw), n)
        m["steal_share"] = (1.0 - sum(walls) / sum(raw), n)
    return m


def per_layer(name, prep, rep):
    """Metric value and sample count of every per-layer metric."""
    s, series = rep["scalars"], rep["series"]
    rois = prep["scalars"]["rois"]
    m = {}
    for key in ("io.open_s", "io.read_s", "io.write_s", "io.bytes_written",
                "io.cache_lookups", "io.disk_bytes_read", "nd.quantize_s",
                "nd.chunks", "nd.chunks_per_copy", "nd.owned_roi_skew",
                "nd.overlap_dup_ratio", "haralick.construct_us_per_roi",
                "haralick.sweep_us_per_roi", "haralick.pair_updates_per_roi",
                "filters.HCC.bytes_out_mb", "filters.HMP.bytes_out_mb",
                "fs.texture_copy_skew", "fs.idle_texture_copies",
                "fs.residual_s_max", "fs.enqueue_stall_share", "core.build_pipeline_s",
                "svc.jobs_failed"):
        m[key] = (s[key], 1)
    for key, value in s.items():
        if key.startswith("filters.") and not key.endswith("bytes_out_mb"):
            m[key] = (value, 1)
    m["io.read_mb_per_s"] = (s["io.read_bytes"] / 2**20 / s["io.read_s"], 1)
    hits = stats.ratio(s["io.cache_hits"], s["io.cache_lookups"], "cache lookups")
    m["io.cache_hit_ratio"] = (hits["value"], int(hits["base_count"]))

    if name == "serve_mixed":
        keys = [k for k in s if k.startswith("jobs.L")]
        jobs = sum(s[k] for k in keys)
        serial = sum(s[k] * s["serial_s." + k[len("jobs."):]] for k in keys)
        m["haralick.serial_rois_per_s"] = (jobs * rois / serial, int(jobs))
        untraced = s["wall_s"] / s["jobs_completed"]
        traced = s["traced.wall_s"] / s["traced.jobs_completed"]
        copies_top = s["copies_%d.command_s" % TEXTURE_COPIES]
    else:
        m["haralick.serial_rois_per_s"] = (rois / prep["scalars"]["serial_s"], 1)
        untraced = stats.median(series["command_s"])
        traced = stats.median(series["traced_command_s"])
        copies_top = untraced
    m["fs.trace_overhead"] = (traced / untraced - 1.0, 2)
    for n in range(1, TEXTURE_COPIES):
        m["fs.copies_%d.rois_per_s" % n] = (rois / s["copies_%d.command_s" % n], 1)
    m["fs.copies_%d.rois_per_s" % TEXTURE_COPIES] = (rois / copies_top, 1)
    m["fs.scaling_eff"] = (m["fs.copies_%d.rois_per_s" % TEXTURE_COPIES][0]
                           / (TEXTURE_COPIES * m["fs.copies_1.rois_per_s"][0]), 1)

    submit, queued, run = (series["svc.submit_us"], series["svc.queued_s"],
                           series["svc.run_s"])
    m["svc.submit_us_p50"] = (stats.median(submit), len(submit))
    m["svc.queued_s_p50"] = (stats.median(queued), len(queued))
    m["svc.run_s_p50"] = (stats.median(run), len(run))
    m["svc.run_s_p90"] = (stats.percentile(run, 90), len(run))
    m["svc.jobs"] = (len(run), len(run))
    return m


def run_workload(name, seed, seconds, trace, smoke, deadline):
    work = os.path.join(ROOT, ".bench_build", "work", "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    common = ["--workload", name, "--seed", seed, "--dir", work, "--smoke", int(smoke)]
    try:
        prep = harness(deadline, "prepare", *common)
        extra = []
        if trace:
            traces = os.path.join(BUILD_DIR, "traces")
            os.makedirs(traces, exist_ok=True)
            extra = ["--spans", os.path.join(traces, "%s-seed%d.spans.json" % (name, seed))]
        subruns = 1 if trace else SUBRUNS
        rep = merge([harness(deadline, "run", *common, "--seconds", seconds / subruns,
                             "--trace", int(trace), *extra)
                     for _ in range(subruns)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = prep["errors"] + rep["errors"]
    attempted = int(rep["scalars"]["attempted"])
    failed = int(rep["scalars"]["failed"]) + len(prep["errors"])
    if errors and failed == 0:
        failed = len(errors)
    metrics = per_layer(name, prep, rep) if trace else end_to_end(name, prep, rep)
    return {"workload": name, "seed": seed, "trace": trace, "env": environment(rep),
            "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "prepare": prep, "run": rep}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="|".join(WORKLOADS) + "|all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy-sized phantoms: checks the harness end to end in seconds")
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if any(n not in WORKLOADS for n in names):
            raise BenchError("unknown workload " + args.workload)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.smoke:
            seconds = min(seconds, 1.0)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        build()
        deadline = time.monotonic() + RUN_BUDGET_S * len(names)
        results = [run_workload(n, args.seed, seconds, args.trace, args.smoke, deadline)
                   for n in names]
    except (BenchError, OSError, KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    out_metrics, attempted, failed, correct = {}, 0, 0, True
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    for r in results:
        name = r["workload"]
        print("# %s seed=%d trace=%d env=%s" % (name, args.seed, args.trace,
                                                 json.dumps(r["env"], sort_keys=True)))
        for flag in r["env"]["flags"]:
            print("# WARNING %s: %s" % (name, flag))
        for want in wanted:
            if want["name"] not in r["metrics"]:
                print("perfbench: %s: metric %s not measured" % (name, want["name"]),
                      file=sys.stderr)
                return 2
        for metric, (value, n) in sorted(r["metrics"].items()):
            unit = next((w["unit"] for w in wanted if w["name"] == metric.replace("raw.", "")),
                        "s" if metric.endswith("_s") else "ratio")
            print("# %-14s %-34s %14.6g %-6s n=%d" % (name, metric, value, unit, n))
        print("# %-14s %-34s %14.6g %-6s (%d of %d attempted)" % (
            name, "fail_ratio", r["failed"] / max(1, r["attempted"]), "ratio",
            r["failed"], r["attempted"]))
        for e in r["errors"]:
            print("# FAILED %s: %s" % (name, e))
        with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                               % (name, args.seed, args.trace)), "w") as f:
            json.dump(r, f, indent=1, sort_keys=True)
        prefix = "" if len(results) == 1 else name + "."
        for want in wanted:
            out_metrics[prefix + want["name"]] = {"value": r["metrics"][want["name"]][0],
                                                  "unit": want["unit"]}
        attempted += r["attempted"]
        failed += r["failed"]
        correct = correct and not r["errors"] and r["failed"] == 0

    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
