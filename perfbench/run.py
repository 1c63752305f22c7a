#!/usr/bin/env python3
"""The CATI repository benchmark: build, set up, run one workload, report.

Run from the repository root:

  python3 perfbench/run.py --workload infer-fp32 --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) and scratch files
to .bench_work/, both under the current directory. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 150

STAGES = ["Stage1", "Stage2-1", "Stage2-2", "Stage3-1", "Stage3-2", "Stage3-3"]

# Per-layer metric -> (layer, workload(s) that exercise it, end-to-end metric
# it should move there). Names, units and directions come from
# BENCHMARK.json; a workload that leaves a layer idle reports 0. The wall.*
# entries are the user-visible wall-clock latencies: on a shared host they
# spread too far from run to run to carry a bound (README.md, Steadiness).
INFER_CPU = "vucs_per_cpu_s, wall.binary_p50_ms"
WALL = "(itself: end to end, no bound)"
LAYER_MAP = {
    "wall.binary_p50_ms": ("all", "infer-fp32", WALL),
    "wall.request_p50_ms": ("all", "serve-int8", WALL),
    "wall.request_p95_ms": ("all", "serve-int8", WALL),
    "wall.slo_frac": ("all", "serve-int8", WALL),
    "wall.training_ms": ("all", "train-sharded", WALL),
    "loader.decode_ms": ("loader", "infer-fp32", INFER_CPU),
    "ir.lower_ms": ("ir", "infer-fp32", INFER_CPU),
    "loader.bytes_decoded": ("loader", "infer-fp32", INFER_CPU),
    "dataflow.recover_ms": ("dataflow", "infer-fp32", INFER_CPU),
    "dataflow.interproc_ms": ("dataflow", "infer-fp32", INFER_CPU),
    "corpus.extract_ms": ("corpus", "infer-fp32", INFER_CPU),
    "corpus.vucs_per_binary": ("corpus", "infer-fp32", INFER_CPU),
    "embed.encode_ms": ("embed", "infer-fp32", INFER_CPU),
    "nn.predict_ms": ("nn", "infer-fp32", INFER_CPU),
    "cati.vote_ms": ("cati", "infer-fp32", INFER_CPU),
    "serve.finish_ms": ("serve", "infer-fp32", INFER_CPU),
    "unattributed_ms": ("none", "infer-fp32", INFER_CPU),
    "trace.overhead_ms": ("obs", "infer-fp32", "wall.binary_p50_ms"),
    "nn.predict_calls_per_binary": ("cati", "infer-fp32", INFER_CPU),
    "nn.forwards_per_vuc": ("cati", "infer-fp32,serve-int8", "vucs_per_cpu_s"),
    "nn.lane_fill": ("nn", "infer-fp32,serve-int8", "vucs_per_cpu_s"),
    "nn.gflops": ("nn", "infer-fp32", INFER_CPU),
    "serve.hit_p50_ms": ("serve", "serve-int8", "wall.request_p50_ms"),
    "serve.miss_p50_ms": ("serve", "serve-int8", "wall.request_p95_ms"),
    "serve.reconf_p50_ms": ("loader", "serve-int8", "wall.request_p95_ms"),
    "serve.batch_ms": ("serve", "serve-int8", "wall.request_p95_ms"),
    "serve.group_size": ("serve", "serve-int8", "vucs_per_cpu_s"),
    "serve.coalesced_vucs_per_group": ("serve", "serve-int8", "vucs_per_cpu_s"),
    "serve.cache_hit_frac": ("serve", "serve-int8", "vucs_per_cpu_s"),
    "loader.cache_hit_frac": ("loader", "serve-int8", "vucs_per_cpu_s"),
    "serve.refused": ("serve", "serve-int8", "success_frac"),
    "gen.late_p95_ms": ("bench", "serve-int8", "wall.request_p95_ms"),
    "corpus.shard_decode_ms": ("corpus", "train-sharded", "vucs_per_cpu_s"),
    "train.prefetch_stall_ms": ("corpus", "train-sharded", "wall.training_ms"),
    "corpus.shards_read": ("corpus", "train-sharded", "vucs_per_cpu_s"),
    "embed.w2v_ms": ("embed", "train-sharded", "vucs_per_cpu_s"),
    "embed.tokens_per_s": ("embed", "train-sharded", "vucs_per_cpu_s"),
    "nn.adam_steps": ("nn", "train-sharded", "vucs_per_cpu_s"),
}
LAYER_MAP.update({"nn.train_stage_ms." + s: ("nn", "train-sharded", "vucs_per_cpu_s")
                  for s in STAGES})


def load_declared():
    """BENCHMARK.json's metrics: (end-to-end, per-layer), each a list of
    (name, unit)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


# --- statistics -----------------------------------------------------------------

def quantile(values, q):
    """Linear interpolation between closest ranks; q in [0, 1]."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of no values")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def supported_tail(values, min_beyond=10, ladder_permille=(500, 900, 950, 990, 999)):
    """The highest percentile of the ladder with at least `min_beyond` samples
    beyond it, with its value and the sample count; None below 20 samples."""
    n = len(values)
    best = None
    for pm in ladder_permille:
        if n * (1000 - pm) >= min_beyond * 1000:
            best = pm
    if best is None:
        return None
    return {"p": best / 10, "value": quantile(values, best / 1000), "n": n}


def describe(label, values, tail_pct):
    t = supported_tail(values)
    tail = "p%g=%.2f" % (t["p"], t["value"]) if t else "none"
    return ("%s: n=%d p50=%.2f p%g=%.2f; highest percentile with >=10 samples "
            "beyond it: %s" % (label, len(values), quantile(values, 0.5), tail_pct,
                               quantile(values, tail_pct / 100), tail))


# --- build and processes --------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("CATI sources (src/) not found next to perfbench/")
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "cati-serve"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir


def run_json(cmd, timeout):
    """Runs a perfbench command in its own process group (so a daemon it
    started cannot outlive a timeout) and parses the JSON object it prints."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError("timed out: " + " ".join(cmd))
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)  # strays of the group, if any
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError("failed (%d): %s" % (p.returncode, " ".join(cmd)))
    return json.loads(out)


def load_config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def params_of(cfg, name, bdir):
    w = cfg["workloads"][name]
    kv = dict(cfg["model"])
    kv.pop("note", None)
    kv.update(w["params"])
    kv["daemon"] = os.path.join(bdir, "cati-serve")
    return ["%s=%s" % (k, v) for k, v in kv.items()]


# --- metrics per workload -------------------------------------------------------

def end_to_end(workload, raw, w):
    """The bounded metrics. Timing is CPU time of the process doing the work
    (the daemon on serve-int8), which the kernel keeps free of time stolen
    by the host; wall-clock latencies are printed here and reported, without
    a bound, by the traced run."""
    m = {
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_frac": 1.0 - raw["failed"] / raw["attempted"],
        "type_accuracy": raw["correct"] / max(1, raw["matched"]),
    }
    if workload == "infer-fp32":
        m["vucs_per_cpu_s"] = raw["vucs"] / (sum(raw["cpu_ms"]) / 1e3)
        print("perfbench: " + describe("binary wall ms", raw["latency_ms"], w["tail_pct"]))
        print("perfbench: " + describe("binary CPU ms", raw["cpu_ms"], w["tail_pct"]))
    elif workload == "serve-int8":
        d = daemon_delta(raw)
        m["vucs_per_cpu_s"] = d.counter("serve.coalesced_vucs") / raw["daemon_cpu_s"]
        lat = [x for v in raw["latency_ms"].values() for x in v]
        print("perfbench: " + describe("request wall ms (from due time)", lat, w["tail_pct"]))
        print("perfbench: daemon CPU %.3f s, %.3f ms per request; %d of %d requests "
              "within the %g ms limit" % (
                  raw["daemon_cpu_s"], raw["daemon_cpu_s"] * 1e3 / raw["attempted"],
                  raw["slo_ok"], raw["attempted"], w["params"]["slo_ms"]))
    else:
        m["vucs_per_cpu_s"] = quantile(raw["samples_per_cpu_s"], 0.5)
        print("perfbench: " + describe("training wall ms", raw["train_ms"], w["tail_pct"]))
    return m


class Delta:
    """Daemon obs counters/histograms over the measured window."""

    def __init__(self, before, after):
        self.b, self.a = before, after

    def counter(self, name):
        return self.a["counters"].get(name, 0) - self.b["counters"].get(name, 0)

    def hsum(self, name):
        return (self.a["histograms"].get(name, {}).get("sum", 0)
                - self.b["histograms"].get(name, {}).get("sum", 0))

    def hcount(self, name):
        return (self.a["histograms"].get(name, {}).get("count", 0)
                - self.b["histograms"].get(name, {}).get("count", 0))


def daemon_delta(raw):
    return Delta(raw["metrics_before"], raw["metrics_after"])


def ratio(a, b):
    return a / b if b else 0.0


def hit_frac(d, cache):
    hits = d.counter(cache + ".hits")
    return ratio(hits, hits + d.counter(cache + ".misses"))


def per_layer(workload, raw, declared):
    layers = {name: 0.0 for name, _ in declared}
    if workload == "serve-int8":
        d = daemon_delta(raw)
        lat = raw["latency_ms"]
        vucs = d.counter("engine.infer.vucs")
        every = [x for v in lat.values() for x in v]
        layers.update({
            "wall.request_p50_ms": quantile(every, 0.5),
            "wall.request_p95_ms": quantile(every, 0.95),
            "wall.slo_frac": raw["slo_ok"] / raw["attempted"],
            "serve.hit_p50_ms": quantile(lat["repeat"], 0.5),
            "serve.miss_p50_ms": quantile(lat["novel"], 0.5),
            "serve.reconf_p50_ms": quantile(lat["reconf"], 0.5),
            "serve.batch_ms": ratio(d.hsum("serve.batch_ns"),
                                    d.hcount("serve.batch_ns")) / 1e6,
            "serve.group_size": ratio(d.hsum("serve.group_size"),
                                      d.hcount("serve.group_size")),
            "serve.coalesced_vucs_per_group": ratio(d.counter("serve.coalesced_vucs"),
                                                    d.counter("serve.groups")),
            "serve.cache_hit_frac": hit_frac(d, "serve.cache"),
            "loader.cache_hit_frac": hit_frac(d, "loader.cache"),
            "serve.refused": float(d.counter("serve.requests.overload")),
            "gen.late_p95_ms": quantile(raw["late_ms"], 0.95),
            "nn.forwards_per_vuc": ratio(
                sum(d.counter("engine.infer.samples." + s) for s in STAGES), vucs),
            "nn.lane_fill": ratio(vucs, vucs + d.counter("engine.infer.batch_pad")),
        })
    else:
        for k, v in raw["layers"].items():
            if k in layers:
                layers[k] = v
        if workload == "infer-fp32":
            layers["wall.binary_p50_ms"] = quantile(raw["untraced_ms"], 0.5)
        else:
            layers["wall.training_ms"] = quantile(raw["train_ms"], 0.5)
    return layers


def print_infer_table(raw):
    """The per-layer split of one analyzed binary; rows sum to the wall."""
    L = raw["layers"]
    rows = [
        ("loader.decode_ms", "container parse + disassemble (ir.lower_ms inside)"),
        ("dataflow.recover_ms", "recoverVariables(graph)"),
        ("dataflow.interproc_ms", "propagateCallFacts"),
        ("corpus.extract_ms", "Engine::prepareFunction (VUC extraction)"),
        ("nn.predict_ms", "Engine::predictVucs (embed.encode_ms inside)"),
        ("serve.finish_ms", "PreparedRequest::finish (cati.vote_ms inside)"),
        ("unattributed_ms", "glue between the calls"),
    ]
    wall = L["wall_ms"]
    print("perfbench: infer-fp32 per-layer split, ms per binary over %d binaries "
          "(%.1f functions each)" % (raw["images"], L["functions_per_binary"]))
    for name, what in rows:
        print("perfbench:   %-24s %9.3f  %5.1f%%  %s" % (
            name, L[name], 100 * L[name] / wall, what))
    print("perfbench:   %-24s %9.3f  100.0%%" % ("wall", wall))
    for name in ("ir.lower_ms", "embed.encode_ms", "cati.vote_ms"):
        print("perfbench:   (inside) %-15s %9.3f  re-timed beside the sequence" % (
            name, L[name]))
    print("perfbench: tracing overhead (program obs on vs off, analyzeImage): "
          "%.3f ms per binary = %.2f%% of %.3f ms untraced" % (
              L["trace.overhead_ms"], 100 * L["trace.overhead_frac"], L["trace.untraced_ms"]))
    print("perfbench: nn.gflops counts multiply-adds as 2 FLOPs, from the layer shapes")


# --- self-tests -----------------------------------------------------------------

def self_test(bdir):
    """Checks of the benchmark's own code; returns a list of failures."""
    bad = []

    def check(name, ok):
        if not ok:
            bad.append(name)

    check("quantile", quantile([1, 2, 3, 4], 0.5) == 2.5 and quantile([5], 0.9) == 5)
    t = supported_tail(list(range(1, 101)))
    check("tail_100", t is not None and t["p"] == 90 and t["n"] == 100)
    t = supported_tail(list(range(99)))
    check("tail_99", t is not None and t["p"] == 50 and t["n"] == 99)
    t = supported_tail(list(range(200)))
    check("tail_200", t is not None and t["p"] == 95)
    t = supported_tail(list(range(1000)))
    check("tail_1000", t is not None and t["p"] == 99 and t["n"] == 1000)
    check("tail_19", supported_tail(list(range(19))) is None)

    e2e, layers = load_declared()
    names = [n for n, _ in e2e + layers] + list(LAYER_MAP)
    check("metric_names", all(NAME_RE.match(n) and len(n) <= 64 for n in names))

    native = run_json([os.path.join(bdir, "perfbench"), "selftest"], 60)
    for k, ok in native["checks"].items():
        check("native." + k, ok)
    return bad


# --- main -----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    cfg = load_config()
    if not args.self_test and args.workload not in cfg["workloads"]:
        raise BenchError("unknown workload %r (have: %s)" % (
            args.workload, ", ".join(cfg["workloads"])))
    bdir = build()
    bad = self_test(bdir)
    if args.self_test:
        print("perfbench: self-test " + ("failed: " + ", ".join(bad) if bad else "passed"))
        return 1 if bad else 0
    if bad:
        raise BenchError("self-test failed: " + ", ".join(bad))

    declared_e2e, declared_layers = load_declared()
    w = cfg["workloads"][args.workload]
    exe = os.path.join(bdir, "perfbench")
    work = os.path.join(".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = params_of(cfg, args.workload, bdir) + [
        "seed=%d" % args.seed, "seconds=%r" % args.seconds, "trace=%d" % args.trace]

    # Set-up runs several times: its time is the median, and every repeat
    # must write byte-identical inputs and model. The time is the CPU time
    # of the set-up process (user + system, all threads), which unlike the
    # wall clock does not grow when other guests load the host.
    setup_times, digests = [], []
    for _ in range(w["setup_repeats"]):
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        digests.append(run_json([exe, "setup", args.workload, work] + common, RUN_TIMEOUT_S))
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        setup_times.append(r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime)
    setup_same = all(d == digests[0] for d in digests)

    raw = run_json([exe, "run", args.workload, work] + common, RUN_TIMEOUT_S)
    shutil.rmtree(".bench_work", ignore_errors=True)

    print("perfbench: workload=%s seed=%d seconds=%g trace=%d kernel=%s nproc=%d" % (
        args.workload, args.seed, args.seconds, args.trace, raw["kernel"], os.cpu_count() or 0))
    print("perfbench: params " + " ".join(common[:-3]))
    print("perfbench: setup_s (CPU s) runs " + " ".join("%.3f" % t for t in setup_times)
          + (" (identical outputs)" if setup_same else " (OUTPUTS DIFFER)"))
    accuracy = raw["correct"] / max(1, raw["matched"])
    mismatches = {k: raw[k] for k in ("report_mismatch", "compose_mismatch",
                                      "counter_mismatch", "verify_mismatch",
                                      "model_mismatch", "shards_mismatch")
                  if raw.get(k)}
    # Any failed operation (error, timeout, refusal, wrong reply type,
    # unclean diagnostics, a daemon that exits nonzero) fails the run.
    correct = (setup_same and not mismatches and raw.get("parsed", True)
               and raw["failed"] == 0 and not raw.get("conn_lost")
               and accuracy >= w["accuracy_floor"])
    print("perfbench: type_accuracy %.4f (%d/%d, floor %.2f)%s" % (
        accuracy, raw["correct"], raw["matched"], w["accuracy_floor"],
        "; mismatches %s" % mismatches if mismatches else ""))
    if raw["failed"] or raw.get("conn_lost"):
        print("perfbench: %d of %d operations failed%s" % (
            raw["failed"], raw["attempted"],
            "; a connection to the daemon was lost" if raw.get("conn_lost") else ""))
    if args.workload == "serve-int8":
        print("perfbench: %d requests, %d verified byte-identical to analyzeImage, %d refused" % (
            raw["attempted"], raw["verified"] - raw["verify_mismatch"], raw["refused"]))

    if args.trace:
        metrics = per_layer(args.workload, raw, declared_layers)
        print("perfbench: per-layer metrics of this workload (layer -> end-to-end metric moved)")
        for name, unit in declared_layers:
            layer, workloads, moves = LAYER_MAP[name]
            if args.workload in workloads.split(","):
                print("perfbench:   %-32s %14.4f %-8s %-8s -> %s" % (
                    name, metrics[name], unit, layer, moves))
        if args.workload == "infer-fp32":
            print_infer_table(raw)
            frac = raw["layers"]["unattributed_frac"]
            print("perfbench: unattributed %.2f%% of wall (bound 5%%)" % (100 * frac))
            correct = correct and frac <= 0.05
        units = dict(declared_layers)
    else:
        metrics = end_to_end(args.workload, raw, w)
        metrics["setup_s"] = statistics.median(setup_times)
        units = dict(declared_e2e)
    result = {
        "correct": bool(correct),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
