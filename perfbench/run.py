#!/usr/bin/env python3
"""The repo benchmark: measured epoch, setup and memory of HongTu training.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds the `perfbench` program (perfbench/bench.cc) and the library from
source into .bench_build/, then runs the workload. Every workload run is a
fresh child process with a wall-clock timeout; a signal, a non-OK Status, a
timeout or a failed check counts as one failed run. Each run's losses are
checked against the dense single-device InMemoryEngine reference, which
runs in a child of its own.

Load model: a closed loop with one trainer. Each epoch starts when the
previous RunEpoch returns; one run executes at a time; in-process runs use
the default OpenMP team.

--trace 0 times 8 or 16 runs with tracing off, which together measure
--seconds of epochs, and prints the end-to-end metrics. --trace 1 runs one
untraced and one traced run; the traced run wraps the benchmark's calls
into each module in spans, replays two epochs from outside, writes the spans
as Chrome trace-event JSON under .bench_out/, and prints the per-layer
metrics. Human-readable rows go first; the last line of stdout is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = ".bench_run"
OUT_DIR = ".bench_out"

# name -> why it is in the benchmark. The shapes live in bench.cc.
WORKLOADS = {
    "gcn-it2004": "comm-bound: it-2004 web graph, GCN, 8 chunks; hybrid-cache "
                  "backward, 8 batches per layer to overlap",
    "gat-friendster": "compute-bound: friendster RMAT at scale 0.2, GAT, 64 "
                      "chunks; recompute backward, per-batch overhead",
    "sage-reddit": "bypass: reddit SBM, SAGE, 1 chunk; nothing to overlap or "
                   "reuse, fixed per-epoch costs show",
    "gcn-cluster": "gcn-it2004's config run by 4 worker processes over uds: "
                   "prices the process boundary",
}

# Timed runs per --trace 0 invocation, which share --seconds of epochs.
# RUNS_MAX when setup is cheaper than a run's share of epochs: more first
# epochs and setups, spread over more of the host's load swings. RUNS_MIN
# when it is dearer, so the invocation's time goes to epochs, not setups.
RUNS_MIN = 8
RUNS_MAX = 16
CHECK_EPOCHS = 3    # epochs whose loss must match the reference
MIN_EPOCHS = 4      # CHECK_EPOCHS plus at least one warm epoch
REF_EPOCHS = 5
BUDGET_S = 170.0    # the whole invocation, build excluded
MB = 1.0 / (1 << 20)

END_TO_END = [
    ("epoch_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed in the rows but not in the result: epoch1_s, one sample per run,
# swings with host steal by more than any bound the benchmark may set;
# device_peak_mb is in-process only; failed_frac is 0 on every clean run
# (the result's attempted/failed fields carry it).

PER_LAYER = [
    ("graph.load_s", "s"),
    ("partition.build_s", "s"),
    ("comm.reorganize_s", "s"),
    ("comm.plan_s", "s"),
    ("comm.v_ori_rows", "count"),
    ("comm.v_p2p_rows", "count"),
    ("comm.v_ru_rows", "count"),
    ("comm.saved_frac", "ratio"),
    ("comm.load_s", "s"),
    ("comm.accum_s", "s"),
    ("comm.h2d_mb", "MB"),
    ("comm.d2d_mb", "MB"),
    ("comm.ru_mb", "MB"),
    ("kernels.sched_build_s", "s"),
    ("kernels.sched_mb", "MB"),
    ("gnn.fwd_s.l0", "s"),
    ("gnn.fwd_s.l1", "s"),
    ("gnn.fwd_s.l2", "s"),
    ("gnn.bwd_s.l0", "s"),
    ("gnn.bwd_s.l1", "s"),
    ("gnn.bwd_s.l2", "s"),
    ("gnn.loss_s", "s"),
    ("tensor.adam_s", "s"),
    ("tensor.steady_allocs", "count"),
    ("tensor.pool_hits", "count"),
    ("tensor.host_peak_mb", "MB"),
    ("sim.epoch_s", "s"),
    ("sim.gpu_s", "s"),
    ("sim.h2d_s", "s"),
    ("sim.d2d_s", "s"),
    ("sim.cpu_s", "s"),
    ("sim.overlap_s", "s"),
    ("engine.epoch_s_p90", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.ckpt_save_s", "s"),
    ("net.start_s", "s"),
    ("net.recovery_s", "s"),
    ("net.respawns", "count"),
    ("net.recovery_events", "count"),
    ("baseline.inmem_epoch_s", "s"),
    ("baseline.inmem_device_peak_mb", "MB"),
    ("trace.overhead_s", "s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the perfbench program; returns its path or
    None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hongtu", "hongtu.h")):
        log("perfbench: no library sources under src/; cannot build")
        return None
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


# ---- Host noise --------------------------------------------------------------

def cpu_times():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
        return [int(x) for x in fields]
    except (OSError, ValueError):
        return []


def load1():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0


def steal_frac(t0, t1):
    """Share of CPU time stolen by the hypervisor between two samples."""
    if len(t0) < 8 or len(t1) < 8:
        return 0.0
    total = sum(t1[:8]) - sum(t0[:8])
    return (t1[7] - t0[7]) / total if total > 0 else 0.0


# ---- Children ----------------------------------------------------------------

def reap_group(pgid):
    """Kills whatever is left of a child's process group (cluster workers
    included) and waits until none of it remains."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def child_env():
    # The benchmark measures engine defaults: no HONGTU_* knob leaks in.
    return {k: v for k, v in os.environ.items() if not k.startswith("HONGTU_")}


def run_child(exe, mode, args, deadline):
    """Runs one child; returns (record, noise). `record` is the child's JSON
    with "ok" false and an "error" when it failed in any way."""
    timeout = deadline - time.monotonic()
    noise = {"load1": load1(), "steal": 0.0, "omp": None}
    if timeout < 1.0:
        return {"ok": False, "error": "no time left in the run budget"}, noise
    cmd = [exe, mode] + args
    t0 = cpu_times()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True, env=child_env())
    try:
        out, err = p.communicate(timeout=timeout)
        rc = p.returncode
    except subprocess.TimeoutExpired:
        reap_group(p.pid)
        out, err = p.communicate()
        rc = None
    finally:
        reap_group(p.pid)
    noise["steal"] = steal_frac(t0, cpu_times())
    rec = None
    lines = out.strip().splitlines()
    if lines:
        try:
            rec = json.loads(lines[-1])
        except ValueError:
            rec = None
    if rc is None:
        rec = {"ok": False, "error": "timeout after %.0f s" % timeout}
    elif rc < 0:
        rec = {"ok": False, "error": "killed by signal %d" % -rc}
    elif rec is None or rc != 0:
        why = (rec or {}).get("error") or "exit code %d" % rc
        rec = {"ok": False, "error": why}
    if not rec.get("ok"):
        tail = err.strip().splitlines()[-3:]
        log("perfbench: %s %s failed: %s%s" % (
            mode, " ".join(args[:2]), rec["error"],
            "".join("\n    " + t for t in tail)))
    noise["omp"] = rec.get("omp_threads")
    return rec, noise


# ---- Checks ------------------------------------------------------------------

def loss_close(a, b):
    return abs(a - b) <= 2e-3 * max(1.0, abs(b))


def check_run(rec, ref, in_process):
    """Returns the list of failed checks of one run (empty when correct)."""
    if not rec.get("ok"):
        return [rec.get("error", "failed")]
    bad = []
    if not ref.get("ok"):
        bad.append("no dense reference: " + ref.get("error", "failed"))
    else:
        losses = rec["loss"]
        if len(losses) < CHECK_EPOCHS:
            bad.append("only %d epochs ran" % len(losses))
        for k in range(min(CHECK_EPOCHS, len(losses))):
            if not loss_close(losses[k], ref["loss"][k]):
                bad.append("epoch %d loss %.6g != reference %.6g" % (
                    k, losses[k], ref["loss"][k]))
        for k, loss in enumerate(rec.get("replay_loss", [])):
            if not loss_close(loss, ref["loss"][k]):
                bad.append("replayed epoch %d loss %.6g != reference %.6g" % (
                    k, loss, ref["loss"][k]))
    if any(rec["recovery"]) or rec.get("respawns", 0):
        bad.append("recovery events on a clean run")
    if in_process:
        for key in ("h2d_bytes", "d2d_bytes", "ru_bytes", "cpu_accum_bytes"):
            if len(set(rec[key])) > 1:
                bad.append("%s differs between epochs" % key)
    return bad


# ---- Statistics --------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else None


def tail_pct(n):
    """The highest percentile with at least ten samples beyond it."""
    return max(0, int(100 * (1 - 10.0 / n))) if n >= 20 else None


def describe(xs):
    """'median ... (p.. ..., n=...)' for a list of timings."""
    if not xs:
        return "n/a"
    s = "median %.6g (n=%d" % (statistics.median(xs), len(xs))
    p = tail_pct(len(xs))
    if p is not None:
        q = sorted(xs)[min(len(xs) - 1, int(len(xs) * p / 100.0))]
        s += ", p%d %.6g" % (p, q)
    elif len(xs) > 1:
        s += ", max %.6g" % max(xs)
    return s + ")"


def fmt(v):
    return "n/a" if v is None else "%.6g" % v


def rss_mb(rec):
    return rec["self_rss_mb"] + rec.get("workers_rss_mb", 0.0)


# ---- Workload invocations ----------------------------------------------------

def run_one(exe, opts, workload, mode, tag, deadline, extra):
    """One child run in a working directory of its own (the cluster keeps
    its sockets, journal and checkpoints there), removed afterwards."""
    run_dir = os.path.join(RUN_DIR, "%s-s%d-p%d-%s" % (
        workload, opts.seed, os.getpid(), tag))
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--run-dir", run_dir] + extra
    if opts.scale:
        args += ["--scale", repr(opts.scale)]
    if opts.dataset:
        args += ["--dataset", opts.dataset]
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    try:
        return run_child(exe, mode, args, deadline)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)


def print_noise(noises):
    loads = [n["load1"] for n in noises]
    steals = [100.0 * n["steal"] for n in noises]
    omps = sorted({n["omp"] for n in noises if n["omp"] is not None})
    print("  noise: nproc %d, omp team %s, load1 %s, steal%% %s (kept, "
          "per run)" % (os.cpu_count() or 0, omps or "n/a",
                        " ".join("%.2f" % x for x in loads),
                        " ".join("%.1f" % x for x in steals)))


def print_baseline(ref, in_process):
    if not ref.get("ok"):
        print("  baseline (informational): n/a (%s)" % ref.get("error"))
        return
    print("  baseline (informational, InMemoryEngine, 1 device): "
          "inmem_epoch_s %s, inmem_device_peak_mb %.6g%s" % (
              describe(ref["epoch_wall"][1:]),
              max(ref["device_peak_bytes"]) * MB,
              "" if in_process else " (the cluster has no simulated device)"))


def measure(exe, opts, workload, deadline):
    """--trace 0: the end-to-end metrics of one workload."""
    in_process = workload != "gcn-cluster"
    ref, ref_noise = run_one(exe, opts, workload, "ref", "ref", deadline,
                             ["--epochs", str(REF_EPOCHS)])
    runs = RUNS_MAX
    per_run = opts.seconds / runs
    recs, noises, verdicts = [], [ref_noise], []
    longest = 0.0
    while len(recs) < runs:
        # A slow host gets fewer runs rather than runs cut by the budget.
        if recs and deadline - time.monotonic() < 1.5 * longest:
            runs = len(recs)
            break
        started = time.monotonic()
        rec, noise = run_one(exe, opts, workload, "run", "r%d" % len(recs),
                             deadline, ["--seconds", repr(per_run),
                                        "--epochs", str(MIN_EPOCHS)])
        longest = max(longest, time.monotonic() - started)
        recs.append(rec)
        noises.append(noise)
        verdicts.append(check_run(rec, ref, in_process))
        if len(recs) == 1 and rec.get("ok") and rec["setup_s"] > per_run:
            runs = RUNS_MIN
            per_run = max(0.0, opts.seconds - sum(rec["epoch_wall"])) / (
                runs - 1)
    good = [r for r, v in zip(recs, verdicts) if not v]
    failed = sum(1 for v in verdicts if v)
    warm = [w for r in good for w in r["epoch_wall"][1:]]
    values = {
        "epoch_s": median(warm),
        "epoch1_s": median([r["epoch_wall"][0] for r in good]),
        "setup_s": median([r["setup_s"] for r in good]),
        "peak_rss_mb": median([rss_mb(r) for r in good]),
        "device_peak_mb": median([max(r["device_peak_bytes"]) * MB
                                  for r in good]) if in_process else None,
        "failed_frac": failed / float(runs),
    }

    print("workload %s  seed %d  (%s)" % (workload, opts.seed,
                                         WORKLOADS[workload]))
    print("  correct: %s  runs attempted %d, failed %d" % (
        "yes" if failed == 0 else "NO", runs, failed))
    for k, v in enumerate(verdicts):
        if v:
            print("    run %d failed: %s" % (k, "; ".join(v)))
    print("  epoch_s        %s s  %s" % (fmt(values["epoch_s"]),
                                         describe(warm)))
    print("  epoch1_s       %s s  %s" % (
        fmt(values["epoch1_s"]),
        describe([r["epoch_wall"][0] for r in good])))
    print("  setup_s        %s s  %s" % (
        fmt(values["setup_s"]), describe([r["setup_s"] for r in good])))
    print("  peak_rss_mb    %s MB  (median of %d runs%s)" % (
        fmt(values["peak_rss_mb"]), len(good),
        "" if in_process or not good else
        "; coordinator plus its %d workers, summed" % good[0]["workers"]))
    print("  device_peak_mb %s MB  (simulated per-device peak%s)" % (
        fmt(values["device_peak_mb"]),
        "" if in_process else "; n/a for the cluster"))
    print("  failed_frac    %.6g ratio  (%d of %d runs)" % (
        values["failed_frac"], failed, runs))
    if good:
        print("  dataset: %d vertices, %d edges; input generation %s s "
              "(not in setup_s)" % (good[0]["num_vertices"],
                                   good[0]["num_edges"],
                                   fmt(median([r["load_s"] for r in good]))))
    print_noise(noises)
    print_baseline(ref, in_process)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END if values[name] is not None}
    return {"correct": failed == 0, "attempted": runs, "failed": failed,
            "metrics": metrics, "values": values}


def trace(exe, opts, workload, deadline):
    """--trace 1: one untraced and one traced run; the per-layer metrics."""
    in_process = workload != "gcn-cluster"
    ref, ref_noise = run_one(exe, opts, workload, "ref", "ref", deadline,
                             ["--epochs", str(REF_EPOCHS)])
    half = repr(opts.seconds / 2.0)
    plain, plain_noise = run_one(exe, opts, workload, "run", "plain",
                                 deadline, ["--seconds", half,
                                            "--epochs", str(MIN_EPOCHS)])
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    spans = os.path.join(OUT_DIR, "trace-%s-s%d.json" % (workload, opts.seed))
    traced, traced_noise = run_one(exe, opts, workload, "trace", "trace",
                                   deadline, ["--seconds", half,
                                              "--epochs", str(MIN_EPOCHS),
                                              "--spans", spans])
    verdicts = [check_run(plain, ref, in_process),
                check_run(traced, ref, in_process)]
    if traced.get("ok"):
        try:
            with open(os.path.join(ROOT, spans)) as f:
                events = json.load(f)["traceEvents"]
            if len(events) != traced["spans"]:
                verdicts[1].append("span file holds %d of %d spans" % (
                    len(events), traced["spans"]))
        except (OSError, ValueError, KeyError) as e:
            verdicts[1].append("span file unreadable: %s" % e)
    failed = sum(1 for v in verdicts if v)

    values = dict(traced.get("metrics", {})) if not verdicts[1] else {}
    if values and ref.get("ok"):
        values["baseline.inmem_epoch_s"] = median(ref["epoch_wall"][1:])
        values["baseline.inmem_device_peak_mb"] = (
            max(ref["device_peak_bytes"]) * MB)
    if values and not verdicts[0]:
        values["trace.overhead_s"] = (median(traced["epoch_wall"][1:]) -
                                      median(plain["epoch_wall"][1:]))

    print("workload %s  seed %d  traced (%s)" % (workload, opts.seed,
                                                WORKLOADS[workload]))
    print("  correct: %s  runs attempted 2 (untraced + traced), failed %d" % (
        "yes" if failed == 0 else "NO", failed))
    for name, v in zip(("untraced", "traced"), verdicts):
        if v:
            print("    %s run failed: %s" % (name, "; ".join(v)))
    if not verdicts[1]:
        print("  spans: %s (%d spans, Chrome trace-event JSON)" % (
            spans, traced["spans"]))
        print("  replayed epoch losses %s against reference %s" % (
            " ".join(fmt(x) for x in traced["replay_loss"]),
            " ".join(fmt(x) for x in ref["loss"][:len(traced["replay_loss"])])
            if ref.get("ok") else "n/a"))
    for name, unit in PER_LAYER:
        note = ""
        if name == "engine.epoch_s_p90" and not verdicts[1]:
            note = "  (n=%d warm epochs)" % traced["p90_samples"]
        elif name.startswith("net.") and in_process:
            note = "  (n/a in-process)"
        elif name.startswith("sim.") and not in_process:
            note = "  (n/a: no simulated platform)"
        elif name.startswith("kernels.") and not in_process:
            note = "  (the cluster builds no schedules)"
        elif name.split(".")[0] in ("comm", "tensor") and \
                name.endswith(("_mb", "allocs", "hits")) and not in_process:
            note = "  (n/a: the cluster reports no EpochStats counters)"
        elif name.startswith("baseline."):
            note = "  (informational)"
        elif name == "trace.overhead_s":
            note = "  (traced minus untraced epoch_s)"
        print("  %-30s %s %s%s" % (name, fmt(values.get(name)), unit, note))
    print_noise([ref_noise, plain_noise, traced_noise])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER if name in values}
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: shrink the inputs, or name a dataset to force failures.
    ap.add_argument("--scale", type=float, default=0.0, help=argparse.SUPPRESS)
    ap.add_argument("--dataset", default="", help=argparse.SUPPRESS)
    opts = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    workloads = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    step = trace if opts.trace else measure
    results = {}
    for w in workloads:
        # The per-invocation budget applies per workload under "all".
        results[w] = step(exe, opts, w, time.monotonic() + BUDGET_S)
        shutil.rmtree(os.path.join(ROOT, RUN_DIR), ignore_errors=True)

    if len(workloads) == 1:
        r = results[workloads[0]]
        out = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
        if not opts.trace:
            for w, r in results.items():
                out["metrics"]["%s.failed_frac" % w] = {
                    "value": r["values"]["failed_frac"], "unit": "ratio"}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
