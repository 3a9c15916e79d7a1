#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/parbench.cpp against ../src,
runs rounds of one workload as separate processes for --seconds, checks
every round, and prints the end-to-end metrics (or, with --trace 1, the
per-layer metrics) as the last line of stdout, one JSON object.

    python3 perfbench/run.py --workload matcher_small --seed 1 \
        --seconds 35 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory, as do the traced
rounds' span files and the service's journal directories, which are
removed after each round. Exit code 0 means every round passed its checks.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("matcher_small", "matcher_large", "serve_durable")
MIN_ROUNDS = 3          # rounds in a --trace 0 run
ROUND_TIMEOUT_S = 150   # one round; a run must end within 180 s
DEADLINE_S = 160        # no round starts after this many seconds

# Metric names and units come from BENCHMARK.json, next to this directory.
# A round prints the end-to-end figures under "metrics" and the per-layer
# ones under "layer", named as there; run.py adds the two trace.* metrics.
#
# latency_tail_us is the per-call latency of insert_edges/delete_edges on
# the matcher workloads (p99 on matcher_small, p90 on matcher_large) and
# the due-to-commit latency at 1M updates/s on serve_durable (p99).
# updates_per_s on serve_durable is the unpaced commit rate. These are the
# names each workload gives them:
NAMES = {
    "matcher_small": {"lat_p50_us": "batch_p50_us",
                      "latency_tail_us": "batch_p99_us"},
    "matcher_large": {"lat_p50_us": "batch_p50_us",
                      "latency_tail_us": "batch_p90_us"},
    "serve_durable": {"updates_per_s": "sat_commit_per_s",
                      "lat_p50_us": "commit_p50_us",
                      "latency_tail_us": "commit_p99_us"},
}


def log(msg):
    print(msg, flush=True)


def build(build_dir):
    """Configures and builds parbench; returns its path or None."""
    out = build_dir / "perfbench"
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", "2"]]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {cmd[0]} failed: {e}", file=sys.stderr)
            return None
        if p.returncode != 0:
            print(p.stdout, file=sys.stderr)
            print("perfbench: build failed", file=sys.stderr)
            return None
    exe = out / "parbench"
    return exe if exe.exists() else None


def run_round(exe, args, traced, build_dir, timeout):
    """Runs one round process; returns its parsed JSON line, or a failed
    stand-in when it crashed, hung, or printed nothing parseable."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0",
           "--trace-out", str(build_dir / "perfbench-trace" /
                              f"{args.workload}.spans.tsv"),
           "--tmp", str(build_dir / "perfbench-tmp")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": f"round exceeded {timeout:.0f} s"}
    try:
        r = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "errors": f"round exited {p.returncode} "
                                       "without a result"}
    if p.returncode != 0:
        r["ok"] = False
    return r


def median(rounds, get):
    return statistics.median(get(r) for r in rounds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("PARMATCH_"))
    if knobs:
        print("perfbench: refusing to run with " + ", ".join(knobs) +
              " set; the benchmark measures the library's defaults",
              file=sys.stderr)
        return 2

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    exe = build(build_dir)
    if exe is None:
        return 1
    shutil.rmtree(build_dir / "perfbench-tmp", ignore_errors=True)
    for d in ("perfbench-tmp", "perfbench-trace"):
        (build_dir / d).mkdir(parents=True, exist_ok=True)

    # Rounds until --seconds have passed. With --trace 1 rounds alternate
    # untraced/traced, so the tracing overhead compares like with like.
    rounds = []
    start = time.monotonic()
    min_rounds = 4 if args.trace else MIN_ROUNDS
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed >= args.seconds:
            break
        if len(rounds) >= 2 and elapsed >= DEADLINE_S:
            break
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        r = run_round(exe, args, traced, build_dir,
                      max(10.0, ROUND_TIMEOUT_S - elapsed))
        r["traced"] = traced
        r["wall_s"] = time.monotonic() - t0
        rounds.append(r)
        if not r["ok"]:
            break  # a failed check ends the run

    errors = [r.get("errors", "") for r in rounds if not r["ok"]]
    fingerprints = sorted({r.get("fingerprint", "") for r in rounds})
    if args.workload != "serve_durable" and len(fingerprints) > 1:
        errors.append("state_fingerprint differs between rounds of one "
                      "seed: " + " ".join(fingerprints))
    correct = not errors
    attempted = sum(r.get("updates", 0) for r in rounds) or 1
    failed = 0 if correct else attempted

    names = NAMES[args.workload]
    log(f"perfbench {args.workload} seed={args.seed} rounds={len(rounds)} "
        f"trace={args.trace}")
    log("round traced   wall_s  setup_s   updates/s     p50_us    tail_us"
        "  workers cutover fused_frac fingerprint      ok")
    for i, r in enumerate(rounds):
        if "layer" not in r:
            log(f"{i:5d} failed: {r.get('errors', '')}")
            continue
        L, M = r["layer"], r["metrics"]
        log(f"{i:5d} {int(r['traced']):6d} {r['wall_s']:8.2f} "
            f"{M['setup_s']:8.4f} {M['updates_per_s']:11.0f} "
            f"{r['lat_p50_us']:10.2f} {M['latency_tail_us']:10.2f} "
            f"{L.get('parallel.workers', 0):8.0f} "
            f"{L.get('parallel.phase_cutover', 0):7.0f} "
            f"{L.get('dyn.fused_frac', 0):10.3f} {r['fingerprint']} "
            f"{'yes' if r['ok'] else 'NO: ' + r['errors']}")
    for e in errors:
        log("CHECK FAILED: " + e)

    metrics = {}
    untraced = [r for r in rounds if r["ok"] and not r["traced"]]
    traced = [r for r in rounds if r["ok"] and r["traced"]]
    if correct:
        first = untraced[0]
        log(f"end-to-end, median of {len(untraced)} untraced rounds "
            f"(hardware_concurrency="
            f"{first['layer']['parallel.hardware_concurrency']:.0f}):")
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            v = median(untraced, lambda r: r["metrics"][name])
            note = ""
            if name == "latency_tail_us":
                note = (f" (p{first['lat_tail_q'] * 100:.0f} of "
                        f"{first['lat_samples']:.0f} samples/round, "
                        f"{first['lat_beyond']:.0f} beyond)")
            log(f"  {name:16s} {v:16.4f} {unit:3s} = "
                f"{names.get(name, name)}{note}")
            if not args.trace:
                metrics[name] = {"value": v, "unit": unit}
        log(f"  {'':16s} {median(untraced, lambda r: r['lat_p50_us']):16.4f}"
            f" us  = {names['lat_p50_us']} (no bound, see README)")
        log(f"  {'failed_frac':16s} {failed / attempted:16.4f}")
        if args.workload == "serve_durable":
            for k in ("serve.svc_p50_us", "serve.svc_p99_us",
                      "gen.lag_p99_us", "gen.late_frac"):
                v = median(untraced, lambda r: r["layer"][k])
                log(f"  {k:24s} {v:12.4f}")

    if args.trace and correct and traced:
        base = median(untraced, lambda r: r["metrics"]["updates_per_s"])
        with_trace = median(traced, lambda r: r["metrics"]["updates_per_s"])
        computed = {"trace.overhead_frac": base / with_trace - 1.0,
                    "trace.spans": median(traced, lambda r: r["spans"])}
        log(f"per-layer, median of {len(traced)} traced rounds (spans in "
            f"{build_dir / 'perfbench-trace'}):")
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            applies = name in computed or name in traced[0]["layer"]
            v = computed[name] if name in computed else median(
                traced, lambda r: r["layer"].get(name, 0.0))
            metrics[name] = {"value": v, "unit": unit}
            log(f"  {name:32s} {v:16.6f} {unit}{'' if applies else '  n/a'}")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
