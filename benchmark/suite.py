#!/usr/bin/env python3
"""Runs the benchmark's workloads one process at a time, as the driver does.

    suite.py [--seed N] [--seconds S] [--quick]
        every workload untraced, then traced; writes out/results.json
    suite.py --aa [--seed N]
        two untraced sets of the same build back to back; prints each
        end-to-end metric's relative difference beside its bound, writes
        out/aa/aa-seed<N>.json, exits 1 if any difference exceeds its bound
    suite.py --spread [--seed N] [--workload NAME ...]
        ten seeds per workload; prints each end-to-end metric's quartile
        distance as a share of its median beside its bound (the driver's
        acceptance test for the benchmark itself)

Every mode exits non-zero if any operation of any run failed. Started by
benchmark/run.sh, which builds first; run it directly only after a build.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPREAD_RUNS = 10


def output_of(command):
    try:
        return subprocess.run(command, cwd=ROOT, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_once(spec, workload, seed, seconds, trace, quick=False, echo=True):
    """One run in its own process: (record, driver result); echoes its listing."""
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    records = [line[len("RECORD "):] for line in lines if line.startswith("RECORD ")]
    if not records:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode} without a result")
    for line in lines if echo else []:
        if not line.startswith(("RECORD ", "{")):
            print(line, flush=True)
    return json.loads(records[-1]), json.loads(lines[-1])


def fingerprint(args):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    return {
        "git_commit": output_of(["git", "rev-parse", "HEAD"]),
        "rustc": output_of(["rustc", "--version"]),
        "log_fs_type": output_of(["stat", "-f", "-c", "%T", os.path.join(HERE, "out")]),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "epoch_interval_ms": 10,
        "flush_policy": "fsync per group commit",
    }


def write_json(relative, body):
    path = os.path.join(HERE, "out", relative)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(body, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def run_all(spec, args):
    failed = 0
    rows = []
    for trace in (False, True):
        for w in spec["workloads"]:
            record, _ = run_once(spec, w["name"], args.seed, args.seconds, trace, args.quick)
            failed += record["failed"]
            rows.append(record)
    write_json("results.json", {"fingerprint": fingerprint(args), "runs": rows})
    print(f"# total failed operations: {failed}")
    return failed == 0


def run_aa(spec, args):
    sets = [
        {w["name"]: run_once(spec, w["name"], args.seed, args.seconds, False)[0] for w in spec["workloads"]}
        for _ in range(2)
    ]
    ok = True
    rows = []
    print(f"{'workload':<14} {'metric':<16} {'first':>14} {'second':>14} {'diff':>9} {'bound':>6}")
    for w in spec["workloads"]:
        first, second = (s[w["name"]] for s in sets)
        ok &= first["failed"] == 0 and second["failed"] == 0
        for m in spec["end_to_end"]:
            x, y = (s["metrics"][m["name"]]["value"] for s in (first, second))
            diff = abs(y - x) / x if x else float("inf")
            within = diff <= m["bound"]
            ok &= within
            print(f"{w['name']:<14} {m['name']:<16} {x:>14.4f} {y:>14.4f} {diff * 100:>8.2f}% "
                  f"{m['bound'] * 100:>5.0f}% {'' if within else 'EXCEEDS'}")
            rows.append({"workload": w["name"], "metric": m["name"], "first": x, "second": y,
                         "relative_difference": diff, "bound": m["bound"], "within": within})
    write_json(f"aa/aa-seed{args.seed}.json", {
        "fingerprint": fingerprint(args),
        "failed_operations": sum(r["failed"] for s in sets for r in s.values()),
        "comparisons": rows,
    })
    print("# A/A " + ("agrees within every bound" if ok else "DISAGREES"))
    return ok


def run_spread(spec, args):
    worst = 0.0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.seed, args.seed + SPREAD_RUNS):
            _, result = run_once(spec, workload, seed, args.seconds, False, echo=False)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{workload:<13} {m['name']:<15} median {median:>14.4f} {m['unit']:<4} "
                  f"spread {spread * 100:6.2f}%  bound {m['bound'] * 100:4.0f}%  "
                  f"min {min(v):.4f} max {max(v):.4f}", flush=True)
    print(f"worst spread is {worst:.2f} of its bound (aim below 0.33)")
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.4 if args.quick else spec["run_seconds"]
    mode = run_aa if args.aa else run_spread if args.spread else run_all
    sys.exit(0 if mode(spec, args) else 1)


if __name__ == "__main__":
    main()
