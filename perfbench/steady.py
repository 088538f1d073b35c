#!/usr/bin/env python3
"""Steadiness runner: repeat benchmark workloads over seeds and report spreads.

    python3 perfbench/steady.py --workload mixed_serve --runs 10
    python3 perfbench/steady.py --workload paper_batch \
        --workload hotspot_serve --runs 10 --sets 2 \
        --json .bench_build/steady.json

Each run is `perfbench/run.py --workload W --seed N --seconds S --trace T`
with a fresh seed. For every metric the runner prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. With BENCHMARK.json's
end-to-end bounds it marks each spread against its bound (and against a
third of it, the target for a steady metric); with --sets 2 it makes a
second set of runs on fresh seeds and checks that no median got worse than
the first set's by more than the bound. setup_s is exempt from the spread
check but not from the median check, as in the acceptance rule.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    seed = args.first_seed
    for workload in args.workload:
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                metrics = run_once(workload, seed, seconds, args.trace)
                runs.append({"seed": seed, "metrics": metrics})
                seed += 1
            sets.append(runs)
        record["workloads"][workload] = sets
        print(f"\n{workload} ({args.runs} runs x {args.sets} set(s), "
              f"{seconds} s each, trace {args.trace})")
        print(f"{'metric':34} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        names = list(sets[0][0]["metrics"])
        for name in names:
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name] for r in runs]
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                meta = bounds.get(name)
                verdict = ""
                if meta is not None and name != "setup_s":
                    if spread > meta["bound"]:
                        verdict, ok = "SPREAD OVER BOUND", False
                    elif spread > meta["bound"] / 3:
                        verdict = "spread over bound/3"
                    else:
                        verdict = "steady"
                bound = f"{meta['bound']:.2f}" if meta else "-"
                print(f"{name:34} {s + 1:>3} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:>6}  {verdict}")
            if len(medians) == 2 and name in bounds:
                drift = worse_by(medians[0], medians[1], bounds[name]["better"])
                if drift > bounds[name]["bound"]:
                    ok = False
                print(f"{'':34} second median worse by {drift:+.3f} "
                      f"({'FAIL' if drift > bounds[name]['bound'] else 'ok'})")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(record, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
