"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload sweep --seeds 1-10 [--trace 1] [--record FILE]

For every metric it prints the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure the benchmark's bounds are checked against.
``--record`` merges the runs, their traffic lines and the summary into a
JSON file, keyed by workload and trace mode.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    traffic = next(json.loads(l[len("traffic "):]) for l in lines if l.startswith("traffic "))
    return json.loads(lines[-1]), traffic


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="JSON file to merge this summary into")
    args = ap.parse_args(argv)
    results, traffic = [], []
    for seed in args.seeds:
        res, tr = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(res)
        traffic.append(tr)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={tr['wall_s']:.1f}s", flush=True)
    summary = summarise(results)
    for name, s in summary.items():
        print(f"  {name:34s} median {s['median']:12.6g} {s['unit']:6s} "
              f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {100 * s['spread']:6.2f}%")
    if args.record:
        data = {}
        if os.path.exists(args.record):
            with open(args.record) as fh:
                data = json.load(fh)
        data[f"{args.workload}/trace{args.trace}"] = {
            "seconds": args.seconds, "seeds": args.seeds, "summary": summary,
            "runs": [{"result": r, "traffic": t} for r, t in zip(results, traffic)]}
        with open(args.record, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
