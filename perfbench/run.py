"""Benchmark of the eichler library: one command, every metric, checked results.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory):

* ``battery``  -- ``eichler verify-all --full`` once per fresh interpreter;
* ``tabulate`` -- fixed weights, many seeded points, five operation families;
* ``sweep``    -- every operation at a weight new to the interpreter.

Load shape: closed loop, one client, one process and thread.  Each pass is a
fresh interpreter (``worker.py``) that imports the library, runs a warm-up
operation (together: the set-up time), then the workload's seeded operation
list; passes repeat until ``--seconds`` of operation time are measured, so
every pass of a run does the same work.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is the JSON result; the lines before it
name every metric with its unit.  The exit code is 0 when every correctness
check passed, 1 when one failed, and 2 when a pass could not run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("battery", "tabulate", "sweep")
MIN_SETUPS = 7        # set-up samples per run; passes supply some, set-up-only children the rest
HARD_LIMIT_S = 170.0  # a run never outlives this, whatever --seconds says

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class PassError(RuntimeError):
    """A child interpreter failed to produce a result."""


def _child_env():
    env = dict(os.environ)
    env.pop("EICHLER_THREADS", None)  # the default single-threaded path is measured
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(cfg, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("time limit reached before the pass could start")
    cfg = dict(cfg, spawned=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise PassError(f"{cfg['mode']} pass exceeded the time limit") from exc
    if proc.returncode != 0:
        raise PassError(f"{cfg['mode']} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise PassError(f"{cfg['mode']} pass printed no result:\n{proc.stdout[-2000:]}") from exc


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def _machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": rev}


def _end_to_end(passes, setups):
    lat = [x for p in passes for x in p["latencies"]]
    return {"setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * _quantile(lat, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def _per_layer(traced, untraced):
    """Per-layer metrics of one pass: counts from the first traced pass, times as medians."""
    first = traced[0]["trace"]
    funcs, counts = first["functions"], first["counts"]

    def med(fn):  # times, at the nominal machine speed
        return statistics.median(fn(p["trace"]) * p["speed_factor"] for p in traced)

    def layer(t, name, key):
        return t["layers"].get(name, {}).get(key, 0)

    def fcalls(name):
        return funcs.get(name, [0, 0.0])[0]

    def fincl(t, name):
        return t["functions"].get(name, [0, 0.0])[1]

    out = {}
    for name in ("algebra", "specfun", "cocycles", "averages", "harmonic", "quantum"):
        out[f"{name}.calls"] = (layer(first, name, "calls"), "count")
        out[f"{name}.self_s"] = (med(lambda t, n=name: layer(t, n, "self_s")), "s")
    out["algebra.multiplier_evals"] = (fcalls("algebra.multiplier_eval"), "count")
    out["algebra.power_branch_calls"] = (fcalls("algebra.power_branch"), "count")
    evals = fcalls("specfun.eta_power_eval")
    out["specfun.eta_evals"] = (evals, "count")
    out["specfun.eta_eval_us"] = (
        med(lambda t: 1e6 * fincl(t, "specfun.eta_power_eval")) / evals if evals else 0.0, "us")
    out["specfun.eta_coeffs_calls"] = (fcalls("specfun.eta_power_coeffs"), "count")
    out["specfun.eta_coeffs_s"] = (med(lambda t: fincl(t, "specfun.eta_power_coeffs")), "s")
    out["specfun.coeff_cache_misses"] = (first["coeff_cache_misses"] or 0, "count")
    out["specfun.lerch_calls"] = (fcalls("specfun.hurwitz_lerch_detailed"), "count")
    out["specfun.incgamma_calls"] = (fcalls("specfun.incomplete_gamma"), "count")
    integrals = fcalls("quadrature.contour_integral")
    nodes = counts.get("quadrature.nodes", 0)
    quad_s = med(lambda t: layer(t, "quadrature", "outer_s"))
    out["quadrature.integrals"] = (integrals, "count")
    out["quadrature.self_s"] = (med(lambda t: layer(t, "quadrature", "self_s")), "s")
    out["quadrature.nodes"] = (nodes, "count")
    out["quadrature.nodes_per_integral"] = (nodes / integrals if integrals else 0.0, "count")
    out["quadrature.nodes_per_s"] = (nodes / quad_s if quad_s else 0.0, "1/s")
    out["quadrature.unconverged"] = (counts.get("quadrature.unconverged", 0), "count")
    out["cocycles.period_calls"] = (fcalls("cocycles.period_function"), "count")
    terms = counts.get("averages.terms", 0)
    avg_s = med(lambda t: layer(t, "averages", "outer_s"))
    out["averages.terms"] = (terms, "count")
    out["averages.terms_per_s"] = (terms / avg_s if avg_s else 0.0, "1/s")
    out["cli.self_s"] = (med(lambda t: layer(t, "cli", "self_s")), "s")
    overhead = (statistics.median(p["pass_s"] for p in traced)
                / statistics.median(p["pass_s"] for p in untraced) - 1.0)
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def _work_counts(p):
    t = p["trace"]
    return (t["counts"], {k: v[0] for k, v in t["functions"].items()}, t["coeff_cache_misses"])


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    base = {"workload": workload, "seed": seed}
    out_dir = os.path.join(HERE, "out")
    # the spot-check child runs first, outside every timed region
    spot = _child(dict(base, mode="spot"), deadline)
    passes = []
    measured = 0.0
    while measured < seconds or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        cfg = dict(base, mode="pass", trace=traced)
        if traced and not any(p["traced"] for p in passes):
            os.makedirs(out_dir, exist_ok=True)
            cfg["trace_out"] = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        p = _child(cfg, deadline)
        p["traced"] = traced
        passes.append(p)
        measured += p["raw_pass_s"]
    setup_runs = [p for p in passes if not p["traced"]]
    while not trace and len(setup_runs) < MIN_SETUPS:  # traced runs report no set-up time
        setup_runs.append(_child(dict(base, mode="setup"), deadline))
    setups = [p["setup_s"] for p in setup_runs]

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = [f for p in passes for f in p["failures"]]
    problems += [f"spot-check {c['name']}: rel err {c['rel_err']:.3g} > {c['tol']:g}"
                 for c in spot["spot"] if not c["ok"]]
    attempted = sum(len(p["latencies"]) for p in passes) + len(spot["spot"])
    failed = sum(p["failed"] for p in passes) + sum(not c["ok"] for c in spot["spot"])
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes over the same inputs returned different values"
                        + (" (traced vs untraced)" if trace else ""))
        failed += 1
    if traced and any(_work_counts(p) != _work_counts(traced[0]) for p in traced):
        problems.append("traced passes over the same inputs did different work")
        failed += 1
    if trace:
        metrics = _per_layer(traced, untraced)
    else:
        metrics = {k: (v, dict(END_TO_END)[k]) for k, v in _end_to_end(untraced, setups).items()}

    ops_per_pass = len(passes[0]["latencies"])
    raw = [x for p in untraced for x in p["raw_latencies"]]
    traffic = dict(workload=workload, seed=seed, passes=len(passes), ops_per_pass=ops_per_pass,
                   latency_samples=len(raw), setup_samples=len(setups), trace=bool(trace),
                   **passes[0].get("traffic", {}),
                   speed_factor=statistics.median(p["speed_factor"] for p in passes),
                   raw_op_p50_ms=1e3 * statistics.median(raw),
                   raw_setup_s=statistics.median(p["setup_raw_s"] for p in setup_runs),
                   machine=dict(_machine(), **spot["versions"]),
                   wall_s=time.monotonic() - start)
    print(f"workload {workload}  seed {seed}  {len(passes)} passes x {ops_per_pass} ops"
          f"  ({traffic['latency_samples']} latency samples, {len(setups)} set-ups)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    print("traffic " + json.dumps(traffic))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
