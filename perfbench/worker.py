"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py '<config json>'

Config keys: ``workload``, ``seed``, ``mode`` ("pass", "setup" or "spot"),
``trace`` (bool), ``spawned`` (the parent's ``time.monotonic()`` just
before it started this process) and ``trace_out`` (where a traced pass
writes its spans).  ``run.py`` starts this script; it is not a user entry
point.
"""

import cmath
import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time


def _setup(workload):
    """Import the library and run the warm-up operation; returns (E, W)."""
    import workloads as W

    if workload == "battery":
        import eichler.cli

        code, _ = eichler.cli.run(list(W.BATTERY_WARMUP_ARGV))
        if code != 0:
            raise SystemExit(f"warm-up CLI call exited {code}")
        return eichler, W
    import eichler

    warm = W.tabulate_warmup() if workload == "tabulate" else W.sweep_warmup()
    for family, args in warm:
        W.OPS[family](eichler, *args)
    return eichler, W


def _operations(E, W, workload, seed):
    if workload == "battery":
        return W.BATTERY_OPS
    if workload == "tabulate":
        return W.tabulate_ops(E, seed)
    return W.sweep_ops(seed)


def _ref_power(base, exponent, lo):
    arg = cmath.phase(base)
    arg -= 2.0 * math.pi * math.floor((arg - lo) / (2.0 * math.pi))
    return cmath.exp(exponent * complex(math.log(abs(base)), arg))


def reference_loop():
    """Fixed pure-Python work in the library's style that never touches eichler.

    The machine's speed drifts by tens of percent within minutes (other
    tenants on the same cores); timing this loop next to the operations
    measures that drift, and every reported time is scaled to the speed at
    which one loop takes REF_NOMINAL_S.  It mimics the hot scalar loops (a
    branched power, a running sum, a sliding window), whose speed follows
    the drift more closely than a bare arithmetic loop's does.
    """
    acc, z, w = 0j, 0.5 - 0.3j, 1.0 + 0j
    window = []
    for _ in range(10000):
        term = w * _ref_power(1j * z, -1.3 + 0.1j, -math.pi)
        acc += term
        window.append(abs(term))
        if len(window) > 10:
            window.pop(0)
        w *= 0.999
        z += 1.0
    return acc


REF_NOMINAL_S = 0.012
REF_EVERY_S = 0.25   # probe period, on a SIGALRM timer while operations run
REF_SETUP_PROBES = 5  # probes right after set-up
REF_WINDOW_S = 1.0   # probes this close to an operation set its speed


class Probe:
    """Runs the reference loop every REF_EVERY_S, even inside a long library call.

    The handler runs between bytecodes of the main thread, so each probe is
    atomic with respect to the code it interrupts; `clock` subtracts the time
    spent probing, which keeps probes out of every measured duration.
    """

    def __init__(self):
        self.samples = []  # (start, end) of each probe, perf_counter time
        self.spent = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append((t0, t1))
        self.spent += t1 - t0

    def clock(self):
        """perf_counter minus the time spent in probes so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start=None, end=None):
        """REF_NOMINAL_S over the mean probe time near [start, end] (all, if None).

        Probes fire at even intervals, so their mean is the time-weighted
        speed over the interval, which is what stretched the operation.
        """
        every = [t1 - t0 for t0, t1 in self.samples]
        near = [t1 - t0 for t0, t1 in self.samples
                if start is None or start - REF_WINDOW_S <= t0 <= end + REF_WINDOW_S]
        return REF_NOMINAL_S / statistics.fmean(near or every)


def _run_ops(E, W, ops, recorder, probe):
    """Run the list; returns (real start, real end, duration) per op, failures, digest."""
    digest = hashlib.sha256()
    spans = []
    failures = []
    with probe.running():
        for family, args in ops:
            ctx = recorder.span(family) if recorder is not None else contextlib.nullcontext()
            r0, v0 = time.perf_counter(), probe.clock()
            try:
                with ctx:
                    values, residual, tol = W.OPS[family](E, *args)
            except E.EichlerError as exc:
                values, residual, tol = f"{type(exc).__name__}: {exc}", math.nan, 0.0
            v1, r1 = probe.clock(), time.perf_counter()
            spans.append((r0, r1, v1 - v0))
            digest.update(repr((family, values, residual)).encode())
            if not residual <= tol:
                failures.append(f"{family}{args!r}: " + (values if isinstance(values, str)
                                                         else f"residual {residual!r} > {tol!r}"))
    if not probe.samples:  # a pass shorter than one probe period
        probe.sample()
    return spans, failures, digest.hexdigest()


def _coeff_misses(E):
    # read-only view of the coefficient cache, for as long as it exists
    coeff = getattr(E.specfun, "_eta_coeff_tuple", None)
    return coeff.cache_info().misses if hasattr(coeff, "cache_info") else None


def _trace_summary(E, recorder, cache_before):
    totals = recorder.layer_totals()
    misses = _coeff_misses(E)
    if misses is not None:
        misses -= cache_before
    return {"layers": totals["layers"], "functions": totals["functions"],
            "counts": recorder.counts, "coeff_cache_misses": misses,
            "spans": len(recorder.spans)}


def main(argv):
    cfg = json.loads(argv[1])
    workload, seed, mode = cfg["workload"], int(cfg["seed"]), cfg["mode"]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "spot":
        import eichler
        import mpmath
        import numpy
        import scipy
        import spotcheck
        import workloads as W

        versions = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                    "mpmath": mpmath.__version__}
        print(json.dumps({"spot": spotcheck.run(eichler, W, workload, seed),
                          "versions": versions}))
        return 0
    E, W = _setup(workload)
    setup_s = time.monotonic() - cfg["spawned"]
    # a fresh interpreter runs the loop slowly until it has specialised it,
    # so one unmeasured run goes first
    reference_loop()
    probe = Probe()
    for _ in range(REF_SETUP_PROBES):
        probe.sample()
    out = {"setup_s": setup_s * probe.factor(), "setup_raw_s": setup_s}
    if mode == "pass":
        ops = _operations(E, W, workload, seed)
        probe = Probe()
        recorder = cache_before = None
        if cfg.get("trace"):
            import tracer

            cache_before = _coeff_misses(E)
            recorder = tracer.Recorder(clock=probe.clock).install()
        spans, failures, digest = _run_ops(E, W, ops, recorder, probe)
        factor = probe.factor()
        raw_pass_s = sum(d for _, _, d in spans)
        out.update(latencies=[d * probe.factor(r0, r1) for r0, r1, d in spans],
                   raw_latencies=[d for _, _, d in spans],
                   pass_s=raw_pass_s * factor, raw_pass_s=raw_pass_s, speed_factor=factor,
                   failures=failures[:20], failed=len(failures), digest=digest,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if workload != "battery":
            out["traffic"] = W.describe(ops)
        if recorder is not None:
            recorder.uninstall()
            out["trace"] = _trace_summary(E, recorder, cache_before)
            if cfg.get("trace_out"):
                with open(cfg["trace_out"], "w") as fh:
                    json.dump(recorder.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
