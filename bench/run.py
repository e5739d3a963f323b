"""Benchmark of the fdtc package: end-to-end metrics, or per-layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <words_warm|powers_deep|cli_cold>
                         --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop with one caller in a single process (for
cli_cold, one child process at a time); why each was chosen is recorded
in bench/workloads.json.  Inputs come from --seed; every result is
checked against the hand-written references in bench/references.json.

With --trace 0 the run measures for --seconds and reports the end-to-end
metrics: set-up time (median of SETUP_REPS set-ups spread over the
run), median and 90th percentile op latency, completed ops per second
and peak resident memory.  With --trace 1 it first checks the tracer on
a tiny case with known counts, then runs each op twice, untraced and
traced in alternating order, and reports the per-layer metrics plus the
tracing overhead; spans go to bench/.out/.

Every time reported is at the reference speed of bench/calibrate.py:
the loop times a fixed probe of its own between ops and rescales each op
and set-up by how fast the host ran the probe around it, so that the
host's drift does not move the figures.  The wall-clock figures are
printed beside them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

from calibrate import child_process, in_process

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
WORKLOADS = ("words_warm", "powers_deep", "cli_cold")
SETUP_REPS = 21
# a run ends by this many seconds after its start, so that it exits within
# its time limit however slow the ops get: a cli_cold request still
# running then is killed, and the ops of the unit not started count as
# failed
RUN_DEADLINE_S = 165.0


class Outcome:
    """Latencies and failure counts of one timed loop.  Each latency is
    kept with its calibration mark until ``rescale`` turns it into time
    at the reference speed."""

    def __init__(self):
        self.latencies = []
        self.wall = []
        self.marks = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.failures = []

    def record(self, seconds, ok, what, mark=None):
        self.attempted += 1
        if seconds is not None:
            self.wall.append(seconds)
            self.marks.append(mark)
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def rescale(self, cal):
        self.latencies = [cal.rescale(s, m) for s, m in zip(self.wall, self.marks)]

    @property
    def elapsed(self):
        return sum(self.latencies)

    @property
    def ops_per_s(self):
        return (self.attempted - self.failed) / self.elapsed


def percentile(values, q):
    """Nearest-rank percentile: at least (1-q) of the samples lie at or
    above it, n - ceil(q n) of them strictly beyond its rank."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_package():
    """Import fdtc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fdtc" / "__init__.py").is_file():
        raise SystemExit("bench: no fdtc package under %s" % src)
    sys.path.insert(0, str(src))
    # set-ups after the first load cached bytecode, as from an installed
    # package, whatever the environment says
    sys.dont_write_bytecode = False
    import fdtc

    if Path(fdtc.__file__).resolve().parent != (src / "fdtc").resolve():
        raise SystemExit("bench: fdtc imported from %s, not %s"
                         % (fdtc.__file__, src))


def closed_loop(work, units, seconds, cal, trace=False):
    """Run whole units (lists of ops) of ``work`` until ``seconds`` of op
    time have passed; returns the untraced and the traced outcome and the
    set-up times, rescaled by ``cal``, a ``Calibration`` of
    bench/calibrate.py.

    An untraced run sets up SETUP_REPS times, spread evenly over the
    ``seconds`` and the first before any op, so that the median set-up
    samples the machine over the same window as the ops; set-up time is
    not op time.  A traced run sets up once, and runs each op twice,
    untraced and traced, in alternating order, so that both see the same
    machine conditions.  Each outcome is timed by its ops alone."""
    plain, traced = Outcome(), Outcome()
    modes = (False, True) if trace else (False,)
    reps = 1 if trace else SETUP_REPS
    deadline = START + RUN_DEADLINE_S
    clock = time.perf_counter
    start = clock()
    setups = []
    setup_wall = 0.0
    op_id = 0
    for unit in units:
        for op in unit:
            busy = clock() - start - setup_wall - cal.spent
            if (len(setups) < reps and busy >= len(setups) * seconds / reps
                    and clock() < deadline):
                # the garbage of the ops and of the last set-up is
                # collected untimed, so that every set-up starts alike
                gc.collect()
                cal.maybe_sample()
                setups.append((work.setup(), cal.mark()))
                setup_wall += setups[-1][0]
            for with_trace in (modes if op_id % 2 == 0 else modes[::-1]):
                out = traced if with_trace else plain
                if clock() >= deadline:
                    out.record(None, False, "not started before the run deadline")
                else:
                    cal.maybe_sample()
                    out.record(*work.run_op(op, op_id, with_trace), cal.mark())
            op_id += 1
        if (clock() - start - setup_wall - cal.spent >= seconds
                or clock() >= deadline):
            break
    # a last sample, so that the last ops have one after them
    cal.sample()
    plain.rescale(cal)
    traced.rescale(cal)
    return plain, traced, [cal.rescale(s, m) for s, m in setups]


def tracer_self_check(refs):
    """T_a T_b on a cold one-holed torus: one bracket at N = 31 and one
    curve shortening per twist curve."""
    from library import Library
    from tracer import Tracer

    lib = Library(refs, ("S11",))
    tracer = Tracer()
    with tracer:
        value = lib.exact("S11", "S", [("twist", "a", 1), ("twist", "b", 1)])
    got = {"value": value,
           "fdtc.key_lemma_interval.calls":
               tracer.calls.get("fdtc.key_lemma_interval", 0),
           "fdtc.N_max": tracer.counters["n_max"],
           "engine.shorten_curve.calls": tracer.calls.get("engine.shorten_curve", 0)}
    want = {"value": Fraction(1, 6), "fdtc.key_lemma_interval.calls": 1,
            "fdtc.N_max": 31, "engine.shorten_curve.calls": 2}
    print("tracer self-check: %s" % ("ok" if got == want else
                                     "FAILED: got %s, want %s" % (got, want)))
    return got == want


def run_library(name, seed, seconds, trace):
    from library import Workload

    refs = load_refs()
    if not trace:
        work = Workload(name, refs)
        out, _, setup = closed_loop(work, work.units(seed), seconds,
                                   in_process())
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out, setup, None
    from tracer import Tracer

    check_ok = tracer_self_check(refs)
    work = Workload(name, refs, Tracer())
    untraced, traced, setup = closed_loop(work, work.units(seed), seconds,
                                          in_process(), True)
    OUT.mkdir(exist_ok=True)
    work.tracer.write_spans(OUT / ("%s-seed%d.spans" % (name, seed)))
    return traced, setup, (check_ok, untraced, work.tracer.summary())


def run_cli(seed, seconds, trace):
    from cli_cold import Runner, make_block

    refs = load_refs()
    block = make_block(random.Random(seed), refs)
    if not trace:
        runner = Runner(ROOT, OUT / "cli", block, START + RUN_DEADLINE_S)
        out, _, setup = closed_loop(runner, runner.units(), seconds,
                                    child_process())
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return out, setup, None
    from tracer import empty_summary, merge, merge_span_files

    check_ok = tracer_self_check(refs)
    trace_dir = OUT / "cli-trace"
    if trace_dir.exists():
        shutil.rmtree(trace_dir)
    trace_dir.mkdir(parents=True)
    runner = Runner(ROOT, OUT / "cli", block, START + RUN_DEADLINE_S,
                    trace_dir)
    untraced, traced, setup = closed_loop(runner, runner.units(), seconds,
                                          child_process(), True)
    summary = empty_summary()
    prefixes = sorted((p.with_suffix("") for p in trace_dir.glob("op-*.json")),
                      key=lambda p: int(p.name[3:]))
    for prefix in prefixes:
        merge(summary, json.loads(prefix.with_suffix(".json").read_text()))
    merge_span_files([p.with_suffix(".spans") for p in prefixes],
                     OUT / ("cli_cold-seed%d.spans" % seed))
    return traced, setup, (check_ok, untraced, summary)


# -- reporting -------------------------------------------------------------------


def load_refs():
    return json.loads((BENCH / "references.json").read_text())


def end_to_end(out, setup):
    n = len(out.latencies)
    metrics = {
        "setup_s": (sorted(setup)[len(setup) // 2], "s",
                    "median of %d set-ups" % len(setup)),
        "op_ms_p50": (1000 * percentile(out.latencies, 0.5), "ms", "n=%d" % n),
        "op_ms_p90": (1000 * percentile(out.latencies, 0.9), "ms",
                      "n=%d, %d beyond" % (n, n - math.ceil(0.9 * n))),
        "ops_per_s": (out.ops_per_s, "1/s",
                      "%d ok ops in %.2f s" % (out.attempted - out.failed,
                                               out.elapsed)),
        "peak_rss_mb": (out.peak_rss_mb, "MB", "n=%d" % n),
    }
    if n - math.ceil(0.9 * n) < 10:
        print("warning: fewer than 10 samples beyond p90")
    print("fail_share    %.4f  (%d failed of %d attempted)"
          % (out.failed / out.attempted, out.failed, out.attempted))
    for name, (value, unit, note) in metrics.items():
        print("%-13s %.6g %s  (%s)" % (name, value, unit, note))
    print("wall clock:   p50 %.6g ms, p90 %.6g ms, %.6g ops/s"
          % (1000 * percentile(out.wall, 0.5), 1000 * percentile(out.wall, 0.9),
             (out.attempted - out.failed) / sum(out.wall)))
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def per_layer(traced, extra):
    from tracer import layer_metrics, per_layer_units, self_time_shares

    check_ok, untraced, summary = extra
    values = layer_metrics(summary)
    values["trace.ops_per_s_untraced"] = untraced.ops_per_s
    values["trace.ops_per_s_traced"] = traced.ops_per_s
    values["trace.overhead_ratio"] = (untraced.ops_per_s / traced.ops_per_s
                                      if traced.ops_per_s else 0.0)
    print("self-time shares (largest first):")
    for share, name in self_time_shares(summary)[:8]:
        print("  %5.1f%%  %s" % (100 * share, name))
    units = per_layer_units()
    for name in units:
        print("%-45s %.6g %s" % (name, values[name], units[name]))
    return check_ok, {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    load_package()

    if args.workload == "cli_cold":
        out, setup, extra = run_cli(args.seed, args.seconds, args.trace)
    else:
        out, setup, extra = run_library(args.workload, args.seed,
                                        args.seconds, args.trace)
    print("workload %s, seed %d, trace %d: %d ops, %d failed, %.2f s"
          % (args.workload, args.seed, args.trace, out.attempted, out.failed,
             out.elapsed))
    for what in out.failures:
        print("failed: %s" % what)
    correct = out.failed == 0
    if args.trace:
        check_ok, metrics = per_layer(out, extra)
        correct = correct and check_ok and extra[1].failed == 0
    else:
        metrics = end_to_end(out, setup)
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
