"""Benchmark harness for numsgps.

Run from the repository root:

    python3 bench/run.py --workload large_f --seed 1 --seconds 30 --trace 0

The harness imports the library from ``src/`` of the checkout it lives
in, builds the workload's inputs from ``--seed``, and repeats the
workload's fixed work (one *rep*) until ``--seconds`` have passed.  Every
rep starts from a fresh import and freshly built inputs, so no state of
the library outlives a rep.  A rep is a list of short operations; an
operation's latency is the time of its calls into the library, and a
rep's time is the sum of those.

Times are CPU time of this process (``time.process_time``).  The work is
single-threaded and does no I/O, so that is its wall time less the time
the host ran something else on the CPU.  A shared host also changes the
speed of the CPU it does give, by up to 1.8x, in phases lasting from
milliseconds to minutes, so a raw time tells as much about the host's
other tenants as about the library.  The harness therefore times a fixed
pure-Python *probe* before every operation and reports each time as its
mean over the run's reps times PROBE_NOMINAL_S / (mean probe time): in
seconds at the speed at which the probe takes PROBE_NOMINAL_S.  A slow
phase stretches the probe and the library alike and cancels out; a
change to the library moves only the library's side.  The first rep,
which runs the output checks between its operations, is left out of the
times.  Operations are kept short (about 0.1 s at most), so that the
probes around them see the same mix of host phases.

Outputs of the first rep are checked against a second route (closed
forms, brute-force oracles, published or pinned values); later reps must
reproduce them exactly.  Checking and bookkeeping happen outside the
timed calls.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` reps alternate
between untraced and traced; the traced ones record a span around every
call into a library layer, and the JSON carries the per-layer metrics
(self time per layer, counts, and the tracing overhead).  Spans stay in
memory and are written to ``.bench_out/`` at exit.

Exit status: 0 when every output checked out, 1 when some did not (the
JSON is still printed), 2 when the library cannot be imported from the
checkout (nothing is printed on stdout).
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import LAYER_COUNTS, LAYER_SPANS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up (import plus input generation) is done this many times before
# the reps, and again before each rep; its median is reported.
SETUP_REPS = 10
# Fewest reps per run; the first is not timed.
MIN_REPS = 3
# The probe's time at full speed on the machine the benchmark was written
# on (2-core VM, Python 3.11); reported times are scaled to that speed.
PROBE_NOMINAL_S = 0.00027

clock = time.process_time


def probe() -> int:
    """Fixed interpreter work, independent of numsgps, that gauges host speed.

    Like the library it builds small sets of integers, sorts and copies
    them; of the probes tried, this one tracked the library's speed best.
    """
    out = 0
    for k in range(12):
        members = frozenset(range(k, 600, 7))
        out += len(tuple(sorted(members | {3 * x for x in members})))
    return out


def time_probe() -> float:
    gc.disable()
    t0 = clock()
    probe()
    dt = clock() - t0
    gc.enable()
    return dt


def import_library():
    """Import numsgps afresh from this checkout's ``src/``.

    Any copy already imported is dropped first, so repeated calls time
    the module set-up itself.  A numsgps found anywhere else (an
    installed copy, say) is refused: the benchmark measures this tree.
    """
    for name in [m for m in sys.modules if m == "numsgps" or m.startswith("numsgps.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numsgps
    if Path(numsgps.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"numsgps was imported from {numsgps.__file__}, not from {SRC}")
    return numsgps


# -- tracing -------------------------------------------------------------

class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def no_span(name):
    """The span factory of an untraced rep: records nothing."""
    return _NULL_SPAN


class Tracer:
    """In-memory spans of one rep: (id, name, query, parent, start, end).

    ``query`` is the index of the operation the span belongs to, shared
    by every span opened while that operation runs.
    """

    def __init__(self):
        self.spans = []
        self.query = None
        self._open = []

    def __call__(self, name):
        return _Span(self, name)

    def self_times(self) -> list[tuple[str, float]]:
        """(name, duration less the time covered by child spans) of each span."""
        covered = [0.0] * len(self.spans)
        for sid, _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, end - start - covered[sid])
                for sid, name, _, _, start, end in self.spans]

    def records(self, rep: int) -> list[dict]:
        return [{"id": sid, "name": name, "query": query, "parent": parent,
                 "start": start, "end": end, "rep": rep}
                for sid, name, query, parent, start, end in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.parent = t._open[-1] if t._open else None
        self.sid = len(t.spans)
        t.spans.append(None)
        t._open.append(self.sid)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        end = clock()
        t = self.tracer
        t._open.pop()
        t.spans[self.sid] = (self.sid, self.name, t.query, self.parent, self.start, end)
        return False


# -- one rep -------------------------------------------------------------

class RepResult:
    def __init__(self):
        self.total = 0.0
        self.times = []        # per operation, in order
        self.probes = []       # probe time before each operation
        self.counts: dict[str, int] = {}
        self.digests = []
        self.failures: dict[int, list[str]] = {}   # op index -> what went wrong

    def fail(self, qid: int, msg: str):
        self.failures.setdefault(qid, []).append(msg)


def run_rep(ops, span, check: bool) -> RepResult:
    """Run every operation once, timing only its calls into the library.

    With ``check`` set each output goes through its operation's full
    check; otherwise only its digest is kept, to compare with the first rep.
    """
    rep = RepResult()
    state: dict = {}
    for qid, op in enumerate(ops):
        if isinstance(span, Tracer):
            span.query = qid
        rep.probes.append(time_probe())
        t0 = clock()
        try:
            with span("query"):
                result = op.run(span, state)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            crash = exc
        else:
            crash = None
        dt = clock() - t0
        rep.total += dt
        rep.times.append(dt)
        if crash is not None:
            rep.fail(qid, f"raised {crash!r}")
            rep.digests.append(None)
            continue
        digest, counts = op.summarize(result)
        rep.digests.append(digest)
        for k, v in counts.items():
            rep.counts[k] = rep.counts.get(k, 0) + v
        if check:
            for msg in op.check(result):
                rep.fail(qid, msg)
        del result
    return rep


# -- the run -------------------------------------------------------------

def quantile(values, q):
    """Inclusive-method quantile at q in (0, 1), as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def measure(workload, seed: int, seconds: float, trace: bool):
    setup_times, setup_probes = [], []

    def setup():
        setup_probes.append(time_probe())
        t0 = clock()
        lib = import_library()
        ops = workload.build(lib, random.Random(seed))
        setup_times.append(clock() - t0)
        return ops

    for _ in range(SETUP_REPS):
        setup()

    reps, traced, traces = [], [], []
    failures = []
    first = None
    start = time.perf_counter()
    while True:
        index = len(reps) + len(traced)
        tracing = trace and index % 2 == 1
        tracer = Tracer() if tracing else None
        ops = setup()
        # Each rep starts from an empty young generation, and the
        # collector skips the harness's own objects, so collection work
        # inside the timed calls is the library's alone.  Unfreezing
        # afterwards lets the next collection free the last rep's library.
        gc.collect()
        gc.freeze()
        rep = run_rep(ops, tracer or no_span, check=first is None)
        gc.unfreeze()
        if first is None:
            first = rep
        for qid, (want, got) in enumerate(zip(first.digests, rep.digests)):
            if want != got and qid not in rep.failures:
                rep.fail(qid, "output differs from the first rep")
        failures += [f"rep {index}, {ops[qid].label}: {'; '.join(msgs)}"
                     for qid, msgs in sorted(rep.failures.items())]
        if rep is not first:
            rep.digests = None  # compared; keeping them would grow memory with the rep count
        (traced if tracing else reps).append(rep)
        if tracing:
            traces.append(tracer)
        if time.perf_counter() - start >= seconds and index + 1 >= MIN_REPS * (1 + trace):
            break

    attempted = len(ops) * (len(reps) + len(traced))
    failed = len(failures)
    if trace:
        metrics = layer_metrics(workload, reps[1:], traced, traces)
        write_trace(workload.name, seed, traces)
    else:
        setup_s = statistics.median(setup_times) * PROBE_NOMINAL_S / statistics.median(setup_probes)
        metrics = end_to_end_metrics(workload, ops, setup_s, reps[1:])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, failures


def probe_scale(reps) -> float:
    """PROBE_NOMINAL_S over the mean probe time of these reps."""
    return PROBE_NOMINAL_S / statistics.fmean(t for r in reps for t in r.probes)


def op_times(reps) -> list[float]:
    """Each operation's mean time over the reps, scaled by their probes."""
    scale = probe_scale(reps)
    return [statistics.fmean(times) * scale for times in zip(*(r.times for r in reps))]


def end_to_end_metrics(workload, ops, setup_s, reps):
    totals = [r.total for r in reps]
    times = op_times(reps)
    cpu = sum(times)
    lat = [t for t, op in zip(times, ops) if op.in_percentiles]
    units = workload.units(reps[0])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "cpu_s": (cpu, "s"),
        "throughput_per_s": (units / cpu, "1/s"),
        "query_p50_s": (quantile(lat, 0.5), "s"),
        "query_p90_s": (quantile(lat, 0.9), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    probes = [t for r in reps for t in r.probes]
    print(f"# {workload.name}: {len(reps)} timed reps of {len(times)} operations, "
          f"{units} {workload.units_name} per rep", flush=True)
    print("# raw rep times " + " ".join(f"{t:.4f}" for t in totals))
    print(f"# probe min {min(probes):.6f} mean {statistics.fmean(probes):.6f} "
          f"max {max(probes):.6f} s over {len(probes)} probes")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(workload, reps, traced, traces):
    # Every traced rep opens the same spans in the same order; each span is
    # taken at its mean over the reps, scaled as operations are.
    scale = probe_scale(traced)
    per_span = zip(*(t.self_times() for t in traces))
    values = {name + "_s": (0.0, "s") for name in LAYER_SPANS}
    for same_span in per_span:
        name = same_span[0][0]
        if name + "_s" in values:
            mean = statistics.fmean(t for _, t in same_span)
            values[name + "_s"] = (values[name + "_s"][0] + mean * scale, "s")
    counts = traced[0].counts
    for name in LAYER_COUNTS:
        values[name] = (counts.get(name, 0), "count")
    untraced = sum(op_times(reps))
    traced_cpu = sum(op_times(traced))
    values["trace.untraced_cpu_s"] = (untraced, "s")
    values["trace.traced_cpu_s"] = (traced_cpu, "s")
    values["trace.overhead_ratio"] = (traced_cpu / untraced, "ratio")
    print(f"# {workload.name}: {len(reps)} untraced and {len(traced)} traced reps; "
          f"tracing overhead {100 * (traced_cpu / untraced - 1):+.2f}%", flush=True)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def write_trace(name, seed, traces):
    OUT_DIR.mkdir(exist_ok=True)
    spans = [rec for i, t in enumerate(traces) for rec in t.records(i)]
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "spans": spans}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import numsgps from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, failures = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"# fail_frac {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    for k, m in result["metrics"].items():
        print(f"# {k} {m['value']!r} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
