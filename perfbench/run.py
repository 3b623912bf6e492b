"""ddseries benchmark: one closed-loop client against the library or the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ddseries checkout; the library is imported from
``./src``.  One client in one process sends its next job only when the
previous one has finished, so no two jobs overlap, and BLAS/OpenMP threads
are capped at the CPU count.  Every job's output is checked by an
independent oracle outside the timed window; a job fails if it raises,
exits non-zero or fails its oracle.

``--trace 0`` times the jobs untraced and prints the end-to-end metrics.
``--trace 1`` runs each job twice in a row, untraced and then with every
public layer function wrapped in spans, and prints the per-layer metrics.  The last line
of standard output is one JSON object; metric names and units come from
BENCHMARK.json.  A fuller report, and the spans of a traced run, are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import speed as speed_probe

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5        # set-ups per run: this process's, then fresh ones between jobs
SETUP_BUDGET_S = 10.0    # no new set-up starts once the set-ups have taken this long
TAIL_BEYOND = 10         # the tail percentile keeps at least this many jobs above it
RUN_LIMIT_S = 140.0      # stop timing by then, so the run ends well inside 180 s

# top-level calls whose cost growth is fitted: function -> job op it serves
COST_FITS = {"series.mul": "mul", "series.exp_series": "exp_series",
             "double.mul2": "mul2", "compose.exp2": "exp2"}


def cap_threads() -> int:
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


class Phase:
    """Latencies and outcomes of one closed-loop phase.

    `latency` holds the measured times; after `finish`, `scaled` holds them
    at the reference machine speed (see speed.py), and the metrics use those.
    `busy` runs ahead of `scaled` with the latest probe, so that a phase
    times the same amount of work however fast the machine is just then.
    """

    def __init__(self):
        self.latency: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.ops: list[str] = []
        self.sizes: list[int] = []
        self.failures: list[tuple[int, str]] = []
        self.busy = 0.0
        self.factors: list[float] = []
        self.scaled: list[float] = []

    @property
    def jobs(self) -> int:
        return len(self.latency)

    def finish(self, speed) -> None:
        self.factors = [speed.factor(t0, t1) for t0, t1 in self.windows]
        self.scaled = [t * f for t, f in zip(self.latency, self.factors)]

    def end_to_end(self) -> dict:
        lat = sorted(self.scaled)
        J = len(lat)
        if J > TAIL_BEYOND:
            tail, pct = lat[J - TAIL_BEYOND - 1], 100.0 * (J - TAIL_BEYOND) / J
        else:
            tail, pct = lat[-1], 100.0
        return {"job_p50_ms": 1000.0 * statistics.median(lat),
                "job_tail_ms": 1000.0 * tail,
                "jobs_per_s": J / sum(lat),
                "ok_ratio": 1.0 - len(self.failures) / J,
                "tail_percentile": pct, "jobs": J,
                "measured_job_p50_ms": 1000.0 * statistics.median(self.latency),
                "measured_jobs_per_s": J / sum(self.latency)}


def run_job(wl, i: int, phase: Phase, speed, tracer=None):
    """Make job i, time it, check its output; returns (job, output, latency).

    `tracer`, if given, records spans only inside the timed window, not
    while the inputs are made or the output is checked."""
    clock = time.perf_counter
    job = wl.job(i)
    reason = None
    speed.maybe_mark()
    if tracer is not None:
        tracer.job, tracer.active = i, True
    t0 = clock()
    try:
        out = job.run()
    except Exception as exc:  # a job that raises is a failed job
        out, reason = None, "%s raised %s: %s" % (job.op, type(exc).__name__, exc)
    t1 = clock()
    if tracer is not None:
        tracer.active = False
    if reason is None:
        try:
            reason = job.check(out)
        except Exception as exc:  # unreadable output fails the job
            reason = "%s: oracle could not read the output: %s: %s" % (
                job.op, type(exc).__name__, exc)
    phase.latency.append(t1 - t0)
    phase.windows.append((t0, t1))
    phase.ops.append(job.op)
    phase.sizes.append(job.size)
    if reason:
        phase.failures.append((i, reason))
    phase.busy += (t1 - t0) * speed.latest_factor()
    return job, out, t1 - t0


def closed_loop(wl, seconds: float, deadline: float, speed, setups=None) -> Phase:
    """Send job after job until `seconds` of timed job time have passed,
    with the `setups` samples, if any, taken between jobs."""
    phase = Phase()
    i = 0
    while phase.busy < seconds and time.perf_counter() < deadline:
        if setups:
            setups.maybe(phase.busy / seconds)
        run_job(wl, i, phase, speed)
        i += 1
    if setups:
        setups.finish(deadline)
    speed.mark()
    phase.finish(speed)
    return phase


def in_child(*args: str) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "warmup.py"), *args],
                         env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Setups:
    """Up to SETUP_SAMPLES set-ups: this process's own, then set-ups in
    fresh processes, spread evenly over the run's timed job time between
    jobs.  Each comes right after a reference set-up in a fresh process
    (warmup.reference), and its times are scaled by REFERENCE_REF_S over
    that reference's time.  No new set-up starts once they have taken
    SETUP_BUDGET_S, so a slow set-up (sparse-algebra fills bohr's prime
    table) gets fewer samples rather than a longer run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[dict] = []
        self.spent = 0.0

    def take(self, here: bool = False) -> dict:
        import warmup
        t0 = time.perf_counter()
        ref = in_child("--reference")["reference_s"]
        sample = (warmup.import_and_warm(self.workload) if here else
                  in_child("--workload", self.workload))
        sample.update(reference_s=ref, factor=speed_probe.REFERENCE_REF_S / ref, here=here)
        self.samples.append(sample)
        self.spent += time.perf_counter() - t0
        return sample

    def more(self) -> bool:
        return len(self.samples) < SETUP_SAMPLES and self.spent < SETUP_BUDGET_S

    def maybe(self, done: float) -> None:
        """Take the samples due once a share `done` of the job time is over."""
        while self.more() and len(self.samples) <= done * SETUP_SAMPLES:
            self.take()

    def finish(self, deadline: float) -> None:
        """Take the samples a short run left out, while time remains."""
        while self.more() and time.perf_counter() < deadline:
            self.take()

    def median(self, key: str) -> float:
        return statistics.median(s[key] * s["factor"] for s in self.samples)


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as exc:
            commit = "unknown (%s)" % exc
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": commit, "platform": platform.platform()}


# ------------------------------------------------------------ per-layer

def fit_slope(points) -> float:
    """Log-log slope through the per-bucket medians of (size, seconds);
    buckets are half-octaves of size.  0.0 when fewer than two buckets."""
    buckets = defaultdict(list)
    for x, y in points:
        if x > 0 and y > 0:
            buckets[math.floor(2 * math.log2(x))].append((x, y))
    if len(buckets) < 2:
        return 0.0
    xs = [math.log(statistics.median(x for x, _ in b)) for b in buckets.values()]
    ys = [math.log(statistics.median(y for _, y in b)) for b in buckets.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


class LayerStats:
    """Per-function and per-layer numbers from the spans of a traced phase.

    Times are scaled by the factor of the job the span belongs to."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.layer_s = defaultdict(float)
        self.fit_points = defaultdict(list)
        self.pairs = defaultdict(lambda: [0, 0])
        self.hp_calls: list[tuple[int, int]] = []  # (span id, terms * samples)
        self.cli: list[tuple] = []                 # per traced CLI job

    def add_inputs(self, inputs, functions) -> None:
        """Count the recorded calls of one job: the pairs of each
        convolution, terms times samples of each H^p estimate."""
        import tracing
        for key, sid, args, kwargs in inputs:
            bound = inspect.signature(functions[key]).bind(*args, **kwargs)
            args = list(bound.arguments.values())  # (D, p, samples, seed) or (A, B, truncation)
            if key == "bohr.hp_norm_estimate":
                self.hp_calls.append((sid, len(args[0].terms) * args[2]))
            else:
                inside, total = tracing.in_range_pairs(args[0].terms, args[1].terms, args[2])
                self.pairs[key][0] += inside
                self.pairs[key][1] += total

    def metrics(self, spans, phase: Phase) -> dict:
        """Per-layer metrics of the traced phase whose jobs made `spans`."""
        import tracing
        factors = phase.factors
        for span, own in zip(spans, tracing.self_times(spans)):
            sid, parent, name, start, end, job = span
            self.calls[name] += 1
            self.self_s[name] += own * factors[job]
            self.layer_s[name.split(".")[0]] += own * factors[job]
            if parent is None and COST_FITS.get(name) == phase.ops[job]:
                self.fit_points[name].append((phase.sizes[job], (end - start) * factors[job]))
        for job, import_s, main_s, latency in self.cli:
            self.layer_s["import"] += import_s * factors[job]
            self.layer_s["startup"] += (latency - import_s - main_s) * factors[job]
        busy = sum(phase.scaled)
        out = {}
        for fn in tracing.layer_functions():
            out[fn + ".calls"] = float(self.calls[fn])
            out[fn + ".self_s"] = self.self_s[fn]
        for fn in COST_FITS:
            out[fn + ".cost_exponent"] = fit_slope(self.fit_points[fn])
        for fn in ("series.mul", "double.mul2"):
            inside, total = self.pairs[fn]
            out[fn + ".in_range_pair_ratio"] = inside / total if total else 0.0
        hp_s = sum((spans[sid][4] - spans[sid][3]) * factors[spans[sid][5]]
                   for sid, _ in self.hp_calls)
        out["bohr.hp_norm_estimate.term_samples_per_s"] = (
            sum(n for _, n in self.hp_calls) / hp_s if hp_s else 0.0)
        for layer in tracing.LAYERS + ("cli", "import", "startup"):
            out[layer + ".self_share"] = self.layer_s[layer] / busy
        out["bench.self_share"] = 1.0 - sum(self.layer_s.values()) / busy
        return out


def importtime_seconds(stderr: str) -> dict:
    """Cumulative seconds of the outermost ddseries and scipy imports in
    ``-X importtime`` output.  Indentation shows nesting, and an entry is
    printed after all the entries it imported."""
    pending: list[tuple] = []  # (depth, name, seconds, children), parent not printed yet
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|", 2)
        depth = len(name) - len(name.lstrip())
        split = len(pending)
        while split and pending[split - 1][0] > depth:
            split -= 1
        node = (depth, name.strip(), float(cumulative) / 1e6, pending[split:])
        pending = pending[:split] + [node]
    totals = {"ddseries": 0.0, "scipy": 0.0}

    def walk(node, inside):
        _, name, seconds, children = node
        root = name.split(".")[0]
        if root in totals and root not in inside:
            totals[root] += seconds
            inside = inside | {root}
        for child in children:
            walk(child, inside)
    for node in pending:
        walk(node, frozenset())
    return totals


def subcommand_p50(phase: Phase, workload: str, workloads) -> dict:
    """Median latency in ms and job count of each CLI subcommand among the
    jobs of `phase`; zeros for a workload other than cli-cold."""
    out = {}
    for sub in workloads.CLI_SUBCOMMANDS:
        lat = [t for t, op in zip(phase.scaled, phase.ops) if op == sub and workload == "cli-cold"]
        out[sub] = (1000.0 * statistics.median(lat) if lat else 0.0, len(lat))
    return out


def traced_run(wl, workload: str, seconds: float, deadline: float, speed, setups):
    """Each job twice in a row, untraced and then traced, until `seconds` of
    job time have passed and each operation has run at least once (so that
    every cli.<subcommand>.p50_ms has a sample); pairing keeps drifts in
    machine speed out of the tracing overhead.

    Returns both phases, the tracer holding the spans, the per-layer
    accumulator and, for cli-cold, the per-job import seconds of ddseries and
    scipy read from ``-X importtime``.
    """
    import tracing
    plain, traced = Phase(), Phase()
    tracer, stats = tracing.Tracer(), LayerStats()
    imports = defaultdict(list)
    i = 0
    while ((plain.busy + traced.busy < seconds or i < len(wl.ops))
           and time.perf_counter() < deadline):
        setups.maybe((plain.busy + traced.busy) / seconds)
        run_job(wl, i, plain, speed)
        if workload == "cli-cold":
            wl.traced_runner = os.path.join(HERE, "cli_traced.py")
            try:
                _, out, latency = run_job(wl, i, traced, speed)
            finally:
                wl.traced_runner = None
            add_cli_trace(wl.path(i, "spans.json"), i, out, latency, tracer, stats, imports)
        else:
            tracer.install()
            try:
                run_job(wl, i, traced, speed, tracer)
            finally:
                tracer.uninstall()
            stats.add_inputs(tracer.inputs, tracer.originals)
            tracer.inputs.clear()
        i += 1
    setups.finish(deadline)
    speed.mark()
    plain.finish(speed)
    traced.finish(speed)
    return plain, traced, tracer, stats, imports


def add_cli_trace(path, i, out, latency, tracer, stats, imports) -> None:
    """Keep the spans and import times of one traced CLI process."""
    if out is None or not os.path.exists(path):  # no process or an early death: a failed job
        return
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    stats.cli.append((i, child["import_s"], child["main_s"], latency))
    base = len(tracer.spans)
    tracer.spans.extend(
        [sid + base, None if parent is None else parent + base, name, start, end, i]
        for sid, parent, name, start, end, _ in child["spans"])
    for root, secs in importtime_seconds(out[2]).items():
        imports[root].append(secs)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    nproc = cap_threads()
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ddseries", "__init__.py")):
        print("perfbench: no src/ddseries here; run from the root of a ddseries checkout",
              file=sys.stderr)
        return 2
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print("perfbench: cannot read BENCHMARK.json: %s" % exc, file=sys.stderr)
        return 2
    if workload not in {w["name"] for w in spec["workloads"]}:
        print("perfbench: unknown workload %r" % workload, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    setups = Setups(workload)
    setups.take(here=True)  # also warms this process for the jobs
    import ddseries
    if not os.path.abspath(ddseries.__file__).startswith(src + os.sep):
        print("perfbench: ddseries was imported from %s, not ./src" % ddseries.__file__,
              file=sys.stderr)
        return 2
    import workloads

    speed = speed_probe.SpeedLog(enabled=workload != "cli-cold")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    wl = workloads.make(workload, seed, os.path.join(OUT_DIR, "cli-" + tag))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(nproc), "setup": setups.samples}
    try:
        if not trace:
            phase = closed_loop(wl, seconds, deadline, speed, setups)
            e2e = phase.end_to_end()
            e2e["setup_s"] = setups.median("setup_s")
            e2e["peak_rss_mb"] = (wl.max_rss_mb if workload == "cli-cold" else
                                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            values, names, phases = e2e, spec["end_to_end"], [phase]
            plain = phase
            report["jobs"] = [[op, size, t, f] for op, size, t, f in
                              zip(phase.ops, phase.sizes, phase.latency, phase.factors)]
        else:
            plain, traced, tracer, stats, imports = traced_run(wl, workload, seconds, deadline,
                                                               speed, setups)
            values = stats.metrics(tracer.spans, traced)
            values["trace.overhead_ratio"] = ((plain.jobs / sum(plain.scaled))
                                              / (traced.jobs / sum(traced.scaled)))
            values["factor.first_call_s"] = setups.median("factor.first_call_s")
            values["bohr.prime_fill_s"] = setups.median("bohr.prime_fill_s")
            for root in ("ddseries", "scipy"):
                secs = imports.get(root)
                values["cli.import_s" if root == "ddseries" else "cli.import_scipy_s"] = (
                    statistics.median(secs) if secs else 0.0)
            for sub, (p50, _) in subcommand_p50(plain, workload, workloads).items():
                values["cli.%s.p50_ms" % sub] = p50
            names, phases = spec["per_layer"], [plain, traced]
            report["untraced"] = plain.end_to_end()
            report["traced"] = traced.end_to_end()
            spans_path = os.path.join(OUT_DIR, "spans-%s.jsonl" % tag)
            tracer.dump(spans_path)
            report["spans"] = spans_path
    finally:
        wl.close()

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.jobs for p in phases)
    if workload == "cli-cold":
        report["subcommand_p50_ms"] = subcommand_p50(plain, workload, workloads)
    report.update(values=values, failures=failures, run_s=time.perf_counter() - started,
                  probe_s=speed.probes)
    with open(os.path.join(OUT_DIR, "report-%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print("# environment %s" % json.dumps(report["environment"], sort_keys=True))
    print("# run took %.1f s, %.1f s of it timed jobs" % (
        report["run_s"], sum(sum(p.latency) for p in phases)))
    if speed.enabled:
        print("# job times scaled to the reference speed: probe median %.3g ms, reference %.3g ms"
              % (1000 * statistics.median(speed.probes), 1000 * speed_probe.PROBE_REF_S))
    print("# set-ups scaled to the reference speed: reference set-up median %.3g s, reference %.3g s"
          % (statistics.median(s["reference_s"] for s in setups.samples),
             speed_probe.REFERENCE_REF_S))
    print("# set-up as measured: median %.4g s over %d set-ups, %d of them in fresh processes"
          % (statistics.median(s["setup_s"] for s in setups.samples), len(setups.samples),
             len(setups.samples) - 1))
    if not trace:
        print("# %d jobs; tail is p%.2f, with %d jobs beyond it; fail_ratio %.4g"
              % (values["jobs"], values["tail_percentile"],
                 min(TAIL_BEYOND, values["jobs"] - 1), len(failures) / attempted))
        print("# as measured: job_p50_ms %.6g, jobs_per_s %.6g"
              % (values["measured_job_p50_ms"], values["measured_jobs_per_s"]))
    if workload == "cli-cold":
        print("# untraced median ms (jobs) per subcommand: %s" % ", ".join(
            "%s %.4g (%d)" % (sub, p50, n) for sub, (p50, n) in
            report["subcommand_p50_ms"].items()))
    for name, m in metrics.items():
        print("# %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    for i, reason in failures[:20]:
        print("# failed job %d: %s" % (i, reason))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
