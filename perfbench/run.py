"""padicdyn benchmark: one closed-loop client per workload, timed per round.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run generates its inputs from the seed, runs rounds until ``--seconds``
have passed (at least one), checks every output against
``perfbench/reference.json`` and prints one JSON object as its last line.
With ``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` the run spends half its time untraced and half with the span
recorder installed, writes the spans to ``perfbench/out/`` and reports the
per-layer metrics. ``--smoke`` runs one untraced and one traced round of
every workload with all checks on. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("suite", "ramified", "henon", "extfield")


def import_program():
    """Import padicdyn from this checkout's sources, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import padicdyn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import padicdyn from {SRC}:"
                         f" {exc}")
    if not os.path.abspath(padicdyn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: padicdyn imported from"
                         f" {padicdyn.__file__}, not from {SRC}")
    return padicdyn


def setup_probe(paths):
    """Child-process body: time the import of padicdyn plus the loading of
    the given map files."""
    start = time.perf_counter()
    import_program()
    from padicdyn import mapfile
    for path in paths:
        mapfile.load_map_file(path)
    print(time.perf_counter() - start)


def measure_setup(paths):
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             *paths], capture_output=True, text=True, timeout=60,
            check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def tail(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100 * (n - 10) // n, ordered[n - 11]


class Runner:
    def __init__(self, workload, recorder=None):
        self.wl = workload
        self.recorder = recorder
        self.rounds = []        # (produce_s, check_s, cert_bytes, traced)
        self.attempted = 0
        self.failed = 0

    def run_round(self, traced):
        r = len(self.rounds)
        jobs = self.wl.round_jobs(r)
        rec = self.recorder if traced else None
        produce_s = check_s = 0.0
        for job in jobs:
            self.attempted += 1
            root = rec.open("job", (r, job.name)) if rec else None
            try:
                # Each timed step starts from a collected heap, as in a fresh
                # process, so a collection of earlier garbage does not land
                # at a random point inside it.
                gc.collect()
                t0 = time.perf_counter()
                produced = self.wl.produce(job)
                t1 = time.perf_counter()
                gc.collect()
                t2 = time.perf_counter()
                checked = self.wl.check(job, produced)
                t3 = time.perf_counter()
            except Exception as exc:  # a failed job is counted, not fatal
                self.failed += 1
                print(f"FAIL {self.wl.name} round {r} {job.name}:"
                      f" {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                if root is not None:
                    rec.close(root)
            produce_s += t1 - t0
            check_s += t3 - t2
            problems = self.wl.validate(job, produced, checked)
            if problems:
                self.failed += 1
                print(f"FAIL {self.wl.name} round {r} {job.name}: "
                      + "; ".join(problems), file=sys.stderr)
        cert_bytes = sum(job.cert_bytes for job in jobs)
        self.rounds.append((produce_s, check_s, cert_bytes, traced))

    def run_for(self, seconds, traced):
        start = time.perf_counter()
        first = len(self.rounds)
        while (len(self.rounds) == first
               or time.perf_counter() - start < seconds):
            self.run_round(traced)

    def series(self, traced):
        rows = [row for row in self.rounds if row[3] == traced]
        return ([row[0] for row in rows], [row[1] for row in rows],
                [row[0] + row[1] for row in rows], [row[2] for row in rows])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s):
    """Per-round means of the timed steps.

    The host's speed shifts in episodes of several seconds, which makes the
    per-round times of a run bimodal. A median then jumps between the modes
    from run to run, while the mean moves with the share of time spent in
    each, so the mean is the steadier summary across runs.
    """
    produce, check, total, cert_bytes = runner.series(traced=False)
    print(f"rounds: {len(total)}  jobs: {runner.attempted}"
          f"  failed: {runner.failed}"
          f"  fail_frac: {runner.failed / runner.attempted:.4g}")
    print(f"setup_s: {setup_s:.6f} s (median of {SETUP_SAMPLES})")
    for label, values in (("produce_s", produce), ("check_s", check),
                          ("round_s", total)):
        line = (f"{label}.mean: {statistics.mean(values):.6f} s"
                f"  {label}.p50: {statistics.median(values):.6f} s")
        t = tail(values)
        if t is not None:
            line += f"  {label}.p{t[0]}: {t[1]:.6f} s"
        print(line + f"  (n={len(values)})")
    print(f"cert_bytes: {statistics.median(cert_bytes):g} bytes per round")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": metric(setup_s, "s"),
        "produce_s.mean": metric(statistics.mean(produce), "s"),
        "check_s.mean": metric(statistics.mean(check), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(runner, recorder):
    roots = [s for s in recorder.spans if s.name == "job"]
    problems = spans.check_nesting(recorder.spans, roots)
    for problem in problems:
        print(f"FAIL trace: {problem}", file=sys.stderr)
    rounds = layers.aggregate(recorder.spans)
    for r, row in enumerate(runner.rounds):
        if row[3]:
            rounds[r].cert_bytes = row[2]
    out = {}
    for name, unit, _better, fn in layers.PER_LAYER:
        value = statistics.median(fn(agg) for agg in rounds.values())
        out[name] = metric(value, unit)
    untraced = statistics.median(runner.series(traced=False)[2])
    traced = statistics.median(runner.series(traced=True)[2])
    out["trace.overhead_frac"] = metric(traced / untraced - 1, "frac")
    print(f"traced rounds: {len(rounds)}  spans: {len(recorder.spans)}"
          f"  overhead: {traced / untraced - 1:.3f}")
    return out, len(problems)


def run(workload_name, seed, seconds, trace, smoke=False):
    """One benchmark run; a smoke run reports both metric sets."""
    padicdyn = import_program()
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    env = environment()
    print(f"perfbench workload={workload_name} seed={seed}"
          f" seconds={seconds} trace={trace}")
    print(f"env: python {env['python']}, nproc {env['nproc']},"
          f" cpu {env['cpu']!r}, loadavg {env['loadavg']}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[workload_name](ROOT, workdir, seed,
                                                reference)
        recorder = spans.Recorder()
        runner = Runner(wl, recorder)
        metrics = {}
        trace_problems = 0
        if not trace or smoke:
            setup_s = measure_setup([job.path for job in wl.round_jobs(0)])
        runner.run_for(seconds / 2 if trace else seconds, traced=False)
        if not trace or smoke:
            metrics.update(end_to_end(runner, setup_s))
        if trace:
            recorder.install(padicdyn)
            try:
                runner.run_for(seconds / 2, traced=True)
            finally:
                recorder.uninstall()
            layer_metrics, trace_problems = per_layer(runner, recorder)
            metrics.update(layer_metrics)
            path = os.path.join(OUT, f"trace-{workload_name}-seed{seed}.jsonl")
            recorder.write_jsonl(path, {"workload": workload_name,
                                        "seed": seed, "env": env})
            print(f"spans written to {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = runner.failed == 0 and trace_problems == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", nargs="+", metavar="MAP")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.smoke:
        ok = True
        for name in WORKLOAD_NAMES:
            ok = run(name, args.seed, 0, 1, smoke=True) and ok
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    return 0 if run(args.workload, args.seed, args.seconds, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
