"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The smoke test runs one untraced and one traced round of every workload
with all output checks on (about a minute).
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from padicdyn import MultiPoly, RationalSelfMap  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)
    declared = [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]]
    assert declared == [row[:3] for row in layers.PER_LAYER] + [
        ("trace.overhead_frac", "frac", "lower")]


def _substitute(f, shift):
    """Oracle for the generator: f(x + a) - a with padicdyn's own
    polynomial arithmetic."""
    n = f.n
    xs = [MultiPoly.variable(n, i) + shift[i] for i in range(n)]

    def at(poly):
        total = MultiPoly.constant(n, 0)
        for idx, c in poly.terms.items():
            term = MultiPoly.constant(n, c)
            for x, a in zip(xs, idx):
                term = term * x ** a
            total = total + term
        return total

    nums, dens = [], []
    for i, (num, den) in enumerate(zip(f.numerators, f.denominators)):
        d = at(den)
        nums.append(at(num) - d * shift[i])
        dens.append(d)
    return RationalSelfMap(nums, dens)


def test_conjugates_match_padicdyn_substitution():
    for rel in ("demos/maps/quadratic_p3.json", "demos/maps/twodim_p5.json",
                "perfbench/maps/henon_p7.json",
                "perfbench/maps/ext_d_p11.json"):
        spec = inputs.load_spec(os.path.join(ROOT, rel))
        f = RationalSelfMap.from_texts(spec["n"], spec["numerators"],
                                       spec.get("denominators"))
        for shift in ((-3, 2), (5, 0), (Fraction(7, 2), -11)):
            shift = shift[:spec["n"]]
            g = inputs.conjugate_spec(spec, shift)
            got = RationalSelfMap.from_texts(g["n"], g["numerators"],
                                             g["denominators"])
            assert got == _substitute(f, shift)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (9, 0)
    assert run.tail(list(range(100))) == (90, 89)


def test_smoke_run_passes_every_check_and_reports_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(run.WORKLOAD_NAMES)
    names = {m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        assert result["metrics"]["certify.pipeline_s"]["value"] > 0
