"""The four benchmark workloads: their inputs, timed steps and output checks.

A round feeds every input of a workload once. Each job has two timed steps:
``produce`` makes the result a user waits for, and ``check`` is the
program's own re-verification of it. ``validate`` then compares both with
the reference values outside the timed region.

Every padicdyn call goes through a module attribute, so that the traced run
sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from padicdyn import certify, cli, dynamics, mahler, mapfile, padics

import inputs

def _shifts(n, p, rng):
    """Distinct translations in p*Z^n: first every |a_i| <= 3p in seeded
    order, then shell by shell outwards, so no two jobs of one map in a run
    share an input."""
    reach = 3
    shell = list(_box(n, reach))
    while True:
        rng.shuffle(shell)
        for v in shell:
            yield tuple(p * a for a in v)
        reach += 1
        shell = [v for v in _box(n, reach) if max(map(abs, v)) == reach]


def _box(n, reach):
    if n == 0:
        yield ()
        return
    for head in range(-reach, reach + 1):
        for tail in _box(n - 1, reach):
            yield (head,) + tail


def _pipeline(cfg):
    return certify.run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                                precision=cfg.precision, degree=cfg.degree,
                                m_max=cfg.m_max, lift=cfg.lift)


class Job:
    def __init__(self, name, path, member=None):
        self.name = name
        self.path = path
        self.member = member
        self.cert_bytes = 0


class Workload:
    name = None
    sources = ()          # (job name, map file relative to the repo root)
    conjugate = True

    def __init__(self, root, workdir, seed, reference):
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = reference[self.name]
        self.specs = {name: inputs.load_spec(os.path.join(root, rel))
                      for name, rel in self.sources}
        self.shift_iters = {
            name: _shifts(spec["n"], spec["prime"], self.rng)
            for name, spec in self.specs.items()}

    def round_jobs(self, r):
        """Write this round's input files and return its jobs."""
        jobs = []
        for name, rel in self.sources:
            spec = self.specs[name]
            if not self.conjugate:
                jobs.append(Job(name, os.path.join(self.root, rel)))
                continue
            shift = next(self.shift_iters[name])
            path = os.path.join(self.workdir, f"r{r}-{name}.json")
            inputs.write_spec(inputs.conjugate_spec(spec, shift), path)
            jobs.append(self.make_job(name, path, spec))
        return jobs

    def make_job(self, name, path, spec):
        return Job(name, path)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class CertifyWorkload(Workload):
    """certify then verify through the in-process command line."""

    def _cert_path(self, job):
        return os.path.join(self.workdir, f"{job.name}.cert.json")

    def produce(self, job):
        return _run_cli(["certify", "--map", job.path,
                         "--out", self._cert_path(job)])

    def check(self, job, produced):
        return _run_cli(["verify", "--cert", self._cert_path(job)])

    def validate(self, job, produced, checked):
        (rc1, out1), (rc2, out2) = produced, checked
        if rc1 != 0:
            return [f"certify exited {rc1}: {out1.strip()[-200:]}"]
        problems = []
        if rc2 != 0 or "[FAIL]" in out2 or "certificate is valid" not in out2:
            problems.append(f"verify exited {rc2}: {out2.strip()[-200:]}")
        path = self._cert_path(job)
        with open(path, "rb") as fh:
            raw = fh.read()
        job.cert_bytes = len(raw)
        data = json.loads(raw)
        ref = self.reference[job.name]
        pb = data["period_bound"]
        verdict = ("non_preperiodic" if data["payload"].get("differs_at")
                   else "none")
        got = {"verdict": verdict, "bound": pb["bound"], "k": pb["k"],
               "affine_order": pb["affine_order"]}
        if "sha256" in ref:
            got["sha256"] = hashlib.sha256(raw).hexdigest()
        problems += [f"{key}: got {got[key]!r}, expected {ref[key]!r}"
                     for key in got if got[key] != ref[key]]
        return problems


class Suite(CertifyWorkload):
    name = "suite"
    sources = (("quadratic_p3", "demos/maps/quadratic_p3.json"),
               ("cube_p5", "demos/maps/cube_p5.json"),
               ("twodim_p5", "demos/maps/twodim_p5.json"))


class Ramified(CertifyWorkload):
    name = "ramified"
    sources = (("square_ramified_p5", "demos/maps/square_ramified_p5.json"),)
    conjugate = False


class Henon(Workload):
    """run_pipeline, then the Mahler interpolation of psi at a seeded
    member and its analyticity margins; the check replays the orbit from the
    interpolation."""

    name = "henon"
    sources = (("henon_p5", "perfbench/maps/henon_p5.json"),
               ("henon_p7", "perfbench/maps/henon_p7.json"))

    def make_job(self, name, path, spec):
        member = tuple(self.rng.randrange(spec["prime"] ** 2)
                       for _ in range(spec["n"]))
        return Job(name, path, member)

    def produce(self, job):
        cfg = mapfile.load_map_file(job.path)
        pipe = _pipeline(cfg)
        ctx, b = pipe.ctx, pipe.bound
        psi = pipe.nbhd.iterated_local_map(
            b.affine_order * ctx.p ** b.analyticity_exponent)
        t0 = tuple(ctx.from_int(v) for v in job.member)
        interp = mahler.mahler_coefficients(psi, t0, cfg.kmax)
        report = mahler.analyticity_margins(interp, b.analyticity_exponent)
        return pipe, interp, report

    def check(self, job, produced):
        _, interp, _ = produced
        return all(mahler.evaluate(interp, j).values
                   == interp.orbit_points[j]
                   for j in range(interp.k_max + 1))

    def validate(self, job, produced, checked):
        pipe, _, report = produced
        b = pipe.bound
        got = {"bound": b.bound, "k": b.period_k,
               "affine_order": b.affine_order, "certified": report.certified}
        ref = self.reference[job.name]
        problems = [f"{key}: got {got[key]!r}, expected {ref[key]!r}"
                    for key in got if got[key] != ref[key]]
        if not checked:
            problems.append("Mahler evaluation does not reproduce the orbit")
        return problems


class ExtField(Workload):
    """run_pipeline on maps without a clear F_p point, so the search climbs
    to F_49 or F_1331; the check re-verifies the periodic-point record."""

    name = "extfield"
    sources = (("ext_a_p7", "perfbench/maps/ext_a_p7.json"),
               ("ext_b_p7", "perfbench/maps/ext_b_p7.json"),
               ("ext_c_p7", "perfbench/maps/ext_c_p7.json"),
               ("ext_d_p11", "perfbench/maps/ext_d_p11.json"))

    def produce(self, job):
        cfg = mapfile.load_map_file(job.path)
        return cfg, _pipeline(cfg)

    def check(self, job, produced):
        cfg, pipe = produced
        fbar = dynamics.reduce_map(cfg.map,
                                   padics.PadicContext(pipe.ctx.p,
                                                       precision=1))
        return dynamics.verify_record(fbar, pipe.record)

    def validate(self, job, produced, checked):
        _, pipe = produced
        rec = pipe.record
        got = {"m": rec.m, "period": rec.period,
               "enumeration_index": rec.enumeration_index,
               "visited": {str(k): v for k, v in rec.visited.items()},
               "bound": pipe.bound.bound}
        ref = self.reference[job.name]
        problems = [f"{key}: got {got[key]!r}, expected {ref[key]!r}"
                    for key in got if got[key] != ref[key]]
        if not checked:
            problems.append("verify_record rejects the periodic point")
        return problems


WORKLOADS = {w.name: w for w in (Suite, Ramified, Henon, ExtField)}
