"""In-memory span recorder for the traced benchmark run.

While installed, the recorder replaces selected padicdyn functions and
methods, wherever a module or class binds them, with wrappers. A *timed*
target records a span (name, start, end, parent, job id) per call; a
*counted* target only increments a counter on the innermost open span, which
keeps hot arithmetic methods cheap to observe. Per-layer metrics are computed
from the finished spans after the run.
"""

from __future__ import annotations

import json
import sys
import time


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "job", "counts")

    def __init__(self, index, name, start, parent, job):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job,
                "counts": self.counts}


def _mul_digits(result, counts):
    """Digits handled by one p-adic product: prec * d * e."""
    if result is not NotImplemented:
        ctx = result.ctx
        counts["padics.mul_digits"] = (counts.get("padics.mul_digits", 0)
                                       + result.prec * ctx.d * ctx.e)


def _search_starts(record, counts):
    counts["dynamics.search_starts"] = (counts.get("dynamics.search_starts", 0)
                                        + sum(record.visited.values()))


def _iterate_bits(result, counts):
    if result.iterate is not None:
        bits = max(max(w.numerator.bit_length(), w.denominator.bit_length())
                   for w in result.iterate)
        counts["polynomials.iterate_bits"] = max(
            counts.get("polynomials.iterate_bits", 0), bits)


def _replay_failures(report, counts):
    counts["certify.replay_failures"] = (
        counts.get("certify.replay_failures", 0) + len(report.failures()))


# (module, qualified name, kind, hook). Timed targets become spans named
# after the qualified name; counted targets bump the counter of the same
# name. A hook sees the result and the counters of the call's own span (for
# timed targets) or of the enclosing span (for counted ones).
TARGETS = (
    ("dynamics", "find_periodic_point", "timed", _search_starts),
    ("dynamics", "reduce_map", "timed", None),
    ("dynamics", "ReducedMap.extend", "timed", None),
    ("dynamics", "ReducedMap.apply", "counted", None),
    ("dynamics", "locus_check", "counted", None),
    ("dynamics", "verify_record", "timed", None),
    ("finitefields", "FFElement.__mul__", "counted", None),
    ("finitefields", "FFElement.inverse", "counted", None),
    ("finitefields", "FiniteField.extension", "timed", None),
    ("neighborhood", "choose_good_prime", "timed", None),
    ("neighborhood", "validate_prime", "timed", None),
    ("neighborhood", "hensel_lift", "timed", None),
    ("neighborhood", "build_neighborhood", "timed", None),
    ("neighborhood", "reduced_affine_order", "timed", None),
    ("neighborhood", "map_eval_padic", "counted", None),
    ("series", "expand_at", "timed", None),
    ("series", "series_compose", "timed", None),
    ("padics", "PadicElement.__mul__", "counted", _mul_digits),
    ("padics", "PadicElement.inverse", "counted", None),
    ("padics", "PadicContext.from_rational", "counted", None),
    ("padics", "PadicContext.teichmuller_lift", "timed", None),
    ("mahler", "orbit", "timed", None),
    ("mahler", "mahler_coefficients", "timed", None),
    ("mahler", "analyticity_margins", "timed", None),
    ("polynomials", "RationalSelfMap.eval_fraction", "counted", None),
    ("polynomials", "RationalSelfMap.iterate_fraction", "timed", None),
    ("polynomials", "parse_poly", "timed", None),
    ("certify", "run_pipeline", "timed", None),
    ("certify", "classify", "timed", _iterate_bits),
    ("certify", "make_certificate", "timed", None),
    ("certify", "Certificate.save", "timed", None),
    ("certify", "Certificate.load", "timed", None),
    ("certify", "verify_certificate", "timed", _replay_failures),
    ("cli", "main", "timed", None),
    ("mapfile", "load_map_file", "timed", None),
)


class Recorder:
    """Collects spans for jobs; ``install``/``uninstall`` swap the wrappers
    in and out so untraced rounds run the unmodified program."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._sink = {}
        self._restore = []

    # -- spans opened by the benchmark itself ---------------------------------

    def open(self, name, job):
        parent = self.stack[-1].index if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, job)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, clock(),
                        parent.index if parent else None,
                        parent.job if parent else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result, span.counts)
                return result
            finally:
                span.end = clock()
                stack.pop()
        return wrapper

    def _counted(self, name, fn, hook):
        stack, sink = self.stack, self._sink

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = stack[-1].counts if stack else sink
            counts[name] = counts.get(name, 0) + 1
            if hook is not None:
                hook(result, counts)
            return result
        return wrapper

    def install(self, package):
        """Wrap every target in every loaded module and class of
        ``package`` that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for modname, qualname, kind, hook in TARGETS:
            module = sys.modules[f"{package.__name__}.{modname}"]
            name = f"{modname}.{qualname}"
            make = self._timed if kind == "timed" else self._counted
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(name, raw.__func__, hook))
                else:
                    wrapped = make(name, raw, hook)
                for key, value in list(owner.__dict__.items()):
                    if value is raw:
                        self._swap(owner, key, raw, wrapped)
            else:
                raw = getattr(module, attr)
                wrapped = make(name, raw, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._swap(mod, key, raw, wrapped)

    def _swap(self, owner, key, raw, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, raw))

    def uninstall(self):
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore = []

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")


def self_times(spans):
    """Span index -> duration minus the time covered by its child spans."""
    own = {s.index: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def check_nesting(spans, roots):
    """Every job's self times must add up to its root span's duration, and
    no child may outlast its parent. Returns a list of problems."""
    by_index = {s.index: s for s in spans}
    own = self_times(spans)
    problems = []
    totals = {}
    for s in spans:
        totals[s.job] = totals.get(s.job, 0.0) + own[s.index]
        if s.parent is not None:
            p = by_index[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name} outlasts its parent {p.name}")
    for root in roots:
        gap = abs(totals.get(root.job, 0.0) - root.duration)
        if gap > 1e-6 * max(1.0, root.duration):
            problems.append(f"self times of job {root.job} miss its duration"
                            f" by {gap:.3g} s")
    return problems
