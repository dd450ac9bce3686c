"""Per-layer metrics computed from the spans of a traced run.

Each metric is evaluated per round and reported as the median over rounds.
Times are inclusive span durations unless the name says ``self``, in which
case the time covered by child spans is subtracted. A layer that does not run
on a workload reads 0 there.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times

MAX_COUNTERS = ("polynomials.iterate_bits",)
PROFILE_CALLERS = ("certify.make_certificate", "certify.verify_certificate")


class RoundAggregate:
    def __init__(self):
        self.time = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.profile_s = 0.0
        self.cert_bytes = 0


def aggregate(spans):
    """Round number -> RoundAggregate; a span's job id is (round, job)."""
    own = self_times(spans)
    by_index = {s.index: s for s in spans}
    rounds = defaultdict(RoundAggregate)
    for s in spans:
        agg = rounds[s.job[0]]
        agg.time[s.name] += s.duration
        agg.self[s.name] += own[s.index]
        agg.calls[s.name] += 1
        for key, value in s.counts.items():
            if key in MAX_COUNTERS:
                agg.counts[key] = max(agg.counts[key], value)
            else:
                agg.counts[key] += value
        if s.name == "mahler.mahler_coefficients":
            p = s.parent
            while p is not None and by_index[p].name not in PROFILE_CALLERS:
                p = by_index[p].parent
            if p is not None:
                agg.profile_s += s.duration
    return rounds


def _ratio(a, b):
    return a / b if b else 0.0


def _t(*names):
    return lambda a: sum(a.time[n] for n in names)


def _self(name):
    return lambda a: a.self[name]


def _c(name):
    return lambda a: a.counts[name]


# (name, unit, better, per-round function)
PER_LAYER = (
    ("dynamics.search_s", "s", "lower", _t("dynamics.find_periodic_point")),
    ("dynamics.reduce_s", "s", "lower",
     _t("dynamics.reduce_map", "dynamics.ReducedMap.extend")),
    ("dynamics.search_starts", "count", "lower",
     _c("dynamics.search_starts")),
    ("dynamics.map_applications", "count", "lower",
     _c("dynamics.ReducedMap.apply")),
    ("dynamics.applications_per_start", "count", "lower",
     lambda a: _ratio(a.counts["dynamics.ReducedMap.apply"],
                      a.counts["dynamics.search_starts"])),
    ("dynamics.locus_checks", "count", "lower", _c("dynamics.locus_check")),
    ("dynamics.verify_record_s", "s", "lower", _t("dynamics.verify_record")),
    ("finitefields.mul_count", "count", "lower",
     _c("finitefields.FFElement.__mul__")),
    ("finitefields.inverse_count", "count", "lower",
     _c("finitefields.FFElement.inverse")),
    ("finitefields.extension_s", "s", "lower",
     _t("finitefields.FiniteField.extension")),
    ("neighborhood.prime_s", "s", "lower",
     _t("neighborhood.choose_good_prime", "neighborhood.validate_prime")),
    ("neighborhood.lift_s", "s", "lower", _t("neighborhood.hensel_lift")),
    ("neighborhood.build_self_s", "s", "lower",
     _self("neighborhood.build_neighborhood")),
    ("neighborhood.affine_order_s", "s", "lower",
     _t("neighborhood.reduced_affine_order")),
    ("neighborhood.padic_map_evals", "count", "lower",
     _c("neighborhood.map_eval_padic")),
    ("series.expand_s", "s", "lower", _t("series.expand_at")),
    ("series.compose_s", "s", "lower", _t("series.series_compose")),
    ("series.compose_calls", "count", "lower",
     lambda a: a.calls["series.series_compose"]),
    ("padics.mul_count", "count", "lower",
     _c("padics.PadicElement.__mul__")),
    ("padics.mul_digits", "count", "lower", _c("padics.mul_digits")),
    ("padics.inverse_count", "count", "lower",
     _c("padics.PadicElement.inverse")),
    ("padics.from_rational_count", "count", "lower",
     _c("padics.PadicContext.from_rational")),
    ("padics.teichmuller_s", "s", "lower",
     _t("padics.PadicContext.teichmuller_lift")),
    ("mahler.orbit_s", "s", "lower", _t("mahler.orbit")),
    ("mahler.coeffs_self_s", "s", "lower",
     _self("mahler.mahler_coefficients")),
    ("mahler.margins_s", "s", "lower", _t("mahler.analyticity_margins")),
    ("polynomials.exact_evals", "count", "lower",
     _c("polynomials.RationalSelfMap.eval_fraction")),
    ("polynomials.iterate_bits", "bits", "lower",
     _c("polynomials.iterate_bits")),
    ("polynomials.replay_iterate_s", "s", "lower",
     _t("polynomials.RationalSelfMap.iterate_fraction")),
    ("polynomials.parse_s", "s", "lower", _t("polynomials.parse_poly")),
    ("certify.pipeline_s", "s", "lower", _t("certify.run_pipeline")),
    ("certify.classify_s", "s", "lower", _t("certify.classify")),
    ("certify.classify_calls", "count", "lower",
     lambda a: _ratio(a.calls["certify.classify"],
                      a.calls["certify.make_certificate"])),
    ("certify.witness_yield", "frac", "higher",
     lambda a: _ratio(a.calls["certify.make_certificate"],
                      a.calls["certify.classify"])),
    ("certify.make_self_s", "s", "lower", _self("certify.make_certificate")),
    ("certify.save_s", "s", "lower", _t("certify.Certificate.save")),
    ("certify.profile_s", "s", "lower", lambda a: a.profile_s),
    ("certify.verify_self_s", "s", "lower",
     _self("certify.verify_certificate")),
    ("certify.load_s", "s", "lower", _t("certify.Certificate.load")),
    ("certify.replay_failures", "count", "lower",
     _c("certify.replay_failures")),
    ("certify.cert_bytes", "bytes", "lower", lambda a: a.cert_bytes),
    ("cli.self_s", "s", "lower", _self("cli.main")),
    ("mapfile.load_s", "s", "lower", _t("mapfile.load_map_file")),
)
