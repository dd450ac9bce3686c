"""Command-line interface: subcommands, exit codes, file formats."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import cli
from padicdyn.certify import Certificate
from padicdyn.mapfile import INT_FIELDS, load_map_file, parse_map_config


def run_cli(*args, module="padicdyn.cli", timeout=None):
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, timeout=timeout)


def write_map(path, body):
    path.write_text(json.dumps(body))
    return str(path)


QUAD = {"n": 1, "numerators": ["x1^2 + 1"], "prime": 3, "lift": "naive",
        "kmax": 8, "search_budget": 20}


def test_map_file_parsing(tmp_path):
    path = write_map(tmp_path / "m.json", QUAD)
    cfg = load_map_file(path)
    assert cfg.map.n == 1 and cfg.prime == 3 and cfg.lift == "naive"
    assert cfg.precision == 64 and cfg.m_max == 6      # defaults
    try:
        parse_map_config({"numerators": ["x1"]})
        raise AssertionError("missing n accepted")
    except ValueError:
        pass


def test_certify_and_verify_roundtrip(tmp_path):
    mp = write_map(tmp_path / "m.json", QUAD)
    cert_path = str(tmp_path / "cert.json")
    res = run_cli("certify", "--map", mp, "--out", cert_path)
    assert res.returncode == 0, res.stderr
    assert "period bound N = 9" in res.stdout
    cert = Certificate.load(cert_path)
    assert cert.data["witness"] == ["2"]
    # bit-exact round trip of the stored file
    with open(cert_path, encoding="utf-8") as fh:
        text = fh.read()
    assert Certificate.from_json_text(text).json_text() == text

    res2 = run_cli("verify", "--cert", cert_path)
    assert res2.returncode == 0, res2.stderr
    assert "certificate is valid" in res2.stdout


def test_python_dash_m_padicdyn_runs_the_cli(tmp_path):
    mp = write_map(tmp_path / "m.json", QUAD)
    cert_path = str(tmp_path / "cert.json")
    res = run_cli("certify", "--map", mp, "--out", cert_path,
                  module="padicdyn")
    assert res.returncode == 0, res.stderr
    assert "period bound N = 9" in res.stdout
    res2 = run_cli("verify", "--cert", cert_path, module="padicdyn")
    assert res2.returncode == 0, res2.stderr
    assert "certificate is valid" in res2.stdout
    usage = run_cli(module="padicdyn")
    assert usage.returncode == 2 and "usage: padicdyn" in usage.stderr


def test_verify_rejects_tampered_certificate(tmp_path):
    mp = write_map(tmp_path / "m.json", QUAD)
    cert_path = str(tmp_path / "cert.json")
    assert run_cli("certify", "--map", mp, "--out", cert_path).returncode == 0
    cert = Certificate.load(cert_path)
    cert.data["period_bound"]["bound"] = 7
    cert.save(cert_path)
    res = run_cli("verify", "--cert", cert_path)
    assert res.returncode == 3
    assert "INVALID" in res.stderr


def test_no_witness_exit_code(tmp_path):
    mp = write_map(tmp_path / "id.json",
                   {"n": 1, "numerators": ["x1"], "search_budget": 6})
    res = run_cli("certify", "--map", mp, "--out", str(tmp_path / "c.json"))
    assert res.returncode == 2
    assert "finite-order suspected" in res.stderr


def test_swap_map_is_flagged_finite_order(tmp_path):
    # periods 1 and 2 differ, but their lcm divides N = 2
    mp = write_map(tmp_path / "swap.json",
                   {"n": 2, "numerators": ["x2", "x1"], "prime": 5,
                    "search_budget": 12})
    res = run_cli("certify", "--map", mp, "--out", str(tmp_path / "c.json"))
    assert res.returncode == 2
    assert "period bound N = 2" in res.stdout
    assert "periods seen in the scan: [1, 2]" in res.stderr
    assert "finite-order suspected" in res.stderr


def test_degree_1200_certifies_and_verifies(tmp_path):
    mp = write_map(tmp_path / "m.json",
                   {"n": 1, "numerators": ["x1^1200 + x1"], "prime": 5})
    cert_path = str(tmp_path / "cert.json")
    res = run_cli("certify", "--map", mp, "--out", cert_path)
    assert res.returncode == 0, res.stderr
    res2 = run_cli("verify", "--cert", cert_path)
    assert res2.returncode == 0, res2.stderr
    assert "certificate is valid" in res2.stdout


def test_interpolate_report(tmp_path):
    mp = write_map(tmp_path / "m.json", QUAD)
    out = str(tmp_path / "report.txt")
    res = run_cli("interpolate", "--map", mp, "--point", "2", "--out", out)
    assert res.returncode == 0, res.stderr
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert "classification: non_preperiodic" in text
    assert "certified analytic on p^1 Z_p: True" in text
    assert "v_r(b_k)" in text


def test_cli_overrides_take_precedence(tmp_path):
    mp = write_map(tmp_path / "m.json",
                   {"n": 1, "numerators": ["x1^2"], "prime": 5, "kmax": 8,
                    "search_budget": 20})
    out = str(tmp_path / "cert7.json")
    res = run_cli("certify", "--map", mp, "--prime", "7", "--out", out)
    assert res.returncode == 0, res.stderr
    cert = Certificate.load(out)
    assert cert.data["context"]["p"] == 7


def test_auto_prime_on_extension_center_hints_a_fallback(tmp_path):
    # auto-selection prefers p=5 for x^2+1, whose clear periodic points live
    # in F_25; rational witness search cannot run there and the CLI should
    # point at the usable fallback prime 3
    mp = write_map(tmp_path / "m.json",
                   {"n": 1, "numerators": ["x1^2 + 1"], "search_budget": 10})
    res = run_cli("certify", "--map", mp, "--out", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert "--prime" in res.stderr and "3" in res.stderr


def test_bad_inputs_exit_one(tmp_path):
    res = run_cli("certify", "--map", str(tmp_path / "missing.json"),
                  "--out", str(tmp_path / "c.json"))
    assert res.returncode == 1
    mp = write_map(tmp_path / "bad.json",
                   {"n": 1, "numerators": ["x1^2"], "prime": 4})
    res2 = run_cli("certify", "--map", mp,
                   "--out", str(tmp_path / "c.json"))
    assert res2.returncode == 1
    mp3 = write_map(tmp_path / "indet.json", QUAD)
    res3 = run_cli("interpolate", "--map", mp3, "--point", "3",
                   "--out", str(tmp_path / "r.txt"))
    assert res3.returncode == 1
    assert "outside" in res3.stderr


@pytest.mark.parametrize("field, body", [
    ("numerators", {"n": 1, "numerators": 5}),
    ("numerators", {"n": 1, "numerators": ["x1^2+1", 3]}),
    ("denominators", {"n": 1, "numerators": ["x1^2"], "denominators": "1"}),
    ("n", {"n": "1", "numerators": ["x1^2"]}),
    ("e", {"n": 1, "numerators": ["x1^2"], "e": None}),
    ("e", {"n": 1, "numerators": ["x1^2"], "e": 0}),
    ("precision", {"n": 1, "numerators": ["x1^2"], "precision": 40.7}),
    ("kmax", {"n": 1, "numerators": ["x1^2"], "kmax": True}),
    ("prime", {"n": 1, "numerators": ["x1^2"], "prime": 5.0}),
])
def test_malformed_map_files_exit_one_naming_the_field(tmp_path, field, body):
    mp = write_map(tmp_path / "bad.json", body)
    res = run_cli("certify", "--map", mp, "--out", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert field in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("option, value", [
    ("--kmax", "0"), ("--mmax", "0"), ("--budget", "0"), ("--e", "0"),
    ("--precision", "-3"), ("--degree", "0"), ("--prime", "1"),
    ("--prime", "five"),
])
def test_out_of_range_options_exit_one_naming_the_option(tmp_path, option,
                                                         value):
    # the bounds of the map-file fields the options override
    mp = write_map(tmp_path / "m.json", QUAD)
    out = tmp_path / "c.json"
    res = run_cli("certify", "--map", mp, option, value, "--out", str(out))
    assert res.returncode == 1
    assert option in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_run_pipeline_rejects_ramification_below_one():
    from padicdyn.certify import run_pipeline
    cfg = parse_map_config(QUAD)
    with pytest.raises(ValueError, match="e must be"):
        run_pipeline(cfg.map, prime=3, e=0)


def test_too_little_precision_for_the_profile_names_the_options(tmp_path):
    mp = write_map(tmp_path / "m.json", dict(QUAD, kmax=16))
    out = tmp_path / "c.json"
    res = run_cli("certify", "--map", mp, "--precision", "3",
                  "--out", str(out))
    assert res.returncode == 1
    assert ("the orbit keeps 1 of the 3 digits of working precision"
            in res.stderr)
    assert "--precision" in res.stderr and "--kmax" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_a_zero_denominator_in_a_map_file_exits_one_naming_the_term(
        tmp_path):
    mp = write_map(tmp_path / "m.json", dict(QUAD, numerators=["x1^2 + 1/0"]))
    res = run_cli("certify", "--map", mp, "--out", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert "error: zero denominator in term '1/0'" in res.stderr
    assert "Traceback" not in res.stderr


def test_a_component_count_unlike_n_is_rejected_before_parsing():
    # parsing makes an exponent list of length n per term, so a map file
    # with a huge n must be rejected before any text is parsed
    with mock.patch("padicdyn.polynomials.parse_poly",
                    side_effect=AssertionError("parsed")):
        for body in ({"n": 10 ** 12, "numerators": ["x1"]},
                     {"n": 1, "numerators": ["x1"],
                      "denominators": ["1", "1"]}):
            with pytest.raises(ValueError, match="numerators and"):
                parse_map_config(body)


@pytest.mark.parametrize("point", ["1/0", "1,2", "two"])
def test_a_bad_point_exits_one_naming_the_option(tmp_path, point):
    mp = write_map(tmp_path / "m.json", QUAD)
    out = tmp_path / "r.txt"
    res = run_cli("interpolate", "--map", mp, "--point", point,
                  "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("error: --point")
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_a_deeply_nested_certificate_exits_one(tmp_path):
    cert_path = tmp_path / "nested.json"
    cert_path.write_bytes(b"[" * 100000)
    res = run_cli("verify", "--cert", str(cert_path))
    assert res.returncode == 1
    assert res.stderr.startswith("error: bad certificate JSON: ")
    assert "Traceback" not in res.stderr


def test_a_point_with_a_decimal_exponent_exits_one_at_once(tmp_path):
    # Fraction('1e10000000') builds the power exactly, which takes seconds;
    # only the a or a/b that certificates write is read
    assert cli._point_option("-3/4,+5", 2) == [Fraction(-3, 4), Fraction(5)]
    with pytest.raises(ValueError, match="^--point"):
        cli._point_option("1e10000000", 1)
    mp = write_map(tmp_path / "m.json", QUAD)
    out = tmp_path / "r.txt"
    res = run_cli("interpolate", "--map", mp, "--point", "1e10000000",
                  "--out", str(out), timeout=30)
    assert res.returncode == 1
    assert res.stderr.startswith("error: --point")
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_one_parser_serves_every_call_of_main(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    # certify, verify, certify --kmax 8 and certify in one process: the
    # last certificate has the map's k_max again, so no option leaks from
    # one call of main into the next
    body = {key: value for key, value in QUAD.items() if key != "kmax"}
    mp = write_map(tmp_path / "m.json", body)
    certs = [str(tmp_path / f"c{i}.json") for i in range(3)]
    calls = [["certify", "--map", mp, "--out", certs[0]],
             ["verify", "--cert", certs[0]],
             ["certify", "--map", mp, "--out", certs[1], "--kmax", "8"],
             ["certify", "--map", mp, "--out", certs[2]]]
    outputs = []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, argv
        outputs.append(out.getvalue())
    assert "certificate is valid" in outputs[1]
    k_max = [Certificate.load(c).data["mahler_profile"]["k_max"]
             for c in certs]
    assert k_max == [32, 8, 32]
    assert Certificate.load(certs[0]) == Certificate.load(certs[2])


# -- malformed input never gets past the parse layer --------------------------

def is_int_at_least(text, low):
    try:
        return int(text) >= low
    except ValueError:
        return False


def is_rational(text):
    try:
        Fraction(text)
        return True
    except (ValueError, ZeroDivisionError):
        return False


# JSON values of every type; whichever a field does not accept is malformed
JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=6),
                 st.integers(-3, 3), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=2))


def not_an_int_at_least(low):
    return st.one_of(JUNK.filter(lambda v: type(v) is not int),
                     st.integers(max_value=low - 1))


# polynomial text that never parses: whatever text precedes ' + 1/0', the
# parse fails in that text, at the '+' or at the zero denominator
BAD_POLY = st.text("x1234567890+-*/^ .()", max_size=8).map(
    lambda t: t + " + 1/0")

BAD_FIELDS = {
    "n": st.one_of(not_an_int_at_least(1), st.integers(2, 1000)),
    "numerators": st.one_of(
        JUNK.filter(lambda v: not isinstance(v, list)),
        st.lists(JUNK.filter(lambda v: not isinstance(v, str)), min_size=1,
                 max_size=2),
        st.lists(BAD_POLY, min_size=1, max_size=1),
        st.just(["x1", "x1"])),
    "denominators": st.one_of(
        JUNK.filter(lambda v: v is not None and not isinstance(v, list)),
        st.lists(BAD_POLY, min_size=1, max_size=1), st.just(["0"]),
        st.just([])),
    "prime": st.one_of(JUNK.filter(lambda v: type(v) is not int
                                   and v not in (None, "auto")),
                       st.integers(max_value=1)),
    "lift": JUNK.filter(lambda v: v not in ("teichmuller", "naive")),
    **{key: not_an_int_at_least(low) for key, low in INT_FIELDS.items()},
}


@st.composite
def malformed_map_files(draw):
    """The bytes of a map file that cannot parse: one bad field in a good
    map, a missing field, a JSON value that is no object, broken JSON or
    JSON nested past the recursion limit."""
    kind = draw(st.sampled_from(["field", "missing", "value", "bytes"]))
    body = dict(QUAD)
    if kind == "field":
        key = draw(st.sampled_from(sorted(BAD_FIELDS)))
        body[key] = draw(BAD_FIELDS[key])
    elif kind == "missing":
        del body[draw(st.sampled_from(["n", "numerators"]))]
    elif kind == "value":
        body = draw(JUNK.filter(lambda v: not isinstance(v, dict)))
    else:
        good = json.dumps(QUAD).encode()
        return draw(st.sampled_from([good[:-1], b"\xff" + good,
                                     b"[" * 100000 + b"]" * 100000]))
    return json.dumps(body).encode()


MAP, OUT = "<map>", "<out>"


def exit_code_without_the_pipeline(args, map_bytes=None):
    """cli.main's return value for args, with MAP and OUT standing for
    paths in a fresh directory; the pipeline must never be reached."""
    with tempfile.TemporaryDirectory() as tmp:
        mp = Path(tmp) / "m.json"
        mp.write_bytes(json.dumps(QUAD).encode() if map_bytes is None
                       else map_bytes)
        paths = {MAP: str(mp), OUT: str(Path(tmp) / "out")}
        argv = [paths.get(arg, arg) for arg in args]
        stderr = io.StringIO()
        with mock.patch.object(cli, "run_pipeline",
                               side_effect=AssertionError("pipeline ran")), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert stderr.getvalue().startswith("error: ")
        assert not (Path(tmp) / "out").exists()
    return code


@settings(max_examples=150, deadline=None)
@given(malformed_map_files(), st.sampled_from(["certify", "interpolate"]))
def test_a_malformed_map_file_exits_one(map_bytes, command):
    args = [command, "--map", MAP, "--out", OUT]
    if command == "interpolate":
        args += ["--point", "2"]
    assert exit_code_without_the_pipeline(args, map_bytes) == 1


def bad_option_values():
    int_options = [(f"--{option}", INT_FIELDS[key])
                   for option, key in cli.INT_OPTIONS.items()]
    int_option = st.sampled_from(int_options).flatmap(
        lambda pair: st.tuples(st.just(pair[0]), st.one_of(
            st.text(max_size=6).filter(
                lambda t: not is_int_at_least(t, pair[1])),
            st.integers(max_value=pair[1] - 1).map(str))))
    prime = st.tuples(st.just("--prime"), st.one_of(
        st.text(max_size=6).filter(
            lambda t: t != "auto" and not is_int_at_least(t, 2)),
        st.integers(max_value=1).map(str)))
    # no exponent letter, which would let Fraction build a huge power
    point = st.tuples(st.just("--point"), st.one_of(
        st.text("0123456789/,.-+ _x", max_size=8).filter(
            lambda t: "," in t or not is_rational(t)),
        st.integers().map(lambda a: f"{a}/0")))
    return st.one_of(int_option, prime, point)


@settings(max_examples=150, deadline=None)
@given(bad_option_values())
def test_a_bad_option_value_exits_one(option_value):
    option, value = option_value
    # --opt=value, so that a value starting with '-' is not an option
    args = ["interpolate" if option == "--point" else "certify",
            "--map", MAP, "--out", OUT, f"{option}={value}"]
    assert exit_code_without_the_pipeline(args) == 1
