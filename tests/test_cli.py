"""Command-line interface: subcommands, exit codes, file formats."""

import json
import subprocess
import sys

import pytest

from padicdyn.certify import Certificate
from padicdyn.mapfile import load_map_file, parse_map_config


def run_cli(*args, module="padicdyn.cli"):
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True)


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
