"""Canonical decimal text of certificate iterates.

fraction_text against str(), the ramified demo certificate's byte identity,
the verifier's rejection of other texts of the payload and witness values,
and the interpreter's int/str conversion guard, which importing padicdyn
must leave alone.
"""

import copy
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from padicdyn.certify import (TEXT_DIRECT_BITS, Certificate, _digest,
                              find_witness, fraction_text, run_pipeline,
                              verify_certificate)
from padicdyn.errors import CertificateFormatError
from padicdyn.mapfile import load_map_file

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the ramified demo's certificate file, the value pinned in
# perfbench/reference.json
RAMIFIED_SHA256 = \
    "9202e0652de6f21d84ce423fa452cb3024c3376ba2ea4baee9cfcc37e766573a"

# sha256 of the other demo certificate files, as padicdyn certify writes them
DEMO_SHA256 = {
    "quadratic_p3":
        "666ac4255dc86cfcdb7196b01187fa73b7dee7bf080195b9fd0dc204d0ce052c",
    "cube_p5":
        "2da128bdcd208a0f70e127a565b667d71cd5368056f2fdd3b0c4e00c27bc2cea",
    "twodim_p5":
        "21a96b3f90e3f797c2865e90c49efdfd446616922ba78757ed251ec44014b980",
}

MAX_BITS = 66_440                     # about 20,000 decimal digits

# bit lengths over the whole range, and closely around the size where
# fraction_text switches from str() to the divide-and-conquer conversion
bit_lengths = st.one_of(
    st.integers(1, MAX_BITS),
    st.integers(TEXT_DIRECT_BITS - 4, TEXT_DIRECT_BITS + 4))


@st.composite
def sized_ints(draw):
    bits = draw(bit_lengths)
    rnd = draw(st.randoms(use_true_random=False))
    return rnd.getrandbits(bits) | (1 << (bits - 1))


# values whose decimal text has long runs of 0 or 9 across the split points
# (named: pytest's default ids would str() them past the conversion limit)
EDGE = {"2^direct": 2 ** TEXT_DIRECT_BITS,
        "2^(direct+1)-1": 2 ** (TEXT_DIRECT_BITS + 1) - 1,
        "10^1234": 10 ** 1234, "10^1234-1": 10 ** 1234 - 1,
        "10^1300+1": 10 ** 1300 + 1, "2^max": 2 ** MAX_BITS,
        "10^20000-1": 10 ** 20_000 - 1}

PROPERTY = settings(deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@pytest.fixture
def str_oracle():
    """str() with the int/str conversion limit lifted around each call and
    restored after it, so fraction_text itself runs under the guard."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str

    def oracle(x):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(saved)
    return oracle


@PROPERTY
@given(n=sized_ints(), negative=st.booleans())
@example(n=1, negative=False)
@example(n=0, negative=False)
def test_fraction_text_matches_str_on_integers(str_oracle, n, negative):
    if negative:
        n = -n
    assert fraction_text(n) == str_oracle(n)
    assert fraction_text(Fraction(n)) == str_oracle(n)


@pytest.mark.parametrize("n", EDGE.values(), ids=EDGE.keys())
def test_fraction_text_edge_values(str_oracle, n):
    for m in (n, -n, n + 1, n - 1):
        assert fraction_text(m) == str_oracle(m)


@PROPERTY
@given(num=sized_ints(), den=sized_ints(), negative=st.booleans())
def test_fraction_text_matches_str_on_fractions(str_oracle, num, den,
                                                negative):
    x = Fraction(-num if negative else num, den)
    assume(x.denominator != 1)
    assert fraction_text(x) == str_oracle(x)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int/str conversion limit before Python 3.10.7")
def test_import_keeps_int_conversion_guard():
    code = ("import sys\n"
            "before = sys.get_int_max_str_digits()\n"
            "import padicdyn, padicdyn.cli\n"
            "print(before, sys.get_int_max_str_digits())\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int/str conversion limit in force")
def test_oversized_json_integer_is_a_format_error():
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(CertificateFormatError, match="bad certificate JSON"):
        Certificate.from_json_text('{"witness": [' + digits + ']}')


def demo_certificate(name):
    """The certificate padicdyn certify writes for demos/maps/<name>.json,
    and its sha256, after the verifier accepts it."""
    cfg = load_map_file(ROOT / "demos" / "maps" / f"{name}.json")
    pipe = run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                        precision=cfg.precision, degree=cfg.degree,
                        m_max=cfg.m_max, lift=cfg.lift)
    cert = find_witness(pipe.nbhd, pipe.bound, cfg.search_budget,
                        kmax=cfg.kmax)
    report = verify_certificate(cert)
    assert report.ok, report.failures()
    return cert, hashlib.sha256(cert.json_text().encode()).hexdigest()


def test_ramified_demo_certificate_is_byte_identical():
    # x^2 at p=5, e=2: N = 20 and f^N(omega) has 631,306 digits
    cert, digest = demo_certificate("square_ramified_p5")
    assert len(cert.data["payload"]["iterate"][0]) == 631_306
    assert digest == RAMIFIED_SHA256


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_certificates_are_byte_identical(name):
    _, digest = demo_certificate(name)
    assert digest == DEMO_SHA256[name]


def test_non_canonical_payload_text_is_rejected(quad_p3_naive):
    # both texts a certificate records for rationals, the payload iterate and
    # the witness, must be canonical
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    text = cert.data["payload"]["iterate"][0]
    cases = [(("payload", "iterate"), forged, "payload")
             for forged in [["+" + text], [text + "/1"], [" " + text],
                            [int(text)], [text, text], [], text]]
    assert cert.data["witness"] == ["2"]
    cases += [(("witness",), [forged], "witness")
              for forged in ("+2", "2/1", " 2", "4/2")]
    for path, forged, stage in cases:
        bad = copy.deepcopy(cert.data)
        node = bad
        for key in path[:-1]:
            node = node[key]
        if isinstance(forged, list) and forged and isinstance(forged[0], str):
            # the same rational, so only the text check can catch it
            assert Fraction(forged[0]) == Fraction(node[path[-1]][0])
        node[path[-1]] = forged
        bad["digest"] = _digest(bad)
        report = verify_certificate(Certificate(bad))
        failures = dict(report.failures())
        assert set(failures) == {stage}, (forged, failures)
        assert failures[stage] == f"{stage} differs from its recomputation"
