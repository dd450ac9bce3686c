"""What ``import padicdyn`` loads: every CLI call pays for it."""

import json
import subprocess
import sys


def test_importing_padicdyn_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since the test run itself has loaded both
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import padicdyn\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    added = json.loads(res.stdout)
    assert "padicdyn.certify" in added
    assert "dataclasses" not in added and "inspect" not in added


def test_importing_padicdyn_builds_no_field_view_or_compiled_map():
    # fields, search views and compiled maps are made on first use, so a
    # CLI call that needs none of them pays nothing for them
    probe = ("import json\n"
             "import padicdyn\n"
             "from padicdyn import dynamics, finitefields, polynomials\n"
             "caches = (finitefields.prime_power_field, dynamics.search_view,"
             " polynomials._compiled, finitefields._compiled_product)\n"
             "print(json.dumps([c.cache_info().currsize for c in caches]))\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert json.loads(res.stdout) == [0, 0, 0, 0]
