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
