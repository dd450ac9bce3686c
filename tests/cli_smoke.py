"""Command-line smoke check on the standard library alone.

Runs ``padicdyn certify`` and then ``padicdyn verify`` on each map of
``demos/maps`` in a fresh interpreter, and checks the exit codes, the
verifier's verdict and the sha256 of every certificate written. Each
``--out`` path is first filled with a longer file, so the certificate is
written over it in place and must leave no stale tail. It needs
no test framework, so it runs on every supported Python:

    python tests/cli_smoke.py

Exit code 0 when every check passed, 1 otherwise.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the certificate file certify writes for each demo map
SHA256 = {
    "quadratic_p3":
        "666ac4255dc86cfcdb7196b01187fa73b7dee7bf080195b9fd0dc204d0ce052c",
    "cube_p5":
        "2da128bdcd208a0f70e127a565b667d71cd5368056f2fdd3b0c4e00c27bc2cea",
    "twodim_p5":
        "21a96b3f90e3f797c2865e90c49efdfd446616922ba78757ed251ec44014b980",
    "square_ramified_p5":
        "9202e0652de6f21d84ce423fa452cb3024c3376ba2ea4baee9cfcc37e766573a",
}

# what each --out path holds before certify runs: longer than every
# certificate above (the ramified one is about 632 kB)
STALE = b"stale certificate bytes\n" * 50_000


def padicdyn(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "padicdyn", *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def check(name, workdir):
    """The problems found with one demo map, an empty list if none."""
    cert = Path(workdir) / f"{name}.cert.json"
    cert.write_bytes(STALE)
    res = padicdyn("certify", "--map", str(ROOT / "demos" / "maps"
                                           / f"{name}.json"),
                   "--out", str(cert))
    if res.returncode != 0:
        return [f"certify exited {res.returncode}: {res.stderr.strip()}"]
    problems = []
    if cert.stat().st_size >= len(STALE):
        problems.append(f"the certificate is not shorter than the"
                        f" {len(STALE)} bytes it was written over")
    digest = hashlib.sha256(cert.read_bytes()).hexdigest()
    if digest != SHA256[name]:
        problems.append(f"certificate sha256 {digest}, expected"
                        f" {SHA256[name]}")
    res = padicdyn("verify", "--cert", str(cert))
    if res.returncode != 0 or "certificate is valid" not in res.stdout:
        problems.append(f"verify exited {res.returncode}:"
                        f" {res.stdout.strip()} {res.stderr.strip()}")
    return problems


def main():
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for name in SHA256:
            problems = check(name, workdir)
            failed = failed or bool(problems)
            print(f"{'FAIL' if problems else 'ok'}: {name}")
            for problem in problems:
                print(f"  {problem}")
    print(f"Python {sys.version.split()[0]}:"
          f" {'FAILED' if failed else 'all demo maps certify and verify'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
