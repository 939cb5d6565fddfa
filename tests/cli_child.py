"""Run the atomlab command line in a child process, under an address-space
cap and a wall timeout.

A query that runs out of memory in the test process would take the test run
with it, and a MemoryError there says nothing about the exit code the
command line gives.  run_cli caps the child alone, so a test can check that
a query ends with its contracted exit code and no traceback.
"""

import os
import pathlib
import resource
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv: str, max_bytes: int = 1 << 30, timeout: float = 60.0
            ) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `python -m atomlab.cli *argv`,
    run with src first on the path and RLIMIT_AS set to max_bytes in the
    child.  Raises subprocess.TimeoutExpired after timeout seconds."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path
                                                  if path else ""))
    proc = subprocess.run([sys.executable, "-m", "atomlab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=cap, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr
