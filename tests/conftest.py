import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run_python():
    """Run Python in a fresh interpreter with ``src`` on PYTHONPATH and return its stdout.

    ``args`` follow the interpreter (``"-c", script`` or a file).  ``env``
    maps variables to set over the current environment, or to None to unset
    them.  A non-zero exit fails the test with the interpreter's stderr.
    """

    def run(*args, env=None):
        full = dict(os.environ)
        for key, value in (env or {}).items():
            if value is None:
                full.pop(key, None)
            else:
                full[key] = value
        full["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [full.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, *args], env=full, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture
def traced_peak():
    """Call ``fn(*args)`` under tracemalloc and return (its result, the traced peak in bytes).

    The thread pool of the Monte Carlo blocks is imported before tracing
    starts: its first import, about 0.5 MB, would otherwise count against
    whichever test runs first.  ``concurrent.futures`` loads its executor
    submodule lazily, so the executor itself is imported.
    """
    from concurrent.futures import ThreadPoolExecutor  # noqa: F401

    def trace(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return trace
