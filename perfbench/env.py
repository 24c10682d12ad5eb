"""Where the benchmark finds the program and puts its outputs.

The benchmark runs from a plain checkout: it imports ``repro`` from the
checkout's ``src`` directory and starts every ``repro serve`` child with
that directory on ``PYTHONPATH``.

Importing this module pins the numeric libraries to one thread.  It must
be imported before numpy: the benchmark forks one child per repetition,
which is safe only while the process has a single thread (the program
runs its numerics on one thread anyway).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: spans, profiles and scratch directories of the runs (git-ignored)
OUT = HERE / "out"

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child processes: ``src`` on the path and
    unbuffered output, so the parent sees each line when it is printed."""
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env
