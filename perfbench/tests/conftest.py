"""Make the benchmark's modules and the program importable in tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402

env.use_source_tree()
