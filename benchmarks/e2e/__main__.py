"""``python -m benchmarks.e2e`` is ``python3 benchmarks/e2e/run.py``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

sys.exit(run.main())
