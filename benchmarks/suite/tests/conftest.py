"""Make the suite's flat modules and ``src/`` importable for its self-tests."""

import os
import sys

SUITE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if SUITE_DIR not in sys.path:
    sys.path.insert(0, SUITE_DIR)

import harness  # noqa: E402

harness.make_hermetic()
