"""Traced stand-in for ``python -m ttrnn`` used by traced benchmark runs.

Usage: python3 perfbench/child.py <ttrnn arguments>, with PYTHONPATH
pointing at the sources and PERFBENCH_TRACE_OUT naming the span file.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402  (after the path set-up above)

if __name__ == "__main__":
    sys.exit(spans.child_main(sys.argv[1:]))
