import sys
from pathlib import Path

import pytest

# make the shared reference helpers importable from any test module
sys.path.insert(0, str(Path(__file__).parent))


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.fixture
def shallow_stack():
    """Call `fn(*args)` with the recursion limit about 40 frames above the
    caller's depth, so a search that recurses once per element fails fast."""

    def call(fn, *args):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 40)
        try:
            return fn(*args)
        finally:
            sys.setrecursionlimit(old)

    return call
