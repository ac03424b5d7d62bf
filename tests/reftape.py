"""Reference tape ops that only tests use.

sum_all reduces a value of any shape to the scalar loss that backward
needs, so a test can differentiate any op's output.
"""

import numpy as np

from ttrnn.autodiff import Tape, Variable
from ttrnn.tensor import _wrap


def sum_all(tape: Tape, a: Variable) -> Variable:
    out = _wrap(np.array(a.value.array.sum()))
    return tape.emit(out, [(a, lambda g: np.full(a.value.shape, float(g)))])
