"""The alignment right-hand side of a layer in its coefficients' own layout, for tests that compare it with references."""

import numpy as np


def full_rhs(align, c, with_sup=True):
    """``align.lower(0, rhs)`` of the block right-hand side of c, and its sup (None unless with_sup).

    ``align`` is a layer's ``spectral.Alignment``; this is the right-hand
    side one Heun stage would add to c, on every mode of c.
    """
    rhs, sup = align.rhs(align.lift(c), with_sup)
    return align.lower(np.zeros_like(c), rhs), sup
