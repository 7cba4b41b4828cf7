"""Exact and checked linear solves.

`solve_fraction` is dense Gauss-Jordan elimination over Fraction, for
`exactlaw.green` (in both numeric modes) and the tests' references.
Every float solve in the package (the sparse network solves) passes its
result through `check_residual`, since downstream quantities
(resistances, hitting laws) are compared at tight tolerances.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class SingularSystemError(ArithmeticError):
    """Linear system has no unique solution."""


RESIDUAL_TOL = 1e-10


def solve_fraction(a, b):
    """Solve a x = b exactly over Fraction.

    a is n x n, b is n x m (lists of lists); both are copied.  Gaussian
    elimination with the largest-magnitude column pivot, which keeps the
    intermediate numerators from ballooning on structured systems.
    """
    n = len(a)
    a = [list(map(Fraction, row)) for row in a]
    b = [list(map(Fraction, row)) for row in b]
    m = len(b[0]) if n else 0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularSystemError("singular rational system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            for c in range(m):
                b[r][c] -= f * b[col][c]
    return [[b[r][c] / a[r][r] for c in range(m)] for r in range(n)]


def check_residual(a, x, b) -> None:
    """Refuse a float solution x of a x = b whose backward error is too big.

    The normwise backward error |a x - b| / (|a| |x| + |b|), in the max
    norm, must not exceed RESIDUAL_TOL; otherwise SingularSystemError.
    Unlike a residual scaled by the entries of a and b alone, it accepts
    backward-stable solutions of any size.  a may be dense or sparse.
    """
    if not np.size(x):
        return
    scale = abs(a).sum(axis=1).max() * abs(x).max() + abs(b).max()
    resid = float(abs(a @ x - b).max() / scale) if scale else 0.0
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise SingularSystemError(f"residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e}")
