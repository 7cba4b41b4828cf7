"""Exact and checked linear solves.

`eliminate` is the package's one sparse exact elimination, GTH state
reduction of integer rows with optional loads, back-substitution records
and elimination order: `exactlaw` runs it on chains (tower chains in an
order of its own), `network` on rational Laplacians.
`solve_fraction` is dense Gauss-Jordan over Fraction, for `exactlaw.green`
and the tests' references.  Every float solve in the package (the sparse
network solves) passes its result through `check_residual`, since
downstream quantities (resistances, hitting laws) are compared at tight
tolerances.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Sequence

import numpy as np


class SingularSystemError(ArithmeticError):
    """Linear system has no unique solution."""


RESIDUAL_TOL = 1e-10
# rows of a dense matrix whose absolute values `check_residual` sums at a
# time, so that it never holds a second matrix of a's size
RESIDUAL_ROWS = 256


def eliminate(
    out: list,
    sinks: list,
    keep: set,
    loads: list | None = None,
    stars: list | None = None,
    order: Sequence[int] | None = None,
) -> None:
    """Reduce integer rows onto the rows in keep by GTH state reduction
    (Grassmann, Taksar and Heyman 1985).

    Row i reads T_i x_i = loads[i] + sum_k out[i][k] x_k + sum_z
    sinks[i][z] x_z: out[i] and sinks[i] map rows and sink labels to
    positive weights totalling T_i, and the load (0 if loads is None, when
    no load arithmetic is done) is an injected current outside that total.
    Rows outside keep go in the given order, which must name each of them
    exactly once (else ValueError), or else fewest in-edges times
    out-edges first (ties by id), a min-degree heap.  The result does not
    depend on the order, only its cost does: the heap suits networks,
    whose local rows it keeps sparse, while a tower chain eliminated
    leaves first needs no heap at all.  Eliminating s makes each
    predecessor row, load included, T_s * row_i + w_is * row_s over its
    gcd.  The self-loops of rows still to be eliminated are dropped, so
    nothing is ever subtracted.  Kept rows keep theirs: a chain's kept
    row k ends proportional to where the chain from k is first seen again
    in keep (at time >= 1), or to the sink it ends on first.  stars, if a
    list, receives (s, out_s, sinks_s, load_s, T_s) for each eliminated
    row in order, for back-substitution in reverse.
    """
    live = set(range(len(out))) - keep
    if order is not None and (len(order) != len(live) or set(order) != live):
        raise ValueError("order must name every row outside keep exactly once")
    preds = [set() for _ in out]
    for i, row in enumerate(out):
        if i not in keep:
            row.pop(i, None)
        for k in row:
            preds[k].add(i)

    def cost(t: int) -> int:
        return len(preds[t]) * (len(out[t]) + len(sinks[t]))

    def pops():  # the min-degree order, stale heap entries skipped
        heap = [(cost(t), t) for t in live]
        heapq.heapify(heap)
        while heap:
            c, s = heapq.heappop(heap)
            if s not in live or c != cost(s):
                continue
            live.discard(s)
            succ = out[s].keys()
            yield s
            for t in (preds[s] | succ) & live:
                heapq.heappush(heap, (cost(t), t))

    for s in pops() if order is None else order:
        out_s, sinks_s = out[s], sinks[s]
        total = sum(out_s.values()) + sum(sinks_s.values())
        load_s = loads[s] if loads is not None else 0
        if stars is not None:
            stars.append((s, out_s, sinks_s, load_s, total))
        for k in out_s:
            preds[k].discard(s)
        for i in preds[s]:
            out_i, sinks_i = out[i], sinks[i]
            w = out_i.pop(s)
            for row_i, row_s in ((out_i, out_s), (sinks_i, sinks_s)):
                for k in row_i:
                    row_i[k] *= total
                for k, v in row_s.items():
                    row_i[k] = row_i.get(k, 0) + w * v
            if i not in keep:
                out_i.pop(i, None)
            for k in out_s:
                if k != i:
                    preds[k].add(i)
            if loads is None:
                g = math.gcd(*out_i.values(), *sinks_i.values())
            else:
                load_i = loads[i] * total + w * load_s
                g = math.gcd(*out_i.values(), *sinks_i.values(), load_i)
                loads[i] = load_i // g if g > 1 else load_i
            if g > 1:
                for row_i in (out_i, sinks_i):
                    for k in row_i:
                        row_i[k] //= g
        out[s] = sinks[s] = None


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


def _max_row_sum(a):
    """max_i sum_j |a_ij|; a dense a is summed RESIDUAL_ROWS rows at a time."""
    if not isinstance(a, np.ndarray):  # sparse: |a| is as sparse as a
        return abs(a).sum(axis=1).max()
    rows = range(0, len(a), RESIDUAL_ROWS)
    return np.max([np.abs(a[i : i + RESIDUAL_ROWS]).sum(axis=1).max() for i in rows])


def check_residual(a, x, b) -> None:
    """Refuse a float solution x of a x = b whose backward error is too big.

    The normwise backward error |a x - b| / (|a| |x| + |b|), in the max
    norm, must not exceed RESIDUAL_TOL; otherwise SingularSystemError.
    Unlike a residual scaled by the entries of a and b alone, it accepts
    backward-stable solutions of any size.  a may be dense or sparse; the
    row sums of a dense |a| are taken RESIDUAL_ROWS rows at a time.
    """
    if not np.size(x):
        return
    scale = _max_row_sum(a) * abs(x).max() + abs(b).max()
    resid = float(abs(a @ x - b).max() / scale) if scale else 0.0
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise SingularSystemError(f"residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e}")
