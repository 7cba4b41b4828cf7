"""Loop erasure and partial loop erasure of finite paths.

A path is a non-empty tuple of hashable states.  Loop erasure removes
every loop in chronological order: starting from the first state, jump
past the last visit to the current state, and repeat until the walk's
final state is reached.  Partial loop erasure does the same but only
erases loops based at a retained set of states; everything else is
copied through untouched.

Two implementations are kept for each operation.  Both follow the
defining index recursion: from the current index, jump past the last
visit to its state (erasable states) or step to the next index (others).
The naive ones find each last visit by rescanning the remainder of the
path (O(eta^2)).  The fast ones read it from a last-visit table built
once, dict(zip(w, range(len(w)))), in which later positions overwrite
earlier ones; the chase then costs one table lookup per surviving
index, so its Python work scales with the output, not the input.  Tests
pin them to each other on fuzzed inputs and long graph walks; the naive
versions are the reference.

Sampled graph walks are numpy paths of integer states, and two array
routines erase them by the same recursion, returning the surviving
indices: `loop_erase_array` (full erasure) and
`partial_loop_erase_array` (under a boolean erasable mask).  Each keeps
its last-visit table as an array over states, built with one
np.maximum.at.  `limits.coupled_refinement_distance` uses both, and
`limits.lerw_set_law` uses `loop_erase_array` for its plain "LE"
pipeline.  The tuple routines serve everything else: chain paths of
arbitrary hashable states (corner walks, exact enumeration) and the
refinement pipelines through `refinement_erase`.  Tests pin the array
routines to the naive ones as well.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

State = Hashable
Path = tuple


class ErasureResult(NamedTuple):
    """Erased path together with the surviving input indices.

    indices is strictly increasing, starts at 0, and path[k] equals the
    input at indices[k] for every k.
    """

    path: tuple
    indices: tuple


def _as_path(w: Sequence) -> tuple:
    w = tuple(w)
    if not w:
        raise ValueError("path must be non-empty")
    return w


def loop_erase_naive(w: Sequence) -> ErasureResult:
    """Loop erasure by the literal index recursion, O(eta^2)."""
    w = _as_path(w)
    eta = len(w) - 1
    indices = [0]
    while w[indices[-1]] != w[eta]:
        cur = indices[-1]
        # last visit to the current state anywhere at or after cur
        last = max(n for n in range(cur, eta + 1) if w[n] == w[cur])
        indices.append(last + 1)
    return ErasureResult(tuple(w[n] for n in indices), tuple(indices))


def partial_loop_erase_naive(w: Sequence, retained: Iterable) -> ErasureResult:
    """Partial loop erasure by the literal index recursion, O(eta^2).

    Loops based at states in `retained` are erased; other states are
    stepped over one at a time and survive.  retained == all states of w
    reduces to loop_erase_naive, retained == empty set is the identity.
    """
    w = _as_path(w)
    retained = frozenset(retained)
    eta = len(w) - 1
    indices = [0]
    while True:
        cur = indices[-1]
        if w[cur] in retained:
            if w[cur] == w[eta]:
                break
            last = max(n for n in range(cur, eta + 1) if w[n] == w[cur])
            indices.append(last + 1)
        else:
            if cur == eta:
                break
            indices.append(cur + 1)
    return ErasureResult(tuple(w[n] for n in indices), tuple(indices))


def loop_erase(w: Sequence) -> ErasureResult:
    """Loop erasure, a pointer chase over the last-visit table."""
    w = _as_path(w)
    last = dict(zip(w, range(len(w))))  # later visits overwrite earlier ones
    eta = len(w) - 1
    indices = [0]
    nxt = last[w[0]]
    while nxt != eta:
        indices.append(nxt + 1)
        nxt = last[w[nxt + 1]]
    return ErasureResult(tuple(map(w.__getitem__, indices)), tuple(indices))


def fold_step(prefix: tuple, y, retained) -> tuple:
    """One left-fold step of (partial) loop erasure on the erased prefix.

    prefix is the erasure of the input consumed so far and y the next
    state; retained None means full loop erasure.  A revisit of an
    erasable y cuts the prefix back to its last copy of y; anything else
    is appended.  This is the step the exact enumerator folds.  The
    search runs in C: `in`, then `index` on the reversed prefix.
    """
    if (retained is None or y in retained) and y in prefix:
        return prefix[: len(prefix) - prefix[::-1].index(y)]
    return prefix + (y,)


def partial_loop_erase(w: Sequence, retained: Iterable) -> ErasureResult:
    """Partial loop erasure, a pointer chase over the last-visit table.

    At a retained state the chase jumps past that state's last visit; at
    any other state it steps to the next index.  It stops at the final
    index, or at a retained state whose last visit is the final index.
    """
    w = _as_path(w)
    retained = frozenset(retained)
    last = dict(zip(w, range(len(w))))  # later visits overwrite earlier ones
    eta = len(w) - 1
    indices = [0]
    i = 0
    while True:
        y = w[i]
        if y in retained:
            i = last[y]
        if i == eta:
            break
        i += 1
        indices.append(i)
    return ErasureResult(tuple(map(w.__getitem__, indices)), tuple(indices))


def loop_erase_array(w: np.ndarray, n_states: int) -> np.ndarray:
    """Surviving indices of the loop erasure of an integer path.

    w is a non-empty 1-d array of states 0..n_states-1; the result equals
    loop_erase(w).indices as an array.  The last-visit table is an array
    over states; gathered along the path it gives each position the last
    visit to the state held there, and the chase reads one entry of that
    per surviving index, so its Python work scales with the output.  It
    reads them through a memoryview, which yields Python ints without
    converting the whole path to a list.
    """
    w = np.asarray(w)
    if w.ndim != 1 or not len(w):
        raise ValueError("path must be a non-empty 1-d array")
    eta = len(w) - 1
    last = np.zeros(n_states, dtype=np.intp)  # state -> its last visit
    np.maximum.at(last, w, np.arange(len(w)))
    succ = memoryview(last[w])  # position -> last visit to the state held there
    indices = [0]
    nxt = succ[0]
    while nxt != eta:
        indices.append(nxt + 1)
        nxt = succ[nxt + 1]
    return np.array(indices, dtype=np.intp)


def partial_loop_erase_array(w: np.ndarray, erasable: np.ndarray) -> np.ndarray:
    """Surviving indices of the partial loop erasure of an integer path.

    w is a non-empty 1-d array of states 0..len(erasable)-1 and erasable a
    boolean mask over states; the result equals
    partial_loop_erase(w, {s : erasable[s]}).indices as an array.  An
    all-True mask gives loop erasure, an all-False mask the identity.

    Only positions holding erasable states are chased.  The last visit
    to an erasable state is itself such a position, so the chase runs on
    their ranks alone and the next erasable position after a jump is the
    next rank.  The runs between chased positions survive whole; only
    those runs are materialized.
    """
    w = np.asarray(w)
    if w.ndim != 1 or not len(w):
        raise ValueError("path must be a non-empty 1-d array")
    eta = len(w) - 1
    marks = np.flatnonzero(erasable[w])  # positions holding erasable states
    held = w[marks]
    last = np.zeros(len(erasable), dtype=np.intp)  # state -> rank of its last visit
    np.maximum.at(last, held, np.arange(len(marks)))
    runs = []
    i = j = 0  # next input position, rank of the first erasable position at or after it
    while j < len(marks):
        e = marks.item(j)
        runs.append(np.arange(i, e + 1))
        j = last.item(held.item(j))  # jump past the last visit to w[e]
        i = marks.item(j) + 1
        if i > eta:
            break
        j += 1
    else:  # no erasable position left: the rest survives
        runs.append(np.arange(i, eta + 1))
    return np.concatenate(runs)


def refinement_erase(w: Sequence, levels: Sequence[Iterable]) -> tuple[ErasureResult, ...]:
    """Apply partial loop erasure through a nested sequence of levels.

    levels must be non-empty and non-decreasing (each level a superset of
    the previous).  Stage i erases the previous stage's path with level
    i; the full tuple of stage results is returned, so result[-1].path is
    the composed erasure.  Stage indices refer to that stage's own input.
    """
    w = _as_path(w)
    sets = [frozenset(v) for v in levels]
    if not sets:
        raise ValueError("levels must be non-empty")
    for a, b in zip(sets, sets[1:]):
        if not a <= b:
            raise ValueError("levels must be nested (non-decreasing)")
    results = []
    cur = w
    for v in sets:
        r = partial_loop_erase(cur, v)
        results.append(r)
        cur = r.path
    return tuple(results)


def reverse_path(w: Sequence) -> tuple:
    return tuple(reversed(_as_path(w)))


def concat_paths(a: Sequence, b: Sequence) -> tuple:
    """Join two paths sharing an endpoint; the junction state appears once."""
    a, b = _as_path(a), _as_path(b)
    if a[-1] != b[0]:
        raise ValueError("paths do not share a junction state")
    return a + b[1:]


def algorithm_one(w: Sequence, b) -> tuple:
    """Loop-erase w except that the part after the marked state b is
    erased in reverse.

    If b does not survive plain loop erasure the output is just the
    loop erasure of w.  Otherwise the surviving prefix up to b is kept
    and the remainder of w is reversed, loop-erased, and reversed back
    before joining.  Tests assert that both endpoints of w survive.
    """
    w = _as_path(w)
    le = loop_erase(w)
    if b not in le.path:
        return le.path
    j = le.path.index(b)
    tail = w[le.indices[j]:]
    tail_le = reverse_path(loop_erase(reverse_path(tail)).path)
    return concat_paths(le.path[: j + 1], tail_le)


def algorithm_two(w: Sequence, b, retained: Iterable | None = None) -> tuple:
    """Same output as algorithm_one, built through a partial erasure.

    The tail after b is only partially erased (about every state except
    b) and a final full loop erasure cleans up.  retained defaults to all
    states of w except b; an explicit retained set must contain every
    state of w other than b and must not contain b.  Tests assert that
    the output equals algorithm_one's path for path, not only in law.
    """
    w = _as_path(w)
    if retained is None:
        retained = frozenset(w) - {b}
    else:
        retained = frozenset(retained)
        if b in retained:
            raise ValueError("retained set must exclude the marked state")
        if not (frozenset(w) - {b}) <= retained:
            raise ValueError("retained set must cover every other state of the path")
    le = loop_erase(w)
    if b not in le.path:
        staged = partial_loop_erase(w, retained).path
    else:
        j = le.path.index(b)
        tail = w[le.indices[j]:]
        tail_ple = reverse_path(partial_loop_erase(reverse_path(tail), retained).path)
        staged = concat_paths(le.path[: j + 1], tail_ple)
    return loop_erase(staged).path
