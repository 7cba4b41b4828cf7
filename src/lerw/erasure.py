"""Loop erasure and partial loop erasure of finite paths.

A path is a non-empty tuple of hashable states.  Loop erasure removes
every loop in chronological order: starting from the first state, jump
past the last visit to the current state, and repeat until the walk's
final state is reached.  Partial loop erasure does the same but only
erases loops based at a retained set of states; everything else is
copied through untouched.

Two implementations are kept for each operation.  The naive ones follow
the defining index recursion literally, rescanning the remainder of the
path at every step (O(eta^2)).  The fast ones run a single left-to-right
pass with a position table (amortized O(eta)).  Tests pin them to each
other on fuzzed inputs; the naive versions are the reference.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

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
    """Loop erasure, single pass with a position table."""
    w = _as_path(w)
    out: list = []
    idx: list = []
    pos: dict = {}
    for t, y in enumerate(w):
        if y in pos:
            # revisit: drop everything after the earlier copy
            k = pos[y]
            for dropped in out[k + 1:]:
                del pos[dropped]
            del out[k + 1:]
            del idx[k + 1:]
        else:
            pos[y] = len(out)
            out.append(y)
            idx.append(t)
    return ErasureResult(tuple(out), tuple(idx))


def erase_step(prefix: tuple, indices: tuple, t: int, y, retained: frozenset | None):
    """One left-fold step of (partial) loop erasure.

    prefix/indices are the erasure of the input consumed so far, y is the
    next state with input position t.  retained None means full loop
    erasure.  Returns the new (prefix, indices) pair.  Folding this step
    over a path reproduces loop_erase / partial_loop_erase, which the
    tests check; the exact enumerator folds its own step,
    `exactlaw._ple_step`, and the samplers call the erasures directly.
    """
    erasable = retained is None or y in retained
    if erasable:
        for k in range(len(prefix) - 1, -1, -1):
            if prefix[k] == y:
                return prefix[: k + 1], indices[: k + 1]
    return prefix + (y,), indices + (t,)


def partial_loop_erase(w: Sequence, retained: Iterable) -> ErasureResult:
    """Partial loop erasure, single pass.

    States in `retained` appear at most once in the output, so the popped
    suffix on a revisit is found through a position table; unretained
    states are appended unconditionally.
    """
    w = _as_path(w)
    retained = frozenset(retained)
    out: list = []
    idx: list = []
    pos: dict = {}  # positions of retained states currently in out
    for t, y in enumerate(w):
        if y in retained:
            k = pos.get(y)
            if k is not None:
                for dropped in out[k + 1:]:
                    if dropped in retained:
                        del pos[dropped]
                del out[k + 1:]
                del idx[k + 1:]
                continue
            pos[y] = len(out)
        out.append(y)
        idx.append(t)
    return ErasureResult(tuple(out), tuple(idx))


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
    before joining.
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
    state of w other than b and must not contain b.
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


def detect_loops(w: Sequence, rho: float, dist: Callable) -> list[tuple[int, int]]:
    """Index pairs (s1, s2) where w returns to w[s1] after leaving the
    closed rho-ball around it.

    dist maps a pair of states to a number.  Every witnessing pair is
    returned, ordered by (s1, s2).
    """
    w = _as_path(w)
    hits = []
    for s1 in range(len(w)):
        base = w[s1]
        escaped = False
        for s2 in range(s1 + 1, len(w)):
            if not escaped and dist(base, w[s2]) > rho:
                escaped = True
            if w[s2] == base and escaped:
                hits.append((s1, s2))
    return hits


def detect_long_jumps(w: Sequence, rho: float, avoid: Iterable, dist: Callable) -> list[tuple[int, int]]:
    """Index pairs (s1, s2) with dist(w[s1], w[s2]) >= rho whose image
    avoids the given state set entirely."""
    w = _as_path(w)
    avoid = frozenset(avoid)
    hits = []
    for s1 in range(len(w)):
        if w[s1] in avoid:
            continue
        for s2 in range(s1 + 1, len(w)):
            if w[s2] in avoid:
                break
            if dist(w[s1], w[s2]) >= rho:
                hits.append((s1, s2))
    return hits
