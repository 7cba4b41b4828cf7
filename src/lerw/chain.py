"""Finite Markov chains in two numeric modes.

A chain is a finite ordered state tuple plus a row-stochastic kernel.
Mode "rational" keeps every entry a Fraction and all downstream algebra
exact; mode "double" keeps floats.  Paths are plain tuples of states.

Sampling uses counter-based Philox streams keyed by (master_seed,
trajectory_index), so trajectory i is the same bit-for-bit in whatever
order trajectories are drawn.  The key is handed to Philox as is, with no
entropy drawn from the OS.  Two loops draw trajectories, both in the
calling thread and both reading row v's step as
nbrs[v][bisect_right(cums[v], u)]: `_walk` draws one trajectory (every
chain walk) in uniform blocks that grow from WALK_BLOCK_FIRST to
WALK_BLOCK_MAX, so a short walk draws few uniforms it does not use, and
`_walk_many` steps a pool of fractal graph walks from `limits` in
lockstep, handing its last few walkers to `_walk`.  A stream's uniforms
come out in order whatever the block sizes, so a trajectory is the same
bit for bit in either loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from random import Random
from typing import Iterable, Sequence

import numpy as np

STEP_CAP = 10_000_000
SUM_TOL = 1e-12
# _walk_many: walkers stepped together, uniforms drawn per walker per
# round, and the pool size below which the last walkers finish in _walk.
# The pool holds every live walker's partial path: on carpet m3, 96 or
# 128 walkers were no faster than 64 and raised peak RSS by 0.7-1.5 MB more.
LOCKSTEP_POOL = 64
LOCKSTEP_BLOCK = 256
LOCKSTEP_TAIL = 8
# _walk: uniforms drawn in the first block, doubling per block up to the
# last size.  Corner walks on gasket m3 and carpet m2 average 123 and 167
# steps, and a 1024-block cost more than the steps it served.
WALK_BLOCK_FIRST = 64
WALK_BLOCK_MAX = 1024


class StepCapExceeded(RuntimeError):
    """A sampled trajectory ran past the configured step cap."""


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


@dataclass(frozen=True)
class MarkovChain:
    """Immutable chain; rows are tuples indexed like `states`."""

    states: tuple
    kernel: tuple  # tuple of row tuples, Fraction or float entries
    mode: str

    def __post_init__(self):
        if self.mode not in ("rational", "double"):
            raise ValueError(f"unknown mode {self.mode!r}")
        n = len(self.states)
        if n == 0:
            raise ValueError("chain needs at least one state")
        if len(set(self.states)) != n:
            raise ValueError("duplicate state identifiers")
        if len(self.kernel) != n or any(len(r) != n for r in self.kernel):
            raise ValueError("kernel must be square and match the state count")
        for row in self.kernel:
            if any(p < 0 for p in row):
                raise ValueError("negative transition probability")
            s = sum(row)
            if self.mode == "rational":
                if s != 1:
                    raise ValueError(f"row sums to {s}, not 1")
            elif abs(s - 1.0) > SUM_TOL:
                raise ValueError(f"row sums to {s!r}, not 1")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self._index[state]

    def transition(self, x, y):
        return self.kernel[self._index[x]][self._index[y]]

    def support(self) -> dict:
        """Adjacency of the positive-probability digraph."""
        return {
            x: tuple(y for y, p in zip(self.states, row) if p > 0)
            for x, row in zip(self.states, self.kernel)
        }

    def matrix(self) -> np.ndarray:
        return np.array([[float(p) for p in row] for row in self.kernel])

    def as_double(self) -> "MarkovChain":
        if self.mode == "double":
            return self
        rows = []
        for row in self.kernel:
            # exact rows can acquire rounding slack; renormalize defensively
            floats = [float(p) for p in row]
            total = sum(floats)
            rows.append(tuple(p / total for p in floats))
        return MarkovChain(self.states, tuple(rows), "double")


def build_chain(states: Sequence, rows: Sequence[Sequence], mode: str = "rational") -> MarkovChain:
    """Normalize raw rows (numbers, strings, Fractions) into a chain."""
    states = tuple(states)
    if mode == "rational":
        kernel = tuple(tuple(_to_fraction(v) for v in row) for row in rows)
    else:
        kernel = tuple(tuple(float(v) for v in row) for row in rows)
    return MarkovChain(states, kernel, mode)


def dense_chain(rng: Random, n: int, den: int = 60) -> MarkovChain:
    """Random rational chain on states s0..s{n-1}, every entry at least 1/den.

    Every absorbing subset is reachable from every start, and exact
    enumerations have a geometric tail.
    """
    rows = []
    for _ in range(n):
        cuts = sorted(rng.sample(range(1, den), n - 1))
        pts = [0, *cuts, den]
        rows.append([Fraction(b - a, den) for a, b in zip(pts, pts[1:])])
    return build_chain([f"s{i}" for i in range(n)], rows, "rational")


def chain_to_text(chain: MarkovChain) -> str:
    """Serialize: one line of state names, then one kernel row per line.

    Rational entries are written as fractions, double entries as repr
    decimals.  State names are written with str(), so identifiers read
    back from text are always strings.
    """
    names = [str(s) for s in chain.states]
    if any(" " in n or "\t" in n or "\n" in n for n in names):
        raise ValueError("state names must not contain whitespace")
    if len(set(names)) != len(names):
        raise ValueError("state names collide after str()")
    lines = [" ".join(names)]
    for row in chain.kernel:
        if chain.mode == "rational":
            lines.append(" ".join(str(p) for p in row))
        else:
            lines.append(" ".join(repr(float(p)) for p in row))
    return "\n".join(lines) + "\n"


def chain_from_text(text: str) -> MarkovChain:
    """Parse the chain_to_text format; fraction entries mean rational mode."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty chain file")
    states = tuple(lines[0].split())
    rows = [ln.split() for ln in lines[1:]]
    if len(rows) != len(states):
        raise ValueError(f"expected {len(states)} kernel rows, found {len(rows)}")
    tokens = [t for row in rows for t in row]
    double = any(("." in t) or ("e" in t.lower() and "/" not in t) for t in tokens)
    if double:
        return build_chain(states, [[float(t) for t in row] for row in rows], "double")
    return build_chain(states, [[Fraction(t) for t in row] for row in rows], "rational")


def reachability_closure(chain: MarkovChain, targets: Iterable) -> frozenset:
    """States from which entry into `targets` is almost sure.

    Walks stop on entry, so outgoing edges of target states are ignored.
    A state qualifies iff no support path (through non-target states)
    leads it to a state that cannot reach the targets at all.
    """
    targets = frozenset(targets)
    unknown = targets - set(chain.states)
    if unknown:
        raise ValueError(f"targets not in state space: {sorted(map(str, unknown))}")
    adj = chain.support()
    nontarget = [x for x in chain.states if x not in targets]
    # reverse edges of the target-absorbed digraph
    rev: dict = {x: [] for x in chain.states}
    for x in nontarget:
        for y in adj[x]:
            rev[y].append(x)
    # can_reach: non-target states with a support path into targets
    can_reach = set()
    stack = list(targets)
    while stack:
        for x in rev[stack.pop()]:
            if x not in can_reach and x not in targets:
                can_reach.add(x)
                stack.append(x)
    bad = set(nontarget) - can_reach
    # anything that can reach a bad state escapes with positive probability
    doomed = set()
    stack = list(bad)
    while stack:
        y = stack.pop()
        if y in doomed:
            continue
        doomed.add(y)
        stack.extend(rev[y])
    return frozenset(targets | (set(nontarget) - doomed))


@cache
def _philox_key_type() -> type:
    """The seed class behind `trajectory_stream`.

    It is built on first use, so importing this module does not load
    numpy.random (about 11 ms).
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """Hands Philox its key (master_seed, index) as its only seed state.

        `Philox(key=...)` also builds a SeedSequence from OS entropy that
        it never uses; seeding from this class skips that and sets the
        same key.  Any other state request raises, so a Philox that
        derived its key some other way would fail instead of changing
        every stream.
        """

        __slots__ = ("key",)

        def __init__(self, master_seed: int, index: int):
            self.key = np.array([master_seed, index], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is two uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.key

        def __reduce__(self):  # a pickled stream keeps its seed
            return _philox_key, tuple(self.key.tolist())

    return PhiloxKey


def _philox_key(master_seed: int, index: int):
    return _philox_key_type()(master_seed, index)


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory stream: Philox keyed (master_seed, index)."""
    return np.random.Generator(np.random.Philox(_philox_key(master_seed, index)))


def _cum_row(weights) -> list:
    """Cumulative step weights of one row, the last pinned to 1.0 against rounding."""
    cums = np.cumsum(weights)
    cums[-1:] = 1.0  # an empty row (an isolated graph vertex) stays empty
    return cums.tolist()


def _row_tables(chain: MarkovChain) -> tuple:
    """(nbrs, cums): per-row support indices and their cumulative weights."""
    tables = getattr(chain, "_row_tables", None)
    if tables is None:
        nbrs = [[j for j, p in enumerate(row) if p > 0] for row in chain.kernel]
        cums = [_cum_row([float(row[j]) for j in js]) for row, js in zip(chain.kernel, nbrs)]
        tables = (nbrs, cums)
        object.__setattr__(chain, "_row_tables", tables)
    return tables


def _entry_tables(chain: MarkovChain, targets: frozenset) -> tuple:
    """(closure, per-index target flags) for `targets`, cached on the chain."""
    cache = getattr(chain, "_entry_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(chain, "_entry_cache", cache)
    if targets not in cache:
        cache[targets] = (reachability_closure(chain, targets), [s in targets for s in chain.states])
    return cache[targets]


def _walk(nbrs, cums, start: int, is_target, rng: np.random.Generator, step_cap: int) -> list:
    """Indices of one walk from `start` until it enters a flagged index.

    Row v steps to nbrs[v][bisect_right(cums[v], u)] for a uniform u.  The
    path keeps both endpoints; step_cap steps without entry raise
    StepCapExceeded.  Chain walks run this loop, and so do the last
    walkers of `_walk_many`.  Uniforms are drawn in blocks of
    WALK_BLOCK_FIRST, doubling up to WALK_BLOCK_MAX, and never past the
    step cap.
    """
    v = start
    path = [v]
    if is_target[v]:
        return path
    left = step_cap
    size = WALK_BLOCK_FIRST
    while left > 0:
        # the stream's uniforms come out in order whatever the block
        # sizes, so they only affect speed
        us = rng.random(min(size, left)).tolist()
        left -= len(us)
        size = min(2 * size, WALK_BLOCK_MAX)
        for u in us:
            v = nbrs[v][bisect_right(cums[v], u)]
            path.append(v)
            if is_target[v]:
                return path
    raise StepCapExceeded(f"no entry into targets within {step_cap} steps")


def _step_table(nbrs, cums) -> tuple:
    """(merged, table) so that one gather makes one step of every row.

    merged is the sorted union of the rows' cumulative lists, and
    k = searchsorted(merged, u, side="right") puts each u in [0, 1) into
    one of len(merged) cells (the last list entry is 1.0).  A row's
    cumulative list is a subset of merged, so bisect_right(cums[v], u) is
    constant on each cell, and
    table[v * len(merged) + k] = len(merged) * nbrs[v][bisect_right(cums[v], u)]
    exactly.  Entries are premultiplied so the next lookup is one addition.
    """
    merged = sorted({c for row in cums for c in row})
    width = len(merged)
    lows = [0.0, *merged[:-1]]  # the left end of each cell
    picks: dict = {}  # rows of equal degree share one cumulative list
    rows = []
    for v, (js, cs) in enumerate(zip(nbrs, cums)):
        if not js:  # an isolated vertex is never entered; park it on itself
            rows.append([v] * width)
            continue
        cols = picks.get(id(cs))
        if cols is None:
            cols = picks[id(cs)] = [bisect_right(cs, u) for u in lows]
        rows.append([js[c] for c in cols])
    table = np.array(rows, dtype=np.intp).reshape(-1) * width
    return np.array(merged), table


def _walk_many(nbrs, cums, start: int, is_target, master_seed: int, count: int, step_cap: int):
    """Yield (i, path) for trajectories 0..count-1 from `start`, as they finish.

    path is trajectory i's index array, both endpoints kept, equal to
    `_walk` on trajectory_stream(master_seed, i).  Up to LOCKSTEP_POOL
    walkers step together: each draws LOCKSTEP_BLOCK uniforms from its
    own stream per round, and a step of all of them is one addition and
    one gather through `_step_table`.  Entries are found once per round;
    a finished walker's slot goes to the next index.  Once no index is
    left and fewer than LOCKSTEP_TAIL walkers remain, each finishes in
    `_walk` from its current vertex with the rest of its stream and of
    its step cap.  Paths are kept as ragged per-walker pieces.
    StepCapExceeded is raised as soon as any walker runs out of steps.
    """
    if count <= 0:
        return
    merged, table = _step_table(nbrs, cums)
    width = len(merged)
    flags = np.asarray(is_target, dtype=bool)
    dtype = np.uint16 if len(nbrs) <= 1 << 16 else np.int32
    block = LOCKSTEP_BLOCK
    pool = min(LOCKSTEP_POOL, count)
    head = np.array([start], dtype=dtype)
    us = np.zeros((pool, block))  # idle rows keep old uniforms, always in [0, 1)
    cells = np.empty((pool, block), dtype=np.min_scalar_type(width))
    ks = np.empty((block, pool), dtype=np.intp)
    at = np.full((block + 1, pool), start * width, dtype=np.intp)  # width * vertex
    idx = np.empty(pool, dtype=np.intp)
    verts = np.empty((block, pool), dtype=dtype)
    krows, arows, add, step = list(ks), list(at), np.add, table.take  # hoisted for the step loop
    ids = list(range(pool))
    rngs = [trajectory_stream(master_seed, i) for i in ids]
    pieces = [[head] for _ in ids]
    left = np.full(pool, step_cap, dtype=np.int64)
    live = np.ones(pool, dtype=bool)
    nxt = pool
    while nxt < count or live.sum() >= LOCKSTEP_TAIL:
        for r in np.flatnonzero(live):
            rngs[r].random(out=us[r])
        # k = searchsorted(merged, u, side="right"), counted directly:
        # merged is short (at most 6 values on gasket and carpet graphs)
        np.greater_equal(us, merged[0], out=cells)
        for c in merged[1:]:
            cells += us >= c
        ks[...] = cells.T
        for k, here, there in zip(krows, arows, arows[1:]):
            add(here, k, out=idx)
            step(idx, out=there, mode="clip")  # never clips; "raise" would buffer the output
        np.floor_divide(at[1:], width, out=verts, casting="unsafe")
        hits = flags[verts]
        first = np.where(hits.any(0), hits.argmax(0), block)
        done = live & (first < np.minimum(left, block))
        if (live & ~done & (left <= block)).any():
            raise StepCapExceeded(f"no entry into targets within {step_cap} steps")
        left -= block
        at[0] = at[block]
        for r in np.flatnonzero(live):
            if done[r]:
                finished = ids[r], np.concatenate([*pieces[r], verts[: first[r] + 1, r]])
                if nxt < count:
                    ids[r], rngs[r], pieces[r] = nxt, trajectory_stream(master_seed, nxt), [head]
                    left[r] = step_cap
                    at[0, r] = start * width
                    nxt += 1
                else:
                    live[r], pieces[r] = False, None
                yield finished
            else:
                pieces[r].append(verts[:, r].copy())
    for r in np.flatnonzero(live):
        rest = _walk(nbrs, cums, int(at[0, r]) // width, is_target, rngs[r], int(left[r]))
        pieces[r].append(np.array(rest[1:], dtype=dtype))
        yield ids[r], np.concatenate(pieces[r])


def sample_until_entry(
    chain: MarkovChain,
    start,
    targets: Iterable,
    rng: np.random.Generator,
    step_cap: int = STEP_CAP,
) -> tuple:
    """One trajectory from `start` until it enters `targets`.

    The returned path includes both endpoints.  Raises ValueError when
    absorption is not almost sure from the start state, and
    StepCapExceeded if the walk outlives step_cap (a safety net, not a
    truncation: no partial path is returned).
    """
    closure, is_target = _entry_tables(chain, frozenset(targets))
    if start not in closure:
        raise ValueError(f"entry into targets is not almost sure from {start!r}")
    nbrs, cums = _row_tables(chain)
    path = _walk(nbrs, cums, chain.index(start), is_target, rng, step_cap)
    return tuple(map(chain.states.__getitem__, path))
