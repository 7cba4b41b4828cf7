"""Finite Markov chains in two numeric modes.

A chain is a finite ordered state tuple plus a row-stochastic kernel.
Mode "rational" keeps every entry a Fraction and all downstream algebra
exact; mode "double" keeps floats.  Paths are plain tuples of states.

Sampling uses counter-based Philox streams keyed by (master_seed,
trajectory_index), so trajectory i is the same bit-for-bit in whatever
order trajectories are drawn.  The key is handed to Philox as is, with no
entropy drawn from the OS.  Row v steps to nbrs[v][bisect_right(cums[v],
u)] for a uniform u.  Both loops read that step from a table over the
cells of [0, 1) between the rows' merged cumulative weights (`_cells`),
on each of which every row's step is constant (a chain with more cells
than states bisects instead), and both run in the calling thread.
`_walk` draws one trajectory (every chain walk) in uniform blocks that
grow from WALK_BLOCK_FIRST to WALK_BLOCK_MAX, so a short walk draws few
uniforms it does not use; it finds each block's cells with one
searchsorted and steps with step[v][k].  `_walk_many` steps a pool of
fractal graph walks from `limits` in lockstep, two steps per gather
through a table of cell pairs in which targets absorb, and drops
finished walkers from the pool once no trajectory is left to start,
until the last walker ends.  It reads a graph from its CSR arrays
(indptr, nbr): nbrs[v] is nbr[indptr[v]:indptr[v + 1]] and cums[v] is
`_cum_row` of weights 1/deg, and its paths come out as np.intp arrays.
A stream's uniforms come out in order whatever the block sizes, so a
trajectory is the same bit for bit in either loop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import itemgetter
from random import Random
from typing import Iterable, Sequence

import numpy as np

STEP_CAP = 10_000_000
SUM_TOL = 1e-12
# _walk_many: walkers stepped together, uniforms drawn per walker per
# round (even: two steps per gather), and the rounds of steps a walker's
# piece collects before it is copied out.  The pool holds every live
# walker's partial path: on carpet m3 (1800 walks), 128 walkers raised
# peak RSS by 1.3 MB over 64 and cut the sampling time by about 6%; 192
# and 256 raised it by 2.6 and 3.9 MB for about 2% more.
LOCKSTEP_POOL = 128
LOCKSTEP_BLOCK = 256
LOCKSTEP_FLUSH = 4
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
        for x, row in zip(self.states, self.kernel):
            if any(p < 0 for p in row):
                raise ValueError("negative transition probability")
            s = sum(row)
            if self.mode == "rational":
                if s != 1:
                    raise ValueError(f"row sums to {s}, not 1")
            elif not math.isfinite(s):
                # NaN fails both checks around it; a non-finite entry makes the sum non-finite
                raise ValueError(f"row {x!r} has a non-finite entry")
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


def _cells(rows, most: int | None = None):
    """(cuts, cols): the cells of [0, 1) on which every row's step is constant.

    rows are cumulative lists as `_cum_row` makes them, and a row steps to
    its entry bisect_right(row, u) for a uniform u.  cuts is the sorted
    array of the rows' values below 1.0, and u lies in cell
    k = searchsorted(cuts, u, "right") of len(cuts) + 1 cells.  cols[r][k]
    is bisect_right(rows[r], low_k), with low_k the cell's left end (0.0,
    then each cut): a row's value below 1.0 is <= u iff it is <= low_k,
    and u < 1.0 is below every other, so each u in the cell bisects the
    same.  None when there would be more than `most` cells.
    """
    cuts = sorted({c for row in rows for c in row if c < 1.0})
    if most is not None and len(cuts) >= most:
        return None
    lows = [0.0, *cuts]
    return np.array(cuts), [[bisect_right(row, u) for u in lows] for row in rows]


def _walk_tables(nbrs, cums) -> tuple:
    """(nbrs, cums, cuts, step) for `_walk`: rows' support indices and
    cumulative weights, and step[v][k] = nbrs[v][bisect_right(cums[v],
    u)] for every u in cell k of cuts (`_cells`).  With more cells than
    rows the table would outgrow the chain's n × n kernel, so cuts and
    step are None and the walk bisects each row."""
    table = _cells(cums, most=len(cums))
    if table is None:
        return nbrs, cums, None, None
    cuts, cols = table
    return nbrs, cums, cuts, [[row[k] for k in ks] for row, ks in zip(nbrs, cols)]


def _row_tables(chain: MarkovChain) -> tuple:
    """`_walk_tables` of the chain's rows, cached on the chain."""
    tables = getattr(chain, "_row_tables", None)
    if tables is None:
        nbrs = [[j for j, p in enumerate(row) if p > 0] for row in chain.kernel]
        cums = [_cum_row([float(row[j]) for j in js]) for row, js in zip(chain.kernel, nbrs)]
        tables = _walk_tables(nbrs, cums)
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


def _walk(tables, start: int, is_target, rng: np.random.Generator, step_cap: int) -> list:
    """Indices of one walk from `start` until it enters a flagged index.

    tables are `_walk_tables`: each block of uniforms becomes cells with
    one searchsorted over cuts, and row v steps to step[v][k] on cell k,
    which is nbrs[v][bisect_right(cums[v], u)] for the uniform u.  Without
    a cell table (more cells than rows) each step bisects its row.  The
    path keeps both endpoints; step_cap steps without entry raise
    StepCapExceeded.  Chain walks run this loop; graph walks run
    `_walk_many`.  Uniforms are drawn in blocks of WALK_BLOCK_FIRST,
    doubling up to WALK_BLOCK_MAX, and never past the step cap.
    """
    nbrs, cums, cuts, step = tables
    v = start
    path = [v]
    if is_target[v]:
        return path
    left = step_cap
    size = WALK_BLOCK_FIRST
    while left > 0:
        # the stream's uniforms come out in order whatever the block
        # sizes, so they only affect speed
        us = rng.random(min(size, left))
        left -= len(us)
        size = min(2 * size, WALK_BLOCK_MAX)
        if step is not None:
            for k in cuts.searchsorted(us, "right").tolist():
                v = step[v][k]
                path.append(v)
                if is_target[v]:
                    return path
        else:
            for u in us.tolist():
                v = nbrs[v][bisect_right(cums[v], u)]
                path.append(v)
                if is_target[v]:
                    return path
    raise StepCapExceeded(f"no entry into targets within {step_cap} steps")


def _vertex_dtype(n: int):
    return np.uint16 if n <= 1 << 16 else np.int32


def _pair_table(indptr, nbr, flags) -> tuple:
    """(cuts, width, shift, pair, mid): two steps of every row per gather.

    indptr and nbr are a graph's CSR arrays (each row's neighbours
    sorted), and a row of degree d steps to its neighbour
    bisect_right(_cum_row(np.full(d, 1.0) / d), u) for a uniform u, as
    `_walk` steps the graph's walk chain.  cuts are `_cells` of those
    cumulative lists, one per degree, and u in [0, 1) lies in cell
    k = (cuts <= u).sum() of width = len(cuts) + 1 cells, on each of
    which every row's step is constant.  Flagged rows are made absorbing
    (every cell stays put), so a walk that has entered one is still on
    it after any further steps; isolated rows, never entered, stay put
    too.  Each row here has 2**shift >= width**2 entries: entry
    (v << shift) + k1 * width + k2 holds the two steps from v through
    cells k1 and k2.  pair gives the second vertex shifted left by shift,
    so the next lookup is one addition, and mid gives the first.
    """
    n = len(indptr) - 1
    deg = np.diff(indptr)
    degs = np.unique(deg[deg > 0]).tolist()
    cuts, by_degree = _cells([_cum_row(np.full(d, 1.0) / d) for d in degs])
    width = len(cuts) + 1
    cols = np.zeros((deg.max() + 1, width), dtype=np.intp)  # cell -> neighbour offset, by degree
    for d, ks in zip(degs, by_degree):
        cols[d] = ks
    one = np.repeat(np.arange(n)[:, None], width, axis=1)
    live = np.flatnonzero((deg > 0) & ~flags)
    one[live] = nbr[indptr[live, None] + cols[deg[live]]]
    shift = (width * width - 1).bit_length()
    mid = np.zeros((n, 1 << shift), dtype=_vertex_dtype(n))
    pair = np.zeros((n, 1 << shift), dtype=np.intp)
    firsts = np.repeat(one, width, axis=1)
    mid[:, : width * width] = firsts
    pair[:, : width * width] = one[firsts, np.tile(np.arange(width), width)] << shift
    return cuts, width, shift, pair.reshape(-1), mid.reshape(-1)


def _walk_many(indptr, nbr, start: int, flags, master_seed: int, count: int, step_cap: int):
    """Yield (i, path) for trajectories 0..count-1 from `start`, as they finish.

    The walk runs on the graph with CSR arrays indptr and nbr, from vertex
    `start` until it enters a vertex flagged in the boolean mask `flags`.
    path is trajectory i's np.intp index array, both endpoints kept,
    equal to `_walk` on trajectory_stream(master_seed, i) over the walk
    chain that steps to a uniform neighbour.  Up to LOCKSTEP_POOL
    walkers step together: each draws LOCKSTEP_BLOCK uniforms from its
    own stream per round, and two steps of all of them are one addition
    and one gather through `_pair_table`.  Targets absorb, so a walker
    has entered this round iff its last vertex is a target, and only
    those walkers are searched for their first entry.  A finished
    walker's slot goes to the next index; once no index is left, its row
    is dropped from the pool, so the pool shrinks until the last walker
    ends.  Vertices are written to a buffer of LOCKSTEP_FLUSH rounds, and
    a walker's path is kept as ragged pieces copied out of it.
    StepCapExceeded is raised as soon as any walker runs out of steps.
    start must not be a target (as the targets absorb, its walks would
    never leave it).
    """
    if count <= 0:
        return
    head = np.array([start], dtype=_vertex_dtype(len(flags)))
    cuts, width, shift, pair, mid = _pair_table(indptr, nbr, flags)
    block = LOCKSTEP_BLOCK
    half = block // 2
    size = min(LOCKSTEP_POOL, count)
    # buffers for the full pool; a smaller pool uses their leading rows
    # or columns
    us_all = np.empty((size, block))
    cells_all = np.empty((size, block), dtype=np.min_scalar_type(width))
    above_all = np.empty((size, block), dtype=bool)
    ks_all = np.empty((half, size), dtype=np.intp)  # cell pairs, then pair indices
    at_all = np.empty((half + 1, size), dtype=np.intp)  # vertex << shift every 2 steps
    window = LOCKSTEP_FLUSH * block
    trail = np.empty((window, size), dtype=head.dtype)  # vertices after each step
    row = 0  # this round's first row in trail
    since = [0] * size  # each walker's first row in trail not yet in its pieces
    at_all[0] = start << shift
    add, step = np.add, pair.take
    ids = list(range(size))
    rngs = [trajectory_stream(master_seed, i) for i in ids]
    pieces = [[head] for _ in ids]
    left = np.full(size, step_cap, dtype=np.int64)
    nxt = size
    pool = 0
    while ids:
        if len(ids) != pool:  # (re)hoist the views for the step loop
            pool = len(ids)
            us, cells, above = us_all[:pool], cells_all[:pool], above_all[:pool]
            ks, at = ks_all[:, :pool], at_all[:, :pool]
            urows, krows, arows = list(us), list(ks), list(at)
            evens, odds = cells[:, 0::2].T, cells[:, 1::2].T
        for rng, u in zip(rngs, urows):
            rng.random(out=u)
        # the cell of u is the count of cuts <= u: there are few of them
        # (at most 5 on gasket and carpet graphs)
        cells.fill(0)
        for c in cuts:
            np.greater_equal(us, c, out=above)
            cells += above
        np.multiply(evens, width, out=ks, dtype=np.intp)
        ks += odds
        for k, here, there in zip(krows, arows, arows[1:]):
            add(here, k, out=k)
            step(k, out=there, mode="clip")  # never clips; "raise" would buffer the output
        verts = trail[row : row + block, :pool]
        np.right_shift(at[1:], shift, out=verts[1::2], casting="unsafe")
        mid.take(ks, out=verts[0::2], mode="clip")
        entered = flags[verts[-1]]
        sel = np.flatnonzero(entered)
        first = np.full(pool, block)
        first[sel] = flags[verts[:, sel]].argmax(0)
        if (first >= left).any():
            raise StepCapExceeded(f"no entry into targets within {step_cap} steps")
        left -= block
        at[0] = at[half]
        dropped = []
        for r in sel.tolist():
            tail = trail[since[r] : row + first[r] + 1, r]
            finished = ids[r], np.concatenate([*pieces[r], tail], dtype=np.intp)
            since[r] = row + block
            if nxt < count:
                ids[r], rngs[r], pieces[r] = nxt, trajectory_stream(master_seed, nxt), [head]
                left[r] = step_cap
                at[0, r] = start << shift
                nxt += 1
            else:
                dropped.append(r)
            yield finished
        row += block
        if row == window or dropped:
            for r, (piece, s) in enumerate(zip(pieces, since)):
                if s < row:
                    piece.append(trail[s:row, r].copy())
            since, row = [0] * pool, 0
        if dropped:
            gone = set(dropped)
            keep = [r for r in range(pool) if r not in gone]
            ids, rngs, pieces = ([x[r] for r in keep] for x in (ids, rngs, pieces))
            at_all[0, : len(keep)] = at[0, keep]
            left = left[keep]


def sample_until_entry(
    chain: MarkovChain,
    start,
    targets: Iterable,
    rng: np.random.Generator,
    step_cap: int = STEP_CAP,
) -> tuple:
    """One trajectory from `start` until it enters `targets`.

    The walk runs on the chain's cached `_row_tables` (`_walk`), and its
    index path maps to states in one itemgetter call.  The returned path
    is a tuple of states including both endpoints.  Raises ValueError when
    absorption is not almost sure from the start state, and
    StepCapExceeded if the walk outlives step_cap (a safety net, not a
    truncation: no partial path is returned).
    """
    closure, is_target = _entry_tables(chain, frozenset(targets))
    if start not in closure:
        raise ValueError(f"entry into targets is not almost sure from {start!r}")
    path = _walk(_row_tables(chain), chain.index(start), is_target, rng, step_cap)
    if len(path) == 1:  # itemgetter of one index returns the item, not a tuple
        return (chain.states[path[0]],)
    return itemgetter(*path)(chain.states)
