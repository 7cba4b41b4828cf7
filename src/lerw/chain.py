"""Finite Markov chains in two numeric modes.

A chain is a finite ordered state tuple plus a row-stochastic kernel.
Mode "rational" keeps every entry a Fraction and all downstream algebra
exact; mode "double" keeps floats.  Paths are plain tuples of states.

Sampling uses counter-based Philox streams keyed by (master_seed,
trajectory_index), so trajectory i is the same bit-for-bit in whatever
order trajectories are drawn.  One walk loop, `_walk`, draws every
trajectory in the package: chain walks here and fractal graph walks in
`limits`.  Trajectories run one after another in the calling thread.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

import numpy as np

STEP_CAP = 10_000_000
SUM_TOL = 1e-12


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
        rows = tuple(tuple(float(p) for p in row) for row in self.kernel)
        # exact rows can acquire rounding slack; renormalize defensively
        rows = tuple(tuple(p / sum(row) for p in row) for row in rows)
        return MarkovChain(self.states, rows, "double")


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


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory stream: Philox keyed (master_seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array([master_seed, index], dtype=np.uint64)))


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
    StepCapExceeded.  Every sampler in the package runs this loop.
    """
    v = start
    path = [v]
    if is_target[v]:
        return path
    left = step_cap
    while left > 0:
        # uniforms come in blocks of 1024; the block size only affects speed
        us = rng.random(1024).tolist()[:left]
        left -= len(us)
        for u in us:
            v = nbrs[v][bisect_right(cums[v], u)]
            path.append(v)
            if is_target[v]:
                return path
    raise StepCapExceeded(f"no entry into targets within {step_cap} steps")


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
    states = chain.states
    return tuple([states[i] for i in _walk(nbrs, cums, chain.index(start), is_target, rng, step_cap)])
