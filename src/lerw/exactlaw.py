"""Exact distributions of erased walks on small chains.

Everything here is closed-form or exhaustively enumerated.  In rational
mode no floating point enters: Green values, path probabilities and the
enumerated laws are Fractions, so equalities between laws can be asserted
with == rather than tolerances.

Erased-walk laws aggregate trajectories by their "tower", the running
erasure state of the whole pipeline (a sufficient statistic for its
output).  With tol given and a last stage retaining every non-absorbing
state, the tower chain is finite and is eliminated exactly by
Grassmann–Taksar–Heyman state reduction on integer weights: the law is
exact and its tail bound 0 (a double kernel's entries are dyadic
rationals, so double mode eliminates them exactly too and rounds each
atom once).  Otherwise mass is stepped forward in time and the tail
bound is the certified unabsorbed mass.  The slow per-trajectory
recursion is kept alongside as a cross-check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from ._exact import SingularSystemError, solve_double, solve_fraction
from .chain import MarkovChain, _entry_tables
from .erasure import fold_step

DELTA = "Δ"  # absorbing sink label used by traced kernels
ENUM_STATE_GUARD = 8  # most chain states an enumeration accepts
# Most towers an exact elimination may build.  The complete 8-state
# digraph with one absorbing state is the worst support: "LE" needs 1,957
# towers, the largest two-stage pipeline 717,169 (solved in 57 s at
# 1.3 GB) and three-stage pipelines with the start in the first stage at
# most 334,502; 24 of the 30 three-stage classes whose first stage misses
# the start need more than a million and raise GuardError.
TOWER_GUARD = 1_000_000


class GuardError(RuntimeError):
    """A guarded computation exceeded its configured budget."""


# ---------------------------------------------------------------------------
# Green tables


@dataclass(frozen=True)
class GreenTable:
    """Expected visit counts before leaving a domain.

    value(x, y) is the expected number of visits to y strictly before the
    exit time from the domain, starting at x.  Rows and columns are both
    indexed by `states` (the domain in chain order).
    """

    states: tuple
    values: tuple
    mode: str

    def value(self, x, y):
        return self.values[self.states.index(x)][self.states.index(y)]

    def diag(self, x):
        i = self.states.index(x)
        return self.values[i][i]


def green(chain: MarkovChain, domain: Iterable) -> GreenTable:
    """Green table of the chain on a strict subdomain.

    Requires exit from the domain to be almost sure from each of its
    states; otherwise the system is singular and an error is raised.
    """
    domain = frozenset(domain)
    dom = [s for s in chain.states if s in domain]
    if domain - set(dom):
        raise ValueError("domain contains unknown states")
    if len(dom) == len(chain.states):
        raise ValueError("domain must be a strict subset of the state space")
    outside = frozenset(chain.states) - frozenset(dom)
    closure = _entry_tables(chain, outside)[0]
    stuck = [s for s in dom if s not in closure]
    if stuck:
        raise SingularSystemError(
            f"exit from the domain is not almost sure from {sorted(map(str, stuck))}"
        )
    k = len(dom)
    idx = [chain.index(s) for s in dom]
    q = [[chain.kernel[i][j] for j in idx] for i in idx]
    if chain.mode == "rational":
        a = [[Fraction(int(r == c)) - q[r][c] for c in range(k)] for r in range(k)]
        eye = [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]
        sol = solve_fraction(a, eye)
        values = tuple(tuple(row) for row in sol)
    else:
        a = np.eye(k) - np.array(q, dtype=float)
        sol = solve_double(a, np.eye(k))
        values = tuple(tuple(float(v) for v in row) for row in sol)
    return GreenTable(tuple(dom), values, chain.mode)


def _reachable_within(chain: MarkovChain, start, domain: frozenset) -> frozenset:
    """States of `domain` reachable from start along support paths inside it."""
    adj = chain.support()
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in domain and y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def green_diagonal(chain: MarkovChain, domain: Iterable, x):
    """G_domain(x, x) computed on the part of the domain x can actually reach.

    Restricting to the reachable part leaves the value unchanged but keeps
    the linear system regular when the domain contains unrelated traps.
    """
    domain = frozenset(domain)
    if x not in domain:
        raise ValueError("state must belong to the domain")
    part = _reachable_within(chain, x, domain)
    return green(chain, part).diag(x)


def f_product(chain: MarkovChain, domain: Iterable, points: Sequence):
    """Product of Green diagonals on a shrinking domain.

    F(y0, .., yn) = G_B(y0,y0) * G_{B-y0}(y1,y1) * ...; invariant under
    permutations of the points, which tests assert.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    dom = set(frozenset(domain))
    if not set(points) <= dom:
        raise ValueError("points must lie in the domain")
    out = Fraction(1) if chain.mode == "rational" else 1.0
    for y in points:
        out *= green_diagonal(chain, frozenset(dom), y)
        dom.remove(y)
    return out


def le_path_probability(chain: MarkovChain, absorbing: Iterable, w: Sequence):
    """Probability that the loop erasure of the stopped walk equals w.

    w must be self-avoiding, start outside the absorbing set except for
    its final state, and end inside it.  The value is the product over
    the path of the Green diagonal on the not-yet-forbidden domain times
    the one-step transition probability.
    """
    a = frozenset(absorbing)
    w = tuple(w)
    if not w:
        raise ValueError("path must be non-empty")
    if len(set(w)) != len(w):
        raise ValueError("path must be self-avoiding")
    if w[-1] not in a:
        raise ValueError("path must end in the absorbing set")
    if any(s in a for s in w[:-1]):
        raise ValueError("only the final state may touch the absorbing set")
    if not set(w) <= set(chain.states):
        raise ValueError("path leaves the state space")
    if len(w) == 1:
        return Fraction(1) if chain.mode == "rational" else 1.0
    base = frozenset(chain.states) - a
    prob = Fraction(1) if chain.mode == "rational" else 1.0
    forbidden: set = set()
    for n in range(len(w) - 1):
        dom = base - forbidden
        prob *= green_diagonal(chain, dom, w[n]) * chain.transition(w[n], w[n + 1])
        forbidden.add(w[n])
    return prob


# ---------------------------------------------------------------------------
# Path laws


@dataclass(frozen=True)
class PathLaw:
    """Finitely supported sub-probability law over paths.

    atoms maps path tuples to positive masses; tail_bound is a certified
    upper bound on the mass not captured by the atoms.  In rational mode
    total + tail_bound <= 1 holds exactly.
    """

    atoms: dict
    tail_bound: object
    mode: str

    def __post_init__(self):
        if any(m <= 0 for m in self.atoms.values()):
            raise ValueError("atom masses must be positive")
        if self.tail_bound < 0:
            raise ValueError("tail bound must be non-negative")
        excess = self.total() + self.tail_bound - 1
        if (self.mode == "rational" and excess > 0) or excess > 1e-9:
            raise ValueError(f"masses plus tail exceed 1 by {excess}")

    def total(self):
        zero = Fraction(0) if self.mode == "rational" else 0.0
        return sum(self.atoms.values(), zero)

    def mass(self, path):
        zero = Fraction(0) if self.mode == "rational" else 0.0
        return self.atoms.get(tuple(path), zero)


def tv_distance(a: PathLaw, b: PathLaw):
    """Half the l1 distance between the atom vectors."""
    keys = set(a.atoms) | set(b.atoms)
    tot = sum(abs(a.mass(k) - b.mass(k)) for k in keys)
    return tot / 2


def law_to_text(law: PathLaw) -> str:
    """One atom per line: space-joined path, a tab, then the mass."""
    if law.mode == "rational":
        fmt = str
        tail = str(law.tail_bound)
    else:
        fmt = lambda v: repr(float(v))
        tail = repr(float(law.tail_bound))
    lines = [f"# tail_bound\t{tail}"]
    for path in sorted(law.atoms, key=lambda p: (len(p), tuple(map(str, p)))):
        lines.append(" ".join(str(s) for s in path) + "\t" + fmt(law.atoms[path]))
    return "\n".join(lines) + "\n"


def law_from_text(text: str) -> PathLaw:
    tail = None
    atoms = {}
    double = False
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            token = ln.split("\t")[-1].strip()
            double = double or "." in token
            tail = token
            continue
        path_part, mass = ln.split("\t")
        double = double or "." in mass
        atoms[tuple(path_part.split())] = mass
    if tail is None:
        raise ValueError("missing tail_bound header")
    if double:
        return PathLaw({p: float(m) for p, m in atoms.items()}, float(tail), "double")
    return PathLaw({p: Fraction(m) for p, m in atoms.items()}, Fraction(tail), "rational")


# ---------------------------------------------------------------------------
# Exhaustive enumeration of erased-walk laws


def _normalize_pipeline(chain: MarkovChain, pipeline):
    """Return the pipeline as a list of frozenset stages (None = full)."""
    if isinstance(pipeline, str):
        if pipeline != "LE":
            raise ValueError(f"unknown pipeline {pipeline!r}")
        return [None]
    levels = [frozenset(v) for v in pipeline]
    if not levels:
        raise ValueError("pipeline must have at least one level")
    allstates = frozenset(chain.states)
    for v in levels:
        if not v <= allstates:
            raise ValueError("pipeline level leaves the state space")
    for lo, hi in zip(levels, levels[1:]):
        if not lo <= hi:
            raise ValueError("pipeline levels must be nested")
    return levels


# The enumeration state for a trajectory prefix is a nested "tower":
# stage i records, for every retained point currently in its partial
# output, a snapshot of the downstream tower right after that point was
# consumed, plus the current downstream tower.  Rolling back to a
# snapshot is exactly what a loop erasure at that point does to every
# later stage, so the tower is a sufficient statistic for the final
# pipeline output.  Unretained stretches are never stored (only the last
# stage keeps its literal partial path), which is what keeps the state
# space finite when the last stage retains every non-absorbing state.


def _tower_init(x, stages, step):
    state = step((), x, stages[-1])
    for i in range(len(stages) - 2, -1, -1):
        cps = ((x, state),) if x in stages[i] else ()
        state = (cps, state)
    return state


def _tower_feed(state, y, stages, i, step):
    if i == len(stages) - 1:
        return step(state, y, stages[i])
    cps, inner = state
    retained = stages[i]
    if y in retained:
        for j, (z, snap) in enumerate(cps):
            if z == y:
                return cps[: j + 1], snap
        inner2 = _tower_feed(inner, y, stages, i + 1, step)
        return cps + ((y, inner2),), inner2
    return cps, _tower_feed(inner, y, stages, i + 1, step)


def _tower_final(state, depth: int) -> tuple:
    for _ in range(depth - 1):
        state = state[1]
    return state


def _eliminate(out: list, sinks: list, start: int) -> dict:
    """Absorption weights of the start tower, by GTH state reduction.

    out[i] maps the towers that tower i moves to, and sinks[i] the final
    paths it can end on, to positive weights; both are consumed.  Every
    tower but the start is eliminated, fewest in-edges times out-edges
    first (ties by id).  Eliminating s rewrites each predecessor row as
    T_s * row_i + w_is * row_s, where T_s is the total weight of s's row,
    and drops the self-loops this creates: rows need only be proportional
    to the exit probabilities, so nothing is ever subtracted.  Each
    changed row is divided by its gcd.  Returns the start's sink
    weights, proportional to the law.
    """
    preds = [set() for _ in out]
    for i, row in enumerate(out):
        row.pop(i, None)
        for k in row:
            preds[k].add(i)
    live = set(range(len(out)))
    live.discard(start)

    def cost(t: int) -> int:
        return len(preds[t]) * (len(out[t]) + len(sinks[t]))

    heap = [(cost(t), t) for t in live]  # stale entries are skipped
    heapq.heapify(heap)
    while heap:
        c, s = heapq.heappop(heap)
        if s not in live or c != cost(s):
            continue
        live.discard(s)
        out_s, sinks_s = out[s], sinks[s]
        out[s] = sinks[s] = None
        total = sum(out_s.values()) + sum(sinks_s.values())
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
            out_i.pop(i, None)
            for k in out_s:
                if k != i:
                    preds[k].add(i)
            g = math.gcd(*out_i.values(), *sinks_i.values())
            if g > 1:
                for row_i in (out_i, sinks_i):
                    for k in row_i:
                        row_i[k] //= g
        for t in (preds[s] | out_s.keys()) & live:
            heapq.heappush(heap, (cost(t), t))
    return sinks[start]


def enumerate_erasure_law(
    chain: MarkovChain,
    start,
    absorbing: Iterable,
    pipeline="LE",
    length_cap: int = 40,
    tol=None,
    step_fn: Callable | None = None,
) -> PathLaw:
    """Law of the erased walk stopped on entering the absorbing set.

    pipeline is "LE" for plain loop erasure or a nested sequence of
    retained sets applied in order.  Trajectories are aggregated by their
    tower, which determines the final pipeline output.

    When tol is given and the last stage retains every non-absorbing
    state (as "LE" and every pipeline ending in the full set do), the
    towers reachable from the start are finitely many.  The tower chain
    is then built by breadth-first search and eliminated exactly
    (`_eliminate`), so the law is exact and tail_bound is 0 whatever
    tol is.  Double mode runs the same integer elimination on the exact
    values of its float kernel and rounds each atom once, so laws that
    agree in exact arithmetic agree bit for bit.  A tower chain of more
    than TOWER_GUARD towers raises GuardError.  Otherwise the mass is
    stepped forward one walk step at a time: for length_cap steps when
    tol is None, else until the mass still unabsorbed is at most tol.
    tail_bound is that unabsorbed mass, a certified bound on what the
    atoms miss.

    step_fn overrides the innermost erasure fold step; it exists so
    negative controls can inject a broken erasure.  Leave it None.
    """
    a = frozenset(absorbing)
    if not a:
        raise ValueError("absorbing set must be non-empty")
    if not a <= set(chain.states):
        raise ValueError("absorbing set leaves the state space")
    if chain.n > ENUM_STATE_GUARD:
        raise GuardError(f"enumeration is guarded to {ENUM_STATE_GUARD} states")
    closure = _entry_tables(chain, a)[0]
    if start not in closure:
        raise ValueError(f"entry into the absorbing set is not almost sure from {start!r}")
    stages = _normalize_pipeline(chain, pipeline)
    depth = len(stages)
    step = step_fn if step_fn is not None else fold_step
    rational = chain.mode == "rational"
    if tol is not None:
        tol = Fraction(tol) if rational else float(tol)
        if tol <= 0:
            raise ValueError("tol must be positive")

    if start in a:
        one = Fraction(1) if rational else 1.0
        zero = Fraction(0) if rational else 0.0
        return PathLaw({(start,): one}, zero, chain.mode)

    states = chain.states
    last = stages[-1]
    solve = tol is not None and (last is None or last >= frozenset(states) - a)
    if rational or solve:
        # integer weights: the kernel times the lcm of its denominators
        # (Fraction of a float is its exact dyadic value)
        kernel = chain.kernel if rational else [[Fraction(p) for p in row] for row in chain.kernel]
        denom = math.lcm(*[p.denominator for row in kernel for p in row])
        moves = [
            [(j, p.numerator * (denom // p.denominator)) for j, p in enumerate(row) if p]
            for row in kernel
        ]
    else:
        denom = 1.0
        moves = [[(j, float(p)) for j, p in enumerate(row) if p > 0] for row in chain.kernel]
    in_a = [s in a for s in states]
    sidx = {s: i for i, s in enumerate(states)}

    # Interned towers.  A tower determines the current chain position (the
    # innermost partial always ends with the element just consumed), so
    # its moves are the walk kernel's row there, each fed through the
    # pipeline: a move into the absorbing set ends on a final path.
    ids: dict = {}
    towers: list = []

    def intern(tw) -> int:
        sid = ids.get(tw)
        if sid is None:
            sid = len(towers)
            ids[tw] = sid
            towers.append(tw)
        return sid

    def expand(sid: int) -> tuple:
        """One tower's weights {successor sid: w} and {final path: w}."""
        tw = towers[sid]
        nxt: dict = {}
        ends: dict = {}
        for j, w in moves[sidx[_tower_final(tw, depth)[-1]]]:
            fed = _tower_feed(tw, states[j], stages, 0, step)
            if in_a[j]:
                k, row = _tower_final(fed, depth), ends
            else:
                k, row = intern(fed), nxt
            row[k] = row.get(k, 0) + w
        return nxt, ends

    origin = intern(_tower_init(start, stages, step))
    if solve:
        out, sinks = [], []
        while len(out) < len(towers):  # breadth-first: expand interns in order
            if len(towers) > TOWER_GUARD:
                raise GuardError(f"tower chain exceeds {TOWER_GUARD} towers")
            nxt, ends = expand(len(out))
            out.append(nxt)
            sinks.append(ends)
        weights = _eliminate(out, sinks, origin)
        total = sum(weights.values())
        if rational:
            atoms = {p: Fraction(w, total) for p, w in weights.items()}
            return PathLaw(atoms, Fraction(0), chain.mode)
        # int / int is correctly rounded
        return PathLaw({p: w / total for p, w in weights.items()}, 0.0, chain.mode)

    # Time-stepping; rational masses are integers over a running power of denom.
    zero_mass = 0 if rational else 0.0
    alive = {origin: 1 if rational else 1.0}
    done: dict = {}
    succ: dict = {}  # sid -> expand(sid), built when the tower is first alive
    denom_pow = 1 if rational else 1.0  # denom**t alongside the masses
    steps = 0
    while alive and (tol is not None or steps < length_cap):
        denom_pow *= denom
        for k in done:
            done[k] *= denom
        stepped: dict = {}
        for sid, mass in alive.items():
            moved = succ.get(sid)
            if moved is None:
                moved = succ[sid] = expand(sid)
            nxt, ends = moved
            for k, w in nxt.items():
                stepped[k] = stepped.get(k, zero_mass) + mass * w
            for k, w in ends.items():
                done[k] = done.get(k, zero_mass) + mass * w
        alive = stepped
        steps += 1
        if tol is not None:
            alive_mass = sum(alive.values())
            if rational:
                if alive_mass * tol.denominator <= tol.numerator * denom_pow:
                    break
            elif alive_mass <= tol:
                break

    if rational:
        tail = Fraction(sum(alive.values()), denom_pow)
        atoms = {p: Fraction(m, denom_pow) for p, m in done.items() if m}
    else:
        tail = sum(alive.values())
        atoms = {p: m for p, m in done.items() if m > 0}
    return PathLaw(atoms, tail, chain.mode)


def enumerate_trajectories(chain: MarkovChain, start, absorbing: Iterable, length_cap: int, visit: Callable):
    """Naive exhaustive recursion over trajectories (cross-check tool).

    Calls visit(trajectory, probability) at every absorption and returns
    the total mass of trajectories still alive at the cap.  Exponential;
    keep the cap tiny.
    """
    a = frozenset(absorbing)
    rational = chain.mode == "rational"
    one = Fraction(1) if rational else 1.0
    kernel = chain.kernel
    states = chain.states
    sidx = {s: i for i, s in enumerate(states)}

    def rec(traj: tuple, prob, depth: int):
        if traj[-1] in a:
            visit(traj, prob)
            return one * 0
        if depth == length_cap:
            return prob
        z = sidx[traj[-1]]
        alive = one * 0
        for j, p in enumerate(kernel[z]):
            if p > 0:
                alive += rec(traj + (states[j],), prob * p, depth + 1)
        return alive

    return rec((start,), one, 0)


# ---------------------------------------------------------------------------
# Traced kernels


def _absorption_matrix(chain: MarkovChain, targets: frozenset, absorbers: frozenset):
    """For every interior state, the hit distribution over targets + sink.

    Returns (interior_states, rows) where each row maps target state (or
    DELTA for the absorbers) to the probability of hitting it first.
    """
    interior = [s for s in chain.states if s not in targets and s not in absorbers]
    cols = [s for s in chain.states if s in targets]
    k = len(interior)
    iidx = [chain.index(s) for s in interior]
    if chain.mode == "rational":
        zero, one = Fraction(0), Fraction(1)
    else:
        zero, one = 0.0, 1.0
    rhs = []
    for i in iidx:
        row = [chain.kernel[i][chain.index(c)] for c in cols]
        row.append(sum((chain.kernel[i][chain.index(s)] for s in absorbers), zero))
        rhs.append(row)
    if k == 0:
        return interior, []
    q = [[chain.kernel[r][c] for c in iidx] for r in iidx]
    if chain.mode == "rational":
        a = [[(one if r == c else zero) - q[r][c] for c in range(k)] for r in range(k)]
        sol = solve_fraction(a, rhs)
    else:
        a = np.eye(k) - np.array(q, dtype=float)
        sol = solve_double(a, np.array(rhs, dtype=float))
    rows = []
    for r in range(k):
        rows.append({c: sol[r][j] for j, c in enumerate(cols)} | {DELTA: sol[r][len(cols)]})
    return interior, rows


def traced_kernel(
    chain: MarkovChain,
    subset: Iterable,
    absorbing: Iterable = (),
    variant: str = "hitting-set",
) -> MarkovChain:
    """Kernel of the walk observed on a subset, killed on the absorbing set.

    variant "hitting-set": the next observation is the walk's position at
    its next hitting time of the subset (time >= 1), so self-transitions
    are possible.  variant "exclude-current": the next observation is the
    first visit to the subset minus the current state, so the diagonal is
    zero.  Entering the absorbing set first moves the observation to the
    sink state DELTA, which is absorbing; the sink appears only when the
    absorbing set is non-empty.
    """
    subset = frozenset(subset)
    sub = [s for s in chain.states if s in subset]
    a = frozenset(absorbing)
    if not sub:
        raise ValueError("subset must be non-empty")
    if subset - set(sub):
        raise ValueError("subset contains unknown states")
    if not a <= set(chain.states):
        raise ValueError("absorbing set leaves the state space")
    if set(sub) & a:
        raise ValueError("subset and absorbing set must be disjoint")
    if variant not in ("hitting-set", "exclude-current"):
        raise ValueError(f"unknown variant {variant!r}")
    if a and DELTA in (set(chain.states) - a):
        # tracing a chain whose own sink is the absorber is fine; a live
        # state with the reserved name would collide with the new sink
        raise ValueError(f"state name {DELTA!r} is reserved for the sink")

    rational = chain.mode == "rational"
    zero = Fraction(0) if rational else 0.0
    one = Fraction(1) if rational else 1.0

    out_states = list(sub) + ([DELTA] if a else [])
    rows = []
    if variant == "hitting-set":
        targets = frozenset(sub)
        closure = _entry_tables(chain, targets | a)[0]
        missing = [s for s in sub if s not in closure]
        if missing:
            raise ValueError(
                f"observation is not almost sure from {sorted(map(str, missing))}"
            )
        interior, irows = _absorption_matrix(chain, targets, a)
        hit = dict(zip(interior, irows))
        for x in sub:
            i = chain.index(x)
            row = {c: zero for c in out_states}
            for j, p in enumerate(chain.kernel[i]):
                if p <= 0:
                    continue
                y = chain.states[j]
                if y in targets:
                    row[y] += p
                elif y in a:
                    row[DELTA] += p
                else:
                    if y not in closure:
                        raise ValueError(f"observation can stall via {y!r}")
                    for c, q in hit[y].items():
                        if q > 0:
                            row[c] += p * q
            rows.append(tuple(row[c] for c in out_states))
    else:
        for x in sub:
            targets = frozenset(sub) - {x}
            if not targets and not a:
                raise ValueError("exclude-current needs a second subset state or killing")
            closure = _entry_tables(chain, targets | a)[0]
            if x not in closure:
                raise ValueError(f"observation is not almost sure from {x!r}")
            interior, irows = _absorption_matrix(chain, targets, a)
            hit = dict(zip(interior, irows))
            row = {c: zero for c in out_states}
            src = hit[x]
            for c, q in src.items():
                if q > 0:
                    row[c] += q
            rows.append(tuple(row[c] for c in out_states))
    if a:
        rows.append(tuple(one if c == DELTA else zero for c in out_states))
    return MarkovChain(tuple(out_states), tuple(rows), chain.mode)
