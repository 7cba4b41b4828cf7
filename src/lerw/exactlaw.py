"""Exact distributions of erased walks on small chains.

Everything here is closed-form or exhaustively enumerated.  In rational
mode no floating point enters: Green values, path probabilities and the
enumerated laws are Fractions, so equalities between laws can be asserted
with == rather than tolerances.

One exact reduction serves every job: Grassmann–Taksar–Heyman state
reduction (`_eliminate`) of integer weights onto a kept set.  The chain
reduced onto a subset (`_reduce`) gives the traced kernels, and reduced
onto one state the Green diagonals; the full Green table (`green`) is
the one dense exact solve.  A double kernel's entries are dyadic
rationals, so double mode runs the same exact arithmetic on them and
rounds each result once.

Erased-walk laws aggregate trajectories by their "tower", the running
erasure state of the whole pipeline (a sufficient statistic for its
output).  With tol given and a last stage retaining every non-absorbing
state, the tower chain is finite and is reduced onto its start tower:
the law is exact and its tail bound 0.  Otherwise mass is stepped
forward in time and the tail bound is the certified unabsorbed mass.
The slow per-trajectory recursion is kept alongside as a cross-check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from ._exact import SingularSystemError, solve_fraction
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
# Exact reduction of a chain onto a kept set


def _integer_moves(chain: MarkovChain) -> tuple:
    """(denom, moves), cached on the chain: moves[i] lists (j, w) for the
    positive entries of row i, each w the entry times denom, the lcm of
    the kernel's denominators.

    A double kernel's entries are read at their exact dyadic values, so
    the weights are exact in both modes; a double row's weights need not
    sum to denom.
    """
    cached = getattr(chain, "_integer_moves", None)
    if cached is None:
        kernel = [[Fraction(p) for p in row] for row in chain.kernel]
        denom = math.lcm(*[p.denominator for row in kernel for p in row])
        moves = [
            [(j, p.numerator * (denom // p.denominator)) for j, p in enumerate(row) if p]
            for row in kernel
        ]
        cached = (denom, moves)
        object.__setattr__(chain, "_integer_moves", cached)
    return cached


def _eliminate(out: list, sinks: list, keep: set) -> None:
    """Reduce a weighted chain onto the rows in keep, by GTH state reduction.

    out[i] maps the rows that row i moves to, and sinks[i] the sinks it
    can end on, to positive weights.  Every other row is eliminated and
    consumed, fewest in-edges times out-edges first (ties by id).
    Eliminating s rewrites each predecessor row as T_s * row_i + w_is *
    row_s, where T_s is the total weight of s's row.  Rows need only be
    proportional to the exit probabilities, so nothing is ever subtracted
    and the self-loops of rows still to be eliminated are dropped.  Each
    changed row is divided by its gcd.  Kept rows keep their self-loops:
    on return, out[k] and sinks[k] for k in keep are proportional to
    where the chain from k is first seen again in keep (at time >= 1), or
    to the sink it ends on first.
    """
    preds = [set() for _ in out]
    for i, row in enumerate(out):
        if i not in keep:
            row.pop(i, None)
        for k in row:
            preds[k].add(i)
    live = set(range(len(out))) - keep

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
            if i not in keep:
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


def _reduce(chain: MarkovChain, keep: Sequence, absorbing: frozenset) -> list:
    """The chain's integer weights reduced onto the states `keep`.

    Returns one (row, dead) pair per kept state, in keep's order: row maps
    positions in keep to weights and dead weighs entry into `absorbing`.
    Each pair is proportional to where the walk from that state is first
    seen, at time >= 1, in keep or in the absorbing set.  Only the states
    reachable from keep without entering `absorbing` are built; if that
    observation is not almost sure from one of them, ValueError.
    """
    states = chain.states
    moves = _integer_moves(chain)[1]
    closure = _entry_tables(chain, frozenset(keep) | absorbing)[0]
    pos = {chain.index(s): k for k, s in enumerate(keep)}
    order = list(pos)
    out, sinks = [], []
    while len(out) < len(order):  # breadth-first: rows in the order states are met
        row, dead = {}, 0
        for j, w in moves[order[len(out)]]:
            if states[j] in absorbing:
                dead += w
                continue
            k = pos.get(j)
            if k is None:
                if states[j] not in closure:
                    raise ValueError(f"observation can stall via {states[j]!r}")
                k = pos[j] = len(order)
                order.append(j)
            row[k] = w
        out.append(row)
        sinks.append({DELTA: dead} if dead else {})
    _eliminate(out, sinks, set(range(len(keep))))
    return [(out[k], sinks[k].get(DELTA, 0)) for k in range(len(keep))]


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
    The table is one exact dense solve.  Each row is the chain's integer
    weights over their own total, so a double kernel is read at its exact
    values; double mode rounds each exact value once and agrees bit for
    bit with `green_diagonal`.
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
    col = {chain.index(s): c for c, s in enumerate(dom)}
    moves = _integer_moves(chain)[1]
    eye = [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]
    a = [row[:] for row in eye]
    for r, s in enumerate(dom):
        row = moves[chain.index(s)]
        total = sum(w for _, w in row)
        for j, w in row:
            if j in col:
                a[r][col[j]] -= Fraction(w, total)
    sol = solve_fraction(a, eye)
    if chain.mode == "rational":
        values = tuple(tuple(row) for row in sol)
    else:
        values = tuple(tuple(float(v) for v in row) for row in sol)
    return GreenTable(tuple(dom), values, chain.mode)


def green_diagonal(chain: MarkovChain, domain: Iterable, x):
    """G_domain(x, x), from the chain reduced onto x.

    With w_xx the weight of returning to x and w_dead that of leaving the
    domain first, G(x, x) = (w_xx + w_dead) / w_dead.  Only the part of
    the domain that x can reach is reduced, so unrelated traps in the
    domain do not matter.
    """
    domain = frozenset(domain)
    if x not in domain:
        raise ValueError("state must belong to the domain")
    outside = frozenset(chain.states) - domain
    if x not in _entry_tables(chain, outside)[0]:
        raise SingularSystemError(f"exit from the domain is not almost sure from {x!r}")
    ((row, dead),) = _reduce(chain, (x,), outside)
    back = row.get(0, 0)
    if chain.mode == "rational":
        return Fraction(back + dead, dead)
    return (back + dead) / dead  # int / int is correctly rounded


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
        denom, moves = _integer_moves(chain)
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
        _eliminate(out, sinks, {origin})
        weights = sinks[origin]
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

    Both variants come from one exact reduction onto the subset
    (`_reduce`): hitting-set rows are its rows normalised, and since the
    returns to the current state before the next other observation are
    geometric, exclude-current rows are the same rows with the diagonal
    dropped.  Double kernels are exact values rounded once.  A state the
    walk can reach from the subset without being observed again almost
    surely raises ValueError.
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
    exclude = variant == "exclude-current"
    if exclude and len(sub) == 1 and not a:
        raise ValueError("exclude-current needs a second subset state or killing")

    rational = chain.mode == "rational"
    rows = []
    for k, (row, dead) in enumerate(_reduce(chain, sub, a)):
        if exclude:
            row.pop(k, None)
            if not row and not dead:
                raise ValueError(f"observation is not almost sure from {sub[k]!r}")
        total = sum(row.values()) + dead
        weights = [row.get(c, 0) for c in range(len(sub))] + ([dead] if a else [])
        # int / int is correctly rounded
        rows.append(tuple(Fraction(w, total) if rational else w / total for w in weights))
    if a:
        zero, one = (Fraction(0), Fraction(1)) if rational else (0.0, 1.0)
        rows.append((zero,) * len(sub) + (one,))
    return MarkovChain(tuple(sub) + ((DELTA,) if a else ()), tuple(rows), chain.mode)
