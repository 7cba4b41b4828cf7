"""Electrical networks, their reversible walks, and resistance solves.

Conductances live on unordered vertex pairs; an absent pair means zero.
Everything downstream (resistance, harmonic extension, tracing) reduces
to Dirichlet problems for the weighted graph Laplacian. Rational mode
solves them exactly with `_exact.eliminate`, the GTH reduction the chain
laws use: vertices are integer rows carrying their currents as loads, a
Dirichlet solve back-substitutes the eliminated rows and a trace reads
the kept rows as the traced walk. Double mode builds one CSR Laplacian
per network from its edge arrays and solves every problem with a
symmetric-ordered sparse LU, refined once, whose residual is checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ._exact import SingularSystemError, check_residual, eliminate
from .chain import MarkovChain, build_chain


class ElectricalNetwork:
    """A connected network of positive conductances on named vertices.

    Edges have one form: `_ends`, an (m, 2) array of vertex positions,
    and `_values`, their conductances in the same order (a float array in
    double mode, a tuple in rational mode). The constructor parses a dict
    keyed by unordered vertex pairs into it; `uniform_network` and the
    double trace hand arrays straight to `_from_arrays`. Vertex weights
    are summed in edge order, so they do not depend on which way an edge
    came in. The `conductances` dict and the neighbour lists are built
    from the arrays when first read. A network is not changed after
    construction.
    """

    def __init__(self, vertices: Iterable, conductances: Mapping, mode: str = "rational"):
        self._set_vertices(vertices, mode)
        ends = []
        for key in conductances:
            if not isinstance(key, frozenset) or len(key) != 2:
                raise ValueError(f"conductance key {key!r} is not an unordered pair")
            if not all(v in self._pos for v in key):
                raise ValueError(f"conductance key {key!r} leaves the vertex set")
            ends.append([self._pos[v] for v in key])
        self._set_edges(np.array(ends, dtype=np.int64).reshape(-1, 2), tuple(conductances.values()))

    @classmethod
    def _from_arrays(cls, vertices: Iterable, ends, values, mode: str) -> "ElectricalNetwork":
        """The network with edge i joining positions ends[i] at conductance values[i]."""
        net = cls.__new__(cls)
        net._set_vertices(vertices, mode)
        net._set_edges(np.asarray(ends, dtype=np.int64).reshape(-1, 2), values)
        return net

    def _set_vertices(self, vertices: Iterable, mode: str):
        if mode not in ("rational", "double"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.vertices = tuple(vertices)
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._pos) != len(self.vertices):
            raise ValueError("duplicate vertices")

    def _set_edges(self, ends: np.ndarray, values):
        n, vs = self.n, self.vertices
        double = self.mode == "double"
        values = np.asarray(values, dtype=float) if double else tuple(values)
        lo, hi = ends.min(1), ends.max(1)
        if (i := _first((lo < 0) | (hi >= n))) is not None:
            raise ValueError(f"conductance key {tuple(ends[i].tolist())!r} leaves the vertex set")
        if (i := _first(lo == hi)) is not None:
            raise ValueError(f"conductance key {frozenset((vs[lo[i]],))!r} is not an unordered pair")
        pairs = np.sort(lo * n + hi)
        if (i := _first(pairs[1:] == pairs[:-1])) is not None:
            a, b = divmod(int(pairs[i]), n)
            raise ValueError(f"duplicate edge {vs[a]!r}-{vs[b]!r}")
        positive = values > 0 if double else np.array([c > 0 for c in values], dtype=bool)
        if (i := _first(~positive)) is not None:
            key = (vs[lo[i]], vs[hi[i]])
            raise ValueError(f"conductance on {sorted(key, key=repr)!r} must be positive")
        self._ends, self._values = ends, values
        if double:
            self._weights = np.bincount(
                ends.ravel(), weights=np.repeat(values, 2), minlength=n
            ).tolist()
        else:
            self._weights = [0] * n
            for (a, b), c in zip(ends.tolist(), values):
                self._weights[a] += c
                self._weights[b] += c
        # connectivity is part of the type: every solve below assumes it
        if not _connected(n, ends):
            raise ValueError("network is not connected")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def _edges(self):
        """(x, y, c) per edge in edge order, with Python scalars."""
        vs = self.vertices
        values = self._values.tolist() if self.mode == "double" else self._values
        return ((vs[a], vs[b], c) for (a, b), c in zip(self._ends.tolist(), values))

    @cached_property
    def conductances(self) -> dict:
        """Conductance per unordered vertex pair, in edge order."""
        return {frozenset((x, y)): c for x, y, c in self._edges()}

    @cached_property
    def _adj(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for x, y, c in self._edges():
            adj[x].append((y, c))
            adj[y].append((x, c))
        return {v: tuple(nb) for v, nb in adj.items()}

    def neighbors(self, x):
        return self._adj[x]

    def weight(self, x):
        """Total conductance c_x at a vertex."""
        return self._weights[self._pos[x]]

    def conductance(self, x, y):
        zero = Fraction(0) if self.mode == "rational" else 0.0
        return self.conductances.get(frozenset((x, y)), zero)


def _first(mask: np.ndarray):
    """Index of the first true entry of mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _connected(n: int, ends: np.ndarray) -> bool:
    """Whether the edges ends (position pairs) join all n vertices.

    Each vertex carries a label, at most its own position, of a vertex in
    its component. A round hooks every root to the smallest root across
    its edges and then shortcuts labels to roots; each round that leaves
    an edge between two roots merges at least two of them, and on
    fractal vertex orders two rounds suffice.
    """
    a, b = ends[:, 0], ends[:, 1]
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return bool((label == 0).all())
        np.minimum.at(label, np.maximum(la, lb)[split], np.minimum(la, lb)[split])
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def build_network(edges: Iterable, mode: str = "rational") -> ElectricalNetwork:
    """Build a network from (u, v, conductance) triples.

    Vertices are ordered by first appearance; duplicate pairs rejected.
    """
    verts: list = []
    seen: set = set()
    cond: dict = {}
    for u, v, c in edges:
        if u == v:
            raise ValueError(f"self edge at {u!r}")
        key = frozenset((u, v))
        if key in cond:
            raise ValueError(f"duplicate edge {u!r}-{v!r}")
        cond[key] = Fraction(c) if mode == "rational" else float(c)
        for w in (u, v):
            if w not in seen:
                seen.add(w)
                verts.append(w)
    return ElectricalNetwork(tuple(verts), cond, mode)


def network_to_text(net: ElectricalNetwork) -> str:
    lines = []
    done = set()
    for x in net.vertices:
        for y, c in net.neighbors(x):
            key = frozenset((x, y))
            if key in done:
                continue
            done.add(key)
            for name in (str(x), str(y)):
                if not name or any(ch.isspace() for ch in name):
                    raise ValueError(f"vertex name {name!r} is not writable")
            lines.append(f"{x} {y} {c if net.mode == 'rational' else repr(c)}")
    return "\n".join(lines) + "\n"


def network_from_text(text: str, mode: str = "rational") -> ElectricalNetwork:
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad network line {raw!r}")
        u, v, c = parts
        edges.append((u, v, Fraction(c) if mode == "rational" else float(c)))
    return build_network(edges, mode)


def walk_from_network(net: ElectricalNetwork, absorbing: Iterable = ()) -> MarkovChain:
    """The reversible walk P(x,y) = c_xy / c_x; absorbing vertices get loops."""
    a = frozenset(absorbing)
    if not a <= set(net.vertices):
        raise ValueError("absorbing set leaves the vertex set")
    one = Fraction(1) if net.mode == "rational" else 1.0
    idx = net._pos
    rows = []
    for x in net.vertices:
        row = [one * 0] * net.n
        if x in a:
            row[idx[x]] = one
        else:
            cx = net.weight(x)
            for y, c in net.neighbors(x):
                row[idx[y]] = c / cx
        rows.append(row)
    return build_chain(net.vertices, rows, net.mode)


def _positions(net: ElectricalNetwork, vs: Iterable) -> list:
    """Positions of vs in the vertex order; ValueError names an unknown one."""
    try:
        return [net._pos[v] for v in vs]
    except KeyError as exc:
        raise ValueError(f"vertex {exc.args[0]!r} is not in the network") from None


def laplacian(net: ElectricalNetwork):
    """The float graph Laplacian in vertex order, as a CSR matrix.

    Built once per network from its edge arrays; every double-mode solve
    takes its blocks from this one matrix.
    """
    lap = getattr(net, "_laplacian", None)
    if lap is None:
        from scipy.sparse import csr_matrix

        n, (a, b) = net.n, net._ends.T
        c = np.asarray(net._values, dtype=float)
        diag = np.arange(n)
        rows = np.concatenate([a, b, diag])
        cols = np.concatenate([b, a, diag])
        weights = np.asarray(net._weights, dtype=float)
        lap = csr_matrix((np.concatenate([-c, -c, weights]), (rows, cols)), shape=(n, n))
        net._laplacian = lap
    return lap


def _solve_block(net: ElectricalNetwork, idx: list, rhs: np.ndarray) -> np.ndarray:
    """Solve L[idx, idx] u = rhs with one sparse LU for all columns of rhs.

    The block of a connected network is symmetric positive definite, so
    the LU pivots on the diagonal in a minimum degree order of A + A^T,
    which fills in far less than the default column order. Its solution
    is refined once: that order alone loses digits on long chains of
    vertices (gasket level 7 corner resistance: 2.0e-12 relative error
    unrefined, 2.8e-14 refined). The LU's own solution and the refined
    one must both pass `check_residual`; SingularSystemError otherwise,
    or when the factorization fails.
    """
    from scipy.sparse.linalg import splu

    a = laplacian(net)[idx][:, idx].tocsc()
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from None
    u = lu.solve(rhs)
    check_residual(a, u, rhs)
    u += lu.solve(rhs - a @ u)
    check_residual(a, u, rhs)
    return u


def _schur_laplacian(schur: np.ndarray) -> np.ndarray:
    """The Laplacian of the conductances that a dense double Schur
    complement S of a Laplacian holds.

    Pair (a, b) gets conductance -(S_ab + S_ba) / 2, or none when that is
    at most 1e-13 * scale, scale being the largest |S_ab| and at least 1
    (roundoff leaves such tiny, even negative, entries).  The diagonal
    is rebuilt as the sum of each row's conductances, so every row sums
    to 0 exactly: a dense complement loses that to roundoff, and the
    loss grows with each elimination that follows (this is the fix GTH
    state reduction makes).
    """
    scale = max(abs(schur).max(), 1.0)
    c = schur + schur.T
    c *= -0.5
    np.fill_diagonal(c, 0.0)
    c[c <= 1e-13 * scale] = 0.0
    c *= -1.0
    np.fill_diagonal(c, -c.sum(1))
    return c


def _dense_trace(lap: np.ndarray, nf: int) -> np.ndarray:
    """`_schur_laplacian` of the dense Laplacian lap traced onto its
    positions after the first nf, which are eliminated.

    The grounded block L[:nf, :nf] is positive definite on a connected
    network; one Cholesky solve (LAPACK) takes every kept column, and its
    solution must pass `check_residual`.  SingularSystemError when the
    block is not numerically positive definite.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    if not nf:
        return _schur_laplacian(lap)
    a, b = lap[:nf, :nf], lap[:nf, nf:]
    try:
        x = cho_solve(cho_factor(a, check_finite=False), b, check_finite=False)
    except LinAlgError as exc:
        raise SingularSystemError(str(exc)) from None
    check_residual(a, x, b)
    return _schur_laplacian(lap[nf:, nf:] - b.T @ x)


_EVERY = object()


def _eliminate_rows(net: ElectricalNetwork, rows: list, keep=(), current: Mapping = {}) -> tuple:
    """`eliminate` every vertex of rows but those in keep; returns (out,
    sinks, loads, stars) as it leaves them, rows indexed by position.

    Row v is c_v u_v = I_v + sum_y c_vy u_y times the lcm of every
    conductance's and current's denominator, its current I_v the load; a
    neighbour y outside rows is the sink y.
    """
    idx = {v: i for i, v in enumerate(rows)}
    current = {v: Fraction(f) for v, f in current.items()}
    scale = math.lcm(*(c.denominator for c in [*net._values, *current.values()]))
    out, sinks = [], []
    for v in rows:
        row, sink = {}, {}
        for y, c in net.neighbors(v):
            w = c.numerator * (scale // c.denominator)
            k = idx.get(y)
            if k is None:
                sink[y] = w
            else:
                row[k] = w
        out.append(row)
        sinks.append(sink)
    loads = [int(current.get(v, 0) * scale) for v in rows]
    stars: list = []
    eliminate(out, sinks, {idx[v] for v in keep}, loads, stars)
    return out, sinks, loads, stars


def _dirichlet_solve(net: ElectricalNetwork, boundary: Mapping, current: Mapping, at=_EVERY):
    """Potentials with pinned boundary values and injected interior current.

    Solves L u = current on the interior rows. Each boundary value is a
    row with one entry per right-hand side; all columns share one solve
    and the same current. Returns the row at vertex `at`, or by default a
    dict of every vertex's row. Unknown vertices raise ValueError.

    Rational mode eliminates the interior exactly (keeping only `at`,
    when given, whose reduced row reads u = (load + sum sink * g) /
    sum sink), then back-substitutes in reverse order; double mode
    solves the interior block with one sparse LU.
    """
    if not boundary:
        raise ValueError("boundary must be non-empty")
    bpos = _positions(net, boundary)
    _positions(net, current)
    if at is not _EVERY:
        _positions(net, (at,))
        if at in boundary:
            return boundary[at]
    interior = [v for v in net.vertices if v not in boundary]
    if not interior:
        return dict(boundary)
    if net.mode == "rational":
        u = {v: [Fraction(g) for g in row] for v, row in boundary.items()}
        cols = range(len(next(iter(u.values()))))
        keep = () if at is _EVERY else (at,)
        _, sinks, loads, stars = _eliminate_rows(net, interior, keep, current)
        if keep:  # at's reduced row, its self-loop dropped, is the one star
            k = interior.index(at)
            stars = [(k, {}, sinks[k], loads[k], sum(sinks[k].values()))]
        for s, out_s, sinks_s, load_s, total in reversed(stars):
            terms = [(w, u[interior[k]]) for k, w in out_s.items()]
            terms += [(w, u[z]) for z, w in sinks_s.items()]
            u[interior[s]] = [(load_s + sum(w * g[c] for w, g in terms)) / total for c in cols]
        if keep:
            return u[at]
        out = dict(boundary)
        out.update((v, u[v]) for v in interior)
        return out
    row = {v: i for i, v in enumerate(interior)}
    ipos = [net._pos[v] for v in interior]
    rhs = np.zeros((len(interior), len(next(iter(boundary.values())))))
    for v, c in current.items():
        if v in row:
            rhs[row[v]] += float(c)
    g = np.array([boundary[v] for v in boundary], dtype=float)
    rhs -= laplacian(net)[ipos][:, bpos] @ g
    u = _solve_block(net, ipos, rhs)
    if at is not _EVERY:
        return u[row[at]]
    out = dict(boundary)
    out.update(zip(interior, u))
    return out


def harmonic_extension(net: ElectricalNetwork, boundary_values: Mapping) -> dict:
    """Energy-minimizing extension of the boundary data.

    With indicator boundary data the interior values are hitting
    probabilities of the 1-set before the 0-set; tests assert they equal
    `hitting_distribution` exactly and sampled walks within noise.
    """
    u = _dirichlet_solve(net, {v: (g,) for v, g in boundary_values.items()}, {})
    return {v: r[0] for v, r in u.items()}


def effective_resistance_to_set(net: ElectricalNetwork, x, targets: Iterable):
    a = frozenset(targets)
    if not a:
        raise ValueError("target set must be non-empty")
    if x in a:
        raise ValueError("source lies in the target set")
    zero = Fraction(0) if net.mode == "rational" else 0.0
    return _dirichlet_solve(net, {t: (zero,) for t in a}, {x: zero + 1}, at=x)[0]


def effective_resistance(net: ElectricalNetwork, x, y):
    if x == y:
        raise ValueError("effective resistance needs distinct vertices")
    return effective_resistance_to_set(net, x, (y,))


def expected_exit_time(net: ElectricalNetwork, x, targets: Iterable):
    """E_x of the walk's entry time into targets, by the Laplacian identity
    L E = c on the complement (c_v is the vertex weight).

    Tests assert E_x <= c(complement) * R(x, targets) and gambler's ruin
    on paths."""
    a = frozenset(targets)
    if not a:
        raise ValueError("target set must be non-empty")
    zero = Fraction(0) if net.mode == "rational" else 0.0
    current = {v: net.weight(v) for v in net.vertices if v not in a}
    return _dirichlet_solve(net, {t: (zero,) for t in a}, current, at=x)[0]


def hitting_distribution(net: ElectricalNetwork, x, targets: Iterable) -> dict:
    """Harmonic measure from x: which target the walk meets first.

    One Dirichlet solve with a column per target answers all targets at
    once, so this stays cheap on large sparse graphs.
    """
    tset = frozenset(targets)
    if not tset:
        raise ValueError("target set must be non-empty")
    tlist = [t for _, t in sorted(zip(_positions(net, tset), tset))]
    one = Fraction(1) if net.mode == "rational" else 1.0
    bnd = {t: [one * (s == t) for s in tlist] for t in tlist}
    probs = _dirichlet_solve(net, bnd, {}, at=x)
    return dict(zip(tlist, probs if net.mode == "rational" else map(float, probs)))


def trace_network(net: ElectricalNetwork, keep: Iterable) -> ElectricalNetwork:
    """Reduce the network onto a vertex subset without changing what the
    subset sees: pairwise effective resistances are preserved and the
    induced walk is the original walk watched on its visits to the subset.

    Rational mode eliminates the complement exactly, as every rational
    Dirichlet solve does, and reads c'_ab = c_a w_ab / T_a off the kept
    rows; double mode takes the Schur complement
    L_KK - L_KO L_OO^-1 L_OK of the Laplacian in one block step, with one
    sparse solve, and keeps the conductances `_schur_laplacian` reads off
    it (so a pair below its drop threshold gets no edge).
    """
    kset = frozenset(keep)
    if not kset <= set(net.vertices):
        raise ValueError("kept set leaves the vertex set")
    if len(kset) < 2:
        raise ValueError("need at least two kept vertices")
    kept = [v for v in net.vertices if v in kset]
    drop = [v for v in net.vertices if v not in kset]
    if not drop:
        return net

    cond = {}
    if net.mode == "rational":
        # the reduced walk from a is seen next at b with weight w_ab / T_a
        # (T_a counts a's self-loop), and c_a is unchanged by a trace
        out = _eliminate_rows(net, net.vertices, kept)[0]
        for a in kept:
            i = net._pos[a]
            total = sum(out[i].values())
            for k, w in out[i].items():
                key = frozenset((a, net.vertices[k]))
                if k != i and key not in cond:
                    cond[key] = Fraction(net.weight(a) * w, total)
    else:
        lap = laplacian(net)
        ki, oi = _positions(net, kept), _positions(net, drop)
        reduced = _schur_laplacian(lap[ki][:, ki].toarray() - lap[ki][:, oi] @ _solve_block(
            net, oi, lap[oi][:, ki].toarray()
        ))
        # kept pairs i < j in row order, as the conductances read
        i, j = np.nonzero(np.triu(reduced < 0, 1))
        return ElectricalNetwork._from_arrays(kept, np.column_stack([i, j]), -reduced[i, j], "double")
    # the constructor re-checks connectivity, which a trace of a
    # connected network can never lose
    return ElectricalNetwork(tuple(kept), cond, net.mode)


class HittingBoundReport(NamedTuple):
    probability: object
    bound: object
    vacuous: bool
    holds: bool


def check_hitting_bound(net: ElectricalNetwork, x, y, targets: Iterable) -> HittingBoundReport:
    """Resistance lower bound for meeting y before the target set.

    Compares P_x(tau_y < tau_A), computed by harmonic extension, against
    1 - R(x,y)/(R(x,A) - R(x,y)). The bound is vacuous unless
    R(x,A) > R(x,y).  Tests assert it holds on random networks.
    """
    a = frozenset(targets)
    if not a or x in a or y in a:
        raise ValueError("need x, y outside a non-empty target set")
    zero = Fraction(0) if net.mode == "rational" else 0.0
    one = zero + 1
    if x == y:
        prob = one
    else:
        bnd = {t: (zero,) for t in a}
        bnd[y] = (one,)
        prob = _dirichlet_solve(net, bnd, {}, at=x)[0]
    r_xy = zero if x == y else effective_resistance(net, x, y)
    r_xa = effective_resistance_to_set(net, x, a)
    if r_xa <= r_xy:
        return HittingBoundReport(prob, None, True, True)
    bound = one - r_xy / (r_xa - r_xy)
    return HittingBoundReport(prob, bound, False, prob >= bound)
