"""Sierpinski gasket and carpet graph generators.

Coordinates are exact: integer grid positions with one common power
denominator per level, so vertex dedup and edge detection never touch a
float. The gasket uses the affine basis spanned by two triangle sides
(both basis coordinates are then dyadic rationals); to_xy produces the
planar embedding when a metric needs real positions.

Both generators work on arrays: cells are addressed by broadcasting over
their address words, and vertices are de-duplicated by integer keys.  A
`FractalGraph` holds integer arrays (grid pairs, edge ends, one sorted
index array per level); its tuple views are built only when read.
`uniform_network`, `to_xy`, `corner_indices` and `adjacency_arrays`
read the arrays, so the double-mode experiments never build the views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from typing import Iterable

import numpy as np

from .network import ElectricalNetwork, _dense_trace

MAX_VERTICES = 5_000_000
# points (front and kept) of the largest dense Laplacian one carpet glue
# may hold.  The front is factored in place, so a glue holds one front
# block, 512 MB at the cap: carpet level 7 fits (5,840 points, a 272 MB
# front, about 512 MB peak RSS for levels 1..7) and level 8 (about
# 17,500) does not
MAX_DENSE_FRONT = 8_000


@dataclass(frozen=True)
class CarpetTemplate:
    k: int
    cells: frozenset  # (column, row) pairs, 1-based


def standard_carpet() -> CarpetTemplate:
    """k=3 with the center removed."""
    cells = frozenset((i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (2, 2))
    return CarpetTemplate(3, cells)


# the eight isometries of the square [0, t]^2, as maps of its points; with
# t = k + 1 they map the 1-based cells of a side-k template
_SQUARE_MAPS = (
    lambda x, y, t: (x, y),
    lambda x, y, t: (t - x, y),
    lambda x, y, t: (x, t - y),
    lambda x, y, t: (t - x, t - y),
    lambda x, y, t: (y, x),
    lambda x, y, t: (t - y, x),
    lambda x, y, t: (y, t - x),
    lambda x, y, t: (t - y, t - x),
)


def validate_carpet_template(template: CarpetTemplate) -> list:
    """All four carpet conditions; returns human-readable violations.

    An empty list means the template is admissible.
    """
    k = template.k
    cells = template.cells
    bad = []
    if k < 3:
        bad.append(f"side {k} is below 3")
        return bad
    for c in cells:
        if (
            not isinstance(c, tuple)
            or len(c) != 2
            or not all(isinstance(v, int) and 1 <= v <= k for v in c)
        ):
            bad.append(f"cell {c!r} is not a 1-based grid pair within side {k}")
            return bad
    n = len(cells)
    if not 4 * k - 4 <= n < k * k:
        bad.append(f"cell count {n} outside [{4 * k - 4}, {k * k - 1}]")

    border = [
        (i, j)
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if i in (1, k) or j in (1, k)
    ]
    if any(c not in cells for c in border):
        bad.append("Borders: some border cell is missing")

    for f in _SQUARE_MAPS:
        if frozenset(f(i, j, k + 1) for i, j in cells) != cells:
            bad.append("Symmetry: cell set not invariant under the square isometries")
            break

    if cells:
        # closed cells touching even at corners form one piece
        start = min(cells)
        seen = {start}
        stack = [start]
        while stack:
            i, j = stack.pop()
            for di, dj in product((-1, 0, 1), repeat=2):
                c = (i + di, j + dj)
                if c in cells and c not in seen:
                    seen.add(c)
                    stack.append(c)
        if len(seen) != len(cells):
            bad.append("Connected: kept cells fall apart")

    for i in range(1, k):
        for j in range(1, k):
            window = {
                c
                for c in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))
                if c in cells
            }
            if window in ({(i, j), (i + 1, j + 1)}, {(i + 1, j), (i, j + 1)}):
                bad.append(f"Nondiagonality: 2x2 block at ({i},{j}) kept only diagonally")
    return bad


def template_to_text(template: CarpetTemplate) -> str:
    lines = [str(template.k)]
    lines += [f"{i} {j}" for i, j in sorted(template.cells)]
    return "\n".join(lines) + "\n"


def _drawn_row_note(text: str) -> str:
    """A note naming the first line made of two or more `#` and `.`
    characters only, a row of a drawn grid, or "" when there is none.  `#`
    starts a comment, so such a grid's rows are never read as cells."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if len(line) > 1 and line[0] == "#" and not line.strip("#."):
            return (f"; line {number} {line!r} is a comment: a template lists each kept cell"
                    " as its column and row, 'i j', not as a drawn grid")
    return ""


def template_from_text(text: str) -> CarpetTemplate:
    """Read the form `template_to_text` writes: the side k on the first
    line, then one kept cell per line as its 1-based column and row,
    `i j`.  `#` starts a comment and blank lines are skipped.  A line of
    another shape raises ValueError naming its line number; a refusal of a
    text holding a drawn grid row also names that row (`_drawn_row_note`)."""
    k = None
    cells = set()
    for number, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if k is None:
                (k,) = map(int, fields)
            else:
                i, j = map(int, fields)
                cells.add((i, j))
        except ValueError:
            want = "the side k" if k is None else "a kept cell as 'i j'"
            raise ValueError(
                f"template line {number}: expected {want}, got {raw.strip()!r}{_drawn_row_note(text)}"
            ) from None
    if k is None:
        raise ValueError("empty template file" + _drawn_row_note(text))
    return CarpetTemplate(k, frozenset(cells))


@dataclass(frozen=True, init=False, eq=False)
class FractalGraph:
    """A gasket or carpet approximation graph held as integer arrays.

    `points` holds the n vertices as integer grid pairs (a, b) over the
    common denominator `grid`, `ends` the edges as vertex index pairs, one
    row per edge, and `level_sets` one sorted vertex index array per
    level 0..m.  The arrays are read-only.  The generators give each edge
    as a sorted pair, the rows in sorted order.

    The constructor takes either arrays or the tuple form: vertices as
    grid pairs, edges as index pairs and nested as vertex sets (tests
    build small graphs by hand that way).  It stores the arrays only.
    `vertices`, `edges` and `nested` give the tuple form back as
    read-only views, each built on first read and cached; code on the
    double-mode path reads the arrays and never builds them.
    """

    kind: str  # "gasket" or "carpet"
    level: int
    grid: int  # common coordinate denominator: 2^m or k^m
    points: np.ndarray  # n x 2 integer grid pairs over the denominator
    ends: np.ndarray  # edges as vertex index pairs, one row each
    level_sets: tuple  # sorted vertex index arrays, one per level 0..m

    def __init__(self, kind: str, level: int, grid: int, vertices, edges, nested):
        put = partial(object.__setattr__, self)
        put("kind", kind)
        put("level", level)
        put("grid", grid)
        put("points", _frozen(np.asarray(vertices, dtype=np.int64).reshape(-1, 2)))
        put("ends", _frozen(np.asarray(edges, dtype=np.int64).reshape(-1, 2)))
        put("level_sets", tuple(
            _frozen(s if isinstance(s, np.ndarray) else np.array(sorted(s), dtype=np.int64))
            for s in nested
        ))

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def vertices(self) -> tuple:
        """Integer (a, b) grid pairs over the denominator, in vertex order."""
        return tuple(map(tuple, self.points.tolist()))

    @cached_property
    def edges(self) -> tuple:
        """Index pairs, in edge order."""
        return tuple(map(tuple, self.ends.tolist()))

    @cached_property
    def nested(self) -> tuple:
        """Frozensets of vertex indices, one per level 0..m."""
        return tuple(frozenset(s.tolist()) for s in self.level_sets)

    def __eq__(self, other):
        if not isinstance(other, FractalGraph):
            return NotImplemented
        return (
            (self.kind, self.level, self.grid) == (other.kind, other.level, other.grid)
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.ends, other.ends)
            and len(self.level_sets) == len(other.level_sets)
            and all(map(np.array_equal, self.level_sets, other.level_sets))
        )

    def __hash__(self):
        return hash((self.kind, self.level, self.grid, self.n, len(self.ends)))

    def coordinates(self) -> tuple:
        """Exact rational coordinate pairs (affine basis for the gasket)."""
        g = self.grid
        return tuple((Fraction(a, g), Fraction(b, g)) for a, b in self.points.tolist())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def to_xy(graph: FractalGraph) -> np.ndarray:
    """Planar float embedding; gasket basis vectors are (1,0) and (1/2, sqrt3/2)."""
    pts = graph.points / graph.grid
    if graph.kind == "gasket":
        x = pts[:, 0] + 0.5 * pts[:, 1]
        y = pts[:, 1] * (3.0**0.5 / 2.0)
        return np.column_stack([x, y])
    return pts


def _guard(count: int, what: str):
    if count > MAX_VERTICES:
        raise ValueError(f"level needs {what}, above the {MAX_VERTICES} cap")


class _CellCorners:
    """The corners of a fractal's cells, as integer keys x * side + y on
    the level-m grid.

    Cells are addressed by words over the template's offsets (first
    letter slowest, letters in offset order).  Vertices are the corners
    of the level-m cells in order of first appearance, cells in address
    order and each cell's corners in `corners` order.
    """

    def __init__(self, k: int, offsets, corners, m: int):
        ox, oy = np.array(offsets, dtype=np.int64).T
        # lower-left corners of the level-j cells for j = 0..m, in units of k^-j
        self.bases = [(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))]
        for _ in range(m):
            bx, by = self.bases[-1]
            self.bases.append(((bx[:, None] * k + ox).ravel(), (by[:, None] * k + oy).ravel()))
        self.k, self.m = k, m
        self.cx, self.cy = np.array(corners, dtype=np.int64).T
        self.side = k**m + 1
        self.keys = self.corner_keys(m)
        self.uniq, first = np.unique(self.keys, return_index=True)
        self.vkeys = self.keys[np.sort(first)]
        self.n = len(self.vkeys)
        self.vid = np.empty(self.n, dtype=np.int64)
        self.vid[np.searchsorted(self.uniq, self.vkeys)] = np.arange(self.n)

    def corner_keys(self, j: int) -> np.ndarray:
        """Keys of every level-j cell's corners, cell by cell, on the level-m grid."""
        bx, by = self.bases[j]
        scale = self.k ** (self.m - j)
        x = (bx[:, None] + self.cx) * scale
        y = (by[:, None] + self.cy) * scale
        return (x * self.side + y).ravel()

    def lookup(self, q: np.ndarray) -> np.ndarray:
        """Vertex index of each key in q, or -1 where q is no vertex."""
        r = np.minimum(np.searchsorted(self.uniq, q), len(self.uniq) - 1)
        return np.where(self.uniq[r] == q, self.vid[r], -1)

    def points(self) -> np.ndarray:
        """The vertices' (x, y) grid pairs, in vertex order."""
        return np.column_stack(np.divmod(self.vkeys, self.side))

    def level_sets(self) -> tuple:
        """Level j keeps the corners of the level-j cells; level m keeps all."""
        sets = []
        for j in range(self.m):
            keep = np.zeros(self.n, dtype=bool)
            keep[self.lookup(self.corner_keys(j))] = True
            sets.append(np.flatnonzero(keep))
        return (*sets, np.arange(self.n))


def _sorted_pairs(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Edges (min, max) of each pair i, j, rows sorted."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    key = np.sort(lo * n + hi)
    return np.column_stack(np.divmod(key, n))


def gasket_graph(m: int) -> FractalGraph:
    """Level-m gasket graph: three half-scale copies glued at corners.

    Cells are addressed by words over the three corner maps, and built
    with array operations as `carpet_graph` builds carpet cells.
    Vertices come in order of first appearance among the cells' corners
    (x, y), (x + 1, y), (x, y + 1); each level-m cell contributes its
    three sides as edges, sorted index pairs; level j keeps the corners
    of the level-j cells.
    """
    if m < 0:
        raise ValueError("level must be >= 0")
    count = (3 ** (m + 1) + 3) // 2
    _guard(count, f"about {count} vertices")
    cells = _CellCorners(2, ((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (0, 1)), m)
    c0, c1, c2 = cells.lookup(cells.keys).reshape(-1, 3).T
    ends = _sorted_pairs(np.concatenate([c0, c1, c2]), np.concatenate([c1, c2, c0]), cells.n)
    return FractalGraph("gasket", m, 2**m, cells.points(), ends, cells.level_sets())


def carpet_graph(template: CarpetTemplate, m: int) -> FractalGraph:
    """Level-m carpet graph: corners of kept cells, edges at distance k^-m.

    Built with array operations. Vertices come in order of first
    appearance among the cells' corners, cells in address order; edges
    are sorted index pairs; level j keeps the corners of the level-j
    cells.
    """
    bad = validate_carpet_template(template)
    if bad:
        raise ValueError("invalid carpet template: " + "; ".join(bad))
    if m < 0:
        raise ValueError("level must be >= 0")
    k = template.k
    # the guard counts the key arrays the build allocates: 4 corners a cell
    count = 4 * len(template.cells) ** m
    _guard(count, f"{count} cell corners")
    offsets = sorted((i - 1, j - 1) for i, j in template.cells)
    cells = _CellCorners(k, offsets, ((0, 0), (1, 0), (0, 1), (1, 1)), m)
    grid, points = k**m, cells.points()
    ii, jj = [], []
    for step, inside in ((cells.side, points[:, 0] < grid), (1, points[:, 1] < grid)):  # right, up
        i = np.flatnonzero(inside)
        j = cells.lookup(cells.vkeys[i] + step)
        hit = j >= 0
        ii.append(i[hit])
        jj.append(j[hit])
    ends = _sorted_pairs(np.concatenate(ii), np.concatenate(jj), cells.n)
    return FractalGraph("carpet", m, grid, points, ends, cells.level_sets())


def corner_indices(graph: FractalGraph) -> tuple:
    """Outer corners in canonical order (3 for the gasket, 4 for the carpet).

    A graph with no vertex at some corner point raises ValueError.
    """
    g = graph.grid
    if graph.kind == "gasket":
        want = ((0, 0), (g, 0), (0, g))
    else:
        want = ((0, 0), (g, 0), (0, g), (g, g))
    x, y = graph.points.T
    out = []
    for p in want:
        hit = np.flatnonzero((x == p[0]) & (y == p[1]))
        if not hit.size:
            raise ValueError(f"the {graph.kind} graph has no vertex at corner point {p}")
        out.append(int(hit[0]))
    return tuple(out)


def uniform_network(graph: FractalGraph, mode: str = "rational") -> ElectricalNetwork:
    """Unit conductances on the graph's edges; the walk is the SRW."""
    m = len(graph.ends)
    ones = np.ones(m) if mode == "double" else (Fraction(1),) * m
    return ElectricalNetwork._from_arrays(range(graph.n), graph.ends, ones, mode)


def adjacency_arrays(graph: FractalGraph):
    """CSR-style neighbor arrays (indptr, neighbors) for fast sampling.

    Each vertex's neighbours are sorted, which makes sampling order
    reproducible.
    """
    a, b = graph.ends.T
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=graph.n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


def graph_to_text(graph: FractalGraph) -> tuple:
    """(vertex file, edge file) per the export format."""
    coords = graph.coordinates()
    vlines = [
        f"{i} {c[0].numerator} {c[0].denominator} {c[1].numerator} {c[1].denominator}"
        for i, c in enumerate(coords)
    ]
    elines = [f"{a} {b}" for a, b in graph.ends.tolist()]
    return "\n".join(vlines) + "\n", "\n".join(elines) + "\n"


def carpet_traces(template: CarpetTemplate, levels: Iterable, keep: str = "corners") -> dict:
    """Each carpet level's unit network traced onto a few of its points,
    without building the graph.

    keep="corners" keeps the four outer corners, in `corner_indices`
    order; keep="cells" keeps the corners of the level-1 cells (V_1,
    levels >= 1), sorted.  Returns {m: ElectricalNetwork} for each m in
    levels; the vertices are the kept points as grid pairs over k^m, and
    the conductances are doubles.

    Traces compose (the compatible networks of Kigami, *Analysis on
    Fractals*, ch. 2).  Let T_j be the level-j network, with conductance
    1/2 on the unit segments along its outer square, traced onto the
    4 k^j points of that square; T_0 is the unit square with four half
    edges.  A copy of T_j on each template cell gives the level-(j+1)
    network once conductances are summed: a side two copies share gets
    1/2 + 1/2, and every other side gets another 1/2, those on the outer
    square only at the last glue.  The level-1 graph also joins two cell
    corners along a unit segment between two removed cells (a plus-shaped
    hole has such segments); the glues of T_0 add those edges.
    T_0..T_{M-1} are built once per call, in increasing order, and level
    m is read off one last glue of copies of T_{m-1}.

    Each glue eliminates every point it does not keep, on dense
    Laplacians (`network._dense_trace`): the points in one copy only
    inside that copy first, then the front the copies share.  Copies
    that an isometry of the square carries onto each other are traced
    once, as `_CarpetGlue` describes: the standard carpet's glues trace
    2 copies, not 8.  Every traced copy is made before the glued front
    is allocated, and T_{m-1} is freed in between when that glue is its
    last use.  Each elimination
    overwrites its own blocks and nothing else: the front block holds
    its Cholesky factor until it is restored from its lower triangle for
    the residual check, and the kept block becomes the trace.  A glue
    whose dense front would exceed MAX_DENSE_FRONT points raises
    ValueError before anything is built.  There is no rational mode:
    exact values come from tracing the whole graph, which is faster, as
    exact dense fronts fill with big integers (`limits.resistance_scaling`).
    """
    bad = validate_carpet_template(template)
    if bad:
        raise ValueError("invalid carpet template: " + "; ".join(bad))
    if keep not in ("corners", "cells"):
        raise ValueError(f"unknown kept set {keep!r}")
    ms = sorted(set(levels))
    lowest = 1 if keep == "cells" else 0
    if not ms or ms[0] < lowest:
        raise ValueError(f"need levels >= {lowest}")
    k, cells = template.k, sorted(template.cells)
    builds = [_CarpetGlue(k, cells, k**j, "boundary", last=False) for j in range(ms[-1] - 1)]
    # level 0 is one copy of T_0 on a one-cell template
    lasts = {
        m: _CarpetGlue(k, cells, k ** (m - 1), keep, last=True) if m else _CarpetGlue(1, [(1, 1)], 1, keep, last=True)
        for m in ms
    }
    size = max(glue.size for glue in [*builds, *lasts.values()])
    if size > MAX_DENSE_FRONT:
        raise ValueError(
            f"carpet level {ms[-1]} needs a dense front of {size} points"
            f" ({8 * size**2 / 1e9:.1f} GB), above the {MAX_DENSE_FRONT} cap"
        )
    lap = np.zeros((4, 4))
    ring = np.arange(4)
    _add_edges(lap, ring, (ring + 1) % 4, 0.5)  # T_0
    out = {}
    for m in range(ms[-1] + 1):
        # a glue's copies are all traced before its front is allocated,
        # and T_{m-1} is dropped in between when that glue is its last use
        if m in lasts:
            copies = lasts[m].trace_copies(lap)
            if m == ms[-1]:
                del lap
            out[m] = lasts[m].network(lasts[m].run(copies))
        if 1 <= m < ms[-1]:
            copies = builds[m - 1].trace_copies(lap)
            del lap
            lap = builds[m - 1].run(copies)  # T_m from T_{m-1}
    return out


_SIDE_STEPS = ((0, -1), (1, 0), (0, 1), (-1, 0))  # bottom, right, top, left


def _square_boundary(s: int) -> np.ndarray:
    """The 4s grid points on the boundary of [0, s]^2, counter-clockwise
    from (0, 0): points i and i + 1 (mod 4s) end a unit segment, and
    side d of `_SIDE_STEPS` holds segments d*s .. d*s + s - 1."""
    t = np.arange(s)
    flat, top = np.zeros(s, dtype=np.int64), np.full(s, s)
    return np.column_stack([np.concatenate([t, top, s - t, flat]), np.concatenate([flat, t, top, s - t])])


def _open_sides(k: int, cells: list, last: bool) -> list:
    """Per cell, the sides that no other cell shares and that get a
    second 1/2: those facing a removed cell, and at the last glue those
    on the outer square."""
    kept = set(cells)
    return [
        [
            d
            for d, (di, dj) in enumerate(_SIDE_STEPS)
            if (i + di, j + dj) not in kept and (last or (1 <= i + di <= k and 1 <= j + dj <= k))
        ]
        for i, j in cells
    ]


def _cell_orbits(k: int, cells: list) -> list:
    """The cells of a side-k template, which must be invariant under
    `_SQUARE_MAPS`, grouped into orbits under those maps.  Each orbit is
    a list of (cell, map) pairs, cells as indices into cells: its first
    cell is the representative, with the identity, and each map of
    `_SQUARE_MAPS` carries the representative onto its cell.  Every cell
    is in one orbit."""
    index = {c: n for n, c in enumerate(cells)}
    orbits, seen = [], set()
    for i, j in cells:
        orbit = []
        for g, f in enumerate(_SQUARE_MAPS):
            c = index[f(i, j, k + 1)]
            if c not in seen:
                seen.add(c)
                orbit.append((c, g))
        if orbit:
            orbits.append(orbit)
    return orbits


def _boundary_maps(s: int) -> list:
    """Per map of `_SQUARE_MAPS` on [0, s]^2, where it sends the points of
    `_square_boundary(s)`, as an index array into that order."""
    b = _square_boundary(s)
    keys = b[:, 0] * (s + 1) + b[:, 1]
    order = np.argsort(keys)
    maps = []
    for f in _SQUARE_MAPS:
        x, y = f(b[:, 0], b[:, 1], s)
        maps.append(order[np.searchsorted(keys, x * (s + 1) + y, sorter=order)])
    return maps


def _add_edges(lap: np.ndarray, a, b, c):
    """Add conductance c between each pair a[i], b[i] of the Laplacian lap, in place."""
    np.add.at(lap, (a, b), -c)
    np.add.at(lap, (b, a), -c)
    np.add.at(lap, (a, a), c)
    np.add.at(lap, (b, b), c)


class _CarpetGlue:
    """One glue: a copy of a boundary trace on each template cell, traced
    onto the kept points.

    A copy has side s on the grid of the glued square, whose side is
    k*s.  The glued points are the copies' boundary points, numbered in
    key order (x, then y).  keep is "boundary" (the outer square, in
    `_square_boundary` order), "corners" or "cells" (every copy corner).
    Only the shapes are worked out here, so every glue of a call can be
    checked against MAX_DENSE_FRONT before any is run.

    The template, and with it the glue, is invariant under the square's
    eight isometries, and so is the boundary trace the copies are made
    of.  An isometry of the glued square that carries cell c onto cell
    c' carries copy c onto copy c', its private, front and kept points
    and its open sides included, and acts on the copies' local boundary
    points by an index map of `_boundary_maps(s)`.  So only the first
    copy of each orbit of `_cell_orbits` is traced; `orbits` holds, per
    orbit, every member's glued points in the representative's local
    order, through which `run` adds the one traced block at each member's
    own positions.  The standard carpet's glues trace 2 copies, not 8.
    """

    def __init__(self, k: int, cells: list, s: int, keep: str, last: bool):
        side = k * s
        pts = _square_boundary(s)[None] + (np.array(cells) - 1)[:, None] * s
        keys, ids = np.unique(pts[..., 0] * (side + 1) + pts[..., 1], return_inverse=True)
        self.points = np.column_stack(np.divmod(keys, side + 1))
        self.n = len(keys)
        self.copies = ids.reshape(len(cells), 4 * s)
        self.tops = []
        for sides in _open_sides(k, cells, last):
            seg = np.array([d * s + t for d in sides for t in range(s)], dtype=np.int64)
            self.tops.append((seg, (seg + 1) % (4 * s)))
        maps = _boundary_maps(s)
        # per orbit: (representative, its members' glued points, one row
        # each, in the representative's local order)
        self.orbits = [
            (orbit[0][0], np.stack([self.copies[c][maps[g]] for c, g in orbit]))
            for orbit in _cell_orbits(k, cells)
        ]
        blocks = list(self.copies)
        self.extra = None
        if s == 1:
            # the level-1 graph also joins two cell corners along a
            # segment that no kept cell has as a side (between two
            # removed cells); deeper such segments have no inner points
            extra = self._extra_edges(side, keys)
            if len(extra[0]):
                self.extra = extra
                blocks.append(extra[0])
        if keep == "boundary":
            want = _square_boundary(side)
        elif keep == "corners":
            want = np.array([(0, 0), (side, 0), (0, side), (side, side)])
        else:
            want = self.points[(self.points % s == 0).all(1)]
        self.keep = np.searchsorted(keys, want[:, 0] * (side + 1) + want[:, 1])
        kept = np.zeros(self.n, dtype=bool)
        kept[self.keep] = True
        shared = np.bincount(np.concatenate(blocks), minlength=self.n) > 1
        self.front = np.flatnonzero(shared & ~kept)
        self.size = len(self.front) + len(self.keep)
        # each point's row in the glued Laplacian, front then kept; -1
        # for the points of one copy only
        self.pos = np.full(self.n, -1)
        self.pos[np.concatenate([self.front, self.keep])] = np.arange(self.size)

    def _extra_edges(self, side: int, keys: np.ndarray):
        """(points, ends a, ends b) of the unit segments between glued
        points that are no copy's side, ends as positions in points."""
        x, y = self.points.T
        cand = []
        for step, ok in ((side + 1, x < side), (1, y < side)):
            p = np.flatnonzero(ok)
            q = np.searchsorted(keys, keys[p] + step)
            hit = keys[np.minimum(q, self.n - 1)] == keys[p] + step
            cand.append(p[hit] * self.n + q[hit])
        cand = np.concatenate(cand)
        a, b = self.copies, np.roll(self.copies, -1, axis=1)
        sides = (np.minimum(a, b) * self.n + np.maximum(a, b)).ravel()
        lo, hi = np.divmod(cand[~np.isin(cand, sides)], self.n)
        pts = np.union1d(lo, hi)
        return pts, np.searchsorted(pts, lo), np.searchsorted(pts, hi)

    def trace_copies(self, lap: np.ndarray) -> list:
        """The representative copy of each orbit, the boundary-trace
        Laplacian lap with its second halves, traced inside itself onto
        its points that are kept or shared, then the extra edges: a list
        of `_traced_copy` pairs, in orbit order."""
        blocks = [(self.copies[c], lap, *self.tops[c], 0.5) for c, _ in self.orbits]
        if self.extra is not None:
            ids, a, b = self.extra
            blocks.append((ids, np.zeros((len(ids), len(ids))), a, b, 1.0))
        return [self._traced_copy(self.pos[ids], base, a, b, c) for ids, base, a, b, c in blocks]

    def run(self, traced: list) -> np.ndarray:
        """The Laplacian on the kept points, in keep order, of the traced
        copies glued.

        Each traced block is added, at the positions of every member of
        its orbit in turn, into the three blocks of the glued Laplacian:
        front x front (in Fortran order), front x kept and kept x kept.
        The representative's rows are in position order, front first, and
        the isometries carry front points onto front points, so every
        member's first rows are its front rows.  traced is emptied on the
        way, so each block is freed once its orbit is added.  The front
        is then eliminated by `_dense_trace`, which overwrites the
        blocks."""
        nf, nk = len(self.front), len(self.keep)
        ff = np.zeros((nf, nf), order="F")
        fk = np.zeros((nf, nk))
        kk = np.zeros((nk, nk))
        placed = [ids for _, ids in self.orbits]
        if self.extra is not None:
            placed.append(self.extra[0][None])
        traced.reverse()
        for ids in placed:
            rows, block = traced.pop()
            at = self.pos[ids[:, rows]]
            q = np.searchsorted(at[0], nf)
            for p in at:
                f, k = p[:q], p[q:] - nf
                ff[np.ix_(f, f)] += block[:q, :q]
                fk[np.ix_(f, k)] += block[:q, q:]
                kk[np.ix_(k, k)] += block[q:, q:]
        return _dense_trace(ff, fk, kk)

    @staticmethod
    def _traced_copy(p: np.ndarray, base: np.ndarray, a, b, c) -> tuple:
        """(rows, Laplacian) of one copy traced onto its points that are
        not private (position -1 in p), rows giving each of the
        Laplacian's rows as an index into p, in position order, which
        puts the front first.

        The copy's Laplacian is base with conductance c added on the
        pairs a, b, gathered private points first; the rest keep their
        order in p while the private points are eliminated (which sets
        the rounding of each row sum), and are then ordered by position.
        A copy without private points is gathered in that order at once."""
        private = p < 0
        n = int(private.sum())
        rows = np.argsort(~private if n else p, kind="stable")
        at = np.empty_like(rows)
        at[rows] = np.arange(len(rows))
        block = base[np.ix_(rows, rows)]
        _add_edges(block, at[a], at[b], c)
        if n:
            block = _dense_trace(np.asfortranarray(block[:n, :n]), block[:n, n:], block[n:, n:])
            rows = rows[n:]
            order = np.argsort(p[rows], kind="stable")
            block, rows = block[np.ix_(order, order)], rows[order]
        return rows, block

    def network(self, lap: np.ndarray) -> ElectricalNetwork:
        """The kept points, as grid pairs, joined by the conductances of lap."""
        i, j = np.nonzero(np.triu(lap != 0, 1))
        vertices = map(tuple, self.points[self.keep].tolist())
        return ElectricalNetwork._from_arrays(vertices, np.column_stack([i, j]), -lap[i, j], "double")
