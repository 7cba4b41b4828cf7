"""Sierpinski gasket and carpet graph generators.

Coordinates are exact: integer grid positions with one common power
denominator per level, so vertex dedup and edge detection never touch a
float. The gasket uses the affine basis spanned by two triangle sides
(both basis coordinates are then dyadic rationals); to_xy produces the
planar embedding when a metric needs real positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable

import numpy as np

from .network import ElectricalNetwork

MAX_VERTICES = 5_000_000


@dataclass(frozen=True)
class CarpetTemplate:
    k: int
    cells: frozenset  # (column, row) pairs, 1-based


def standard_carpet() -> CarpetTemplate:
    """k=3 with the center removed."""
    cells = frozenset((i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (2, 2))
    return CarpetTemplate(3, cells)


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

    flips = [
        lambda i, j: (i, j),
        lambda i, j: (k + 1 - i, j),
        lambda i, j: (i, k + 1 - j),
        lambda i, j: (k + 1 - i, k + 1 - j),
        lambda i, j: (j, i),
        lambda i, j: (k + 1 - j, i),
        lambda i, j: (j, k + 1 - i),
        lambda i, j: (k + 1 - j, k + 1 - i),
    ]
    for f in flips:
        if frozenset(f(i, j) for i, j in cells) != cells:
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


def template_from_text(text: str) -> CarpetTemplate:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty template file")
    k = int(rows[0])
    cells = set()
    for line in rows[1:]:
        i, j = line.split()
        cells.add((int(i), int(j)))
    return CarpetTemplate(k, frozenset(cells))


@dataclass(frozen=True)
class FractalGraph:
    kind: str  # "gasket" or "carpet"
    level: int
    grid: int  # common coordinate denominator: 2^m or k^m
    vertices: tuple  # integer (a, b) grid pairs over the denominator
    edges: tuple  # sorted index pairs
    nested: tuple  # frozensets of vertex indices, one per level 0..m

    @property
    def n(self) -> int:
        return len(self.vertices)

    def coordinates(self) -> tuple:
        """Exact rational coordinate pairs (affine basis for the gasket)."""
        g = self.grid
        return tuple((Fraction(a, g), Fraction(b, g)) for a, b in self.vertices)


def to_xy(graph: FractalGraph) -> np.ndarray:
    """Planar float embedding; gasket basis vectors are (1,0) and (1/2, sqrt3/2)."""
    pts = np.array(graph.vertices, dtype=float) / graph.grid
    if graph.kind == "gasket":
        x = pts[:, 0] + 0.5 * pts[:, 1]
        y = pts[:, 1] * (3.0**0.5 / 2.0)
        return np.column_stack([x, y])
    return pts


def _guard(count: int, max_vertices: int):
    if count > max_vertices:
        raise ValueError(f"level needs about {count} vertices, above the {max_vertices} cap")


def gasket_graph(m: int, max_vertices: int = MAX_VERTICES) -> FractalGraph:
    """Level-m gasket graph: three half-scale copies glued at corners.

    Cells are addressed by words over the three corner maps; each level-m
    cell contributes its three sides as edges.
    """
    if m < 0:
        raise ValueError("level must be >= 0")
    _guard((3 ** (m + 1) + 3) // 2, max_vertices)
    grid = 2**m
    corners = ((0, 0), (grid, 0), (0, grid))
    index: dict = {}
    vertices: list = []
    edges: set = set()

    def vid(p) -> int:
        i = index.get(p)
        if i is None:
            i = len(vertices)
            index[p] = i
            vertices.append(p)
        return i

    def cell(base, size):
        (bx, by) = base
        if size == 1:
            ids = [vid((bx, by)), vid((bx + 1, by)), vid((bx, by + 1))]
            for s in range(3):
                a, b = ids[s], ids[(s + 1) % 3]
                edges.add((a, b) if a < b else (b, a))
            return
        half = size // 2
        cell((bx, by), half)
        cell((bx + half, by), half)
        cell((bx, by + half), half)

    if m == 0:
        ids = [vid(c) for c in corners]
        for s in range(3):
            a, b = ids[s], ids[(s + 1) % 3]
            edges.add((a, b) if a < b else (b, a))
    else:
        cell((0, 0), grid)

    nested = []
    for j in range(m + 1):
        step = 2 ** (m - j)
        level: set = set()
        # the level-j vertex set, scaled onto the level-m grid
        def mark(base, size):
            (bx, by) = base
            if size == step:
                for dx, dy in ((0, 0), (size, 0), (0, size)):
                    level.add(index[(bx + dx, by + dy)])
                return
            half = size // 2
            mark((bx, by), half)
            mark((bx + half, by), half)
            mark((bx, by + half), half)

        mark((0, 0), grid)
        nested.append(frozenset(level))
    return FractalGraph("gasket", m, grid, tuple(vertices), tuple(sorted(edges)), tuple(nested))


def carpet_graph(
    template: CarpetTemplate, m: int, max_vertices: int = MAX_VERTICES
) -> FractalGraph:
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
    _guard(4 * len(template.cells) ** m, max_vertices)
    ox, oy = np.array(sorted((i - 1, j - 1) for i, j in template.cells)).T
    # lower-left corners of the level-j cells, for j = 0..m, in the order
    # of the address words (first letter slowest, letters in offset order)
    bases = [(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))]
    for _ in range(m):
        bx, by = bases[-1]
        bases.append(((bx[:, None] * k + ox).ravel(), (by[:, None] * k + oy).ravel()))

    grid = k**m
    side = grid + 1  # point (x, y) has the integer key x * side + y

    def corner_keys(bx, by, scale):
        """Keys of every cell's four corners, cell by cell, on the level-m grid."""
        x = (bx[:, None] + (0, 1, 0, 1)) * scale
        y = (by[:, None] + (0, 0, 1, 1)) * scale
        return (x * side + y).ravel()

    # vertices in order of first appearance among the cell corners
    keys = corner_keys(*bases[m], 1)
    uniq, first = np.unique(keys, return_index=True)
    vkeys = keys[np.sort(first)]
    vid = np.empty(len(uniq), dtype=np.int64)
    vid[np.searchsorted(uniq, vkeys)] = np.arange(len(vkeys))

    def lookup(q):
        """Vertex index of each key in q, or -1 where q is no vertex."""
        r = np.minimum(np.searchsorted(uniq, q), len(uniq) - 1)
        return np.where(uniq[r] == q, vid[r], -1)

    vx, vy = np.divmod(vkeys, side)
    ends = []
    for step, inside in ((side, vx < grid), (1, vy < grid)):  # right, up
        i = np.flatnonzero(inside)
        j = lookup(vkeys[i] + step)
        hit = j >= 0
        ends.append((i[hit], j[hit]))
    a = np.concatenate([np.minimum(i, j) for i, j in ends])
    b = np.concatenate([np.maximum(i, j) for i, j in ends])
    order = np.lexsort((b, a))
    edges = tuple(zip(a[order].tolist(), b[order].tolist()))

    nested = tuple(
        frozenset(lookup(corner_keys(*bases[j], k ** (m - j))).tolist()) for j in range(m + 1)
    )
    vertices = tuple(zip(vx.tolist(), vy.tolist()))
    return FractalGraph("carpet", m, grid, vertices, edges, nested)


def corner_indices(graph: FractalGraph) -> tuple:
    """Outer corners in canonical order (3 for the gasket, 4 for the carpet)."""
    g = graph.grid
    if graph.kind == "gasket":
        want = ((0, 0), (g, 0), (0, g))
    else:
        want = ((0, 0), (g, 0), (0, g), (g, g))
    pos = {p: i for i, p in enumerate(graph.vertices)}
    return tuple(pos[p] for p in want)


def uniform_network(graph: FractalGraph, mode: str = "rational") -> ElectricalNetwork:
    """Unit conductances on the graph's edges; the walk is the SRW."""
    m = len(graph.edges)
    ends = np.fromiter(chain.from_iterable(graph.edges), dtype=np.int64, count=2 * m)
    ones = np.ones(m) if mode == "double" else (Fraction(1),) * m
    return ElectricalNetwork._from_arrays(range(graph.n), ends, ones, mode)


def adjacency_arrays(graph: FractalGraph):
    """CSR-style neighbor arrays (indptr, neighbors) for fast sampling."""
    deg = np.zeros(graph.n + 1, dtype=np.int64)
    for a, b in graph.edges:
        deg[a + 1] += 1
        deg[b + 1] += 1
    indptr = np.cumsum(deg)
    nbr = np.zeros(indptr[-1], dtype=np.int64)
    fill = indptr[:-1].copy()
    for a, b in graph.edges:
        nbr[fill[a]] = b
        fill[a] += 1
        nbr[fill[b]] = a
        fill[b] += 1
    # sorted neighbor lists make sampling order reproducible
    for i in range(graph.n):
        nbr[indptr[i] : indptr[i + 1]].sort()
    return indptr, nbr


def graph_to_text(graph: FractalGraph) -> tuple:
    """(vertex file, edge file) per the export format."""
    coords = graph.coordinates()
    vlines = [
        f"{i} {c[0].numerator} {c[0].denominator} {c[1].numerator} {c[1].denominator}"
        for i, c in enumerate(coords)
    ]
    elines = [f"{a} {b}" for a, b in graph.edges]
    return "\n".join(vlines) + "\n", "\n".join(elines) + "\n"
