"""Fractal graph generators: counts, nesting, symmetry, template rules."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import lerw.fractal
from lerw.fractal import (
    CarpetTemplate,
    FractalGraph,
    adjacency_arrays,
    carpet_graph,
    carpet_traces,
    corner_indices,
    gasket_graph,
    graph_to_text,
    standard_carpet,
    template_from_text,
    template_to_text,
    to_xy,
    uniform_network,
    validate_carpet_template,
)
from lerw.network import ElectricalNetwork, effective_resistance, laplacian, trace_network

from _gen import path_stub


def reference_carpet_graph(template: CarpetTemplate, m: int) -> FractalGraph:
    """The dict-and-set carpet builder that `carpet_graph` vectorizes:
    vertices are the cells' corners in order of first appearance, an edge
    joins two vertices at distance 1, and level j keeps the corners of
    the level-j cells."""
    k = template.k
    offsets = sorted((i - 1, j - 1) for i, j in template.cells)

    def bases(depth: int) -> list:
        out = [(0, 0)]
        for _ in range(depth):
            out = [(x * k + dx, y * k + dy) for x, y in out for dx, dy in offsets]
        return out

    index: dict = {}
    vertices: list = []
    for x, y in bases(m):
        for p in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
            if p not in index:
                index[p] = len(vertices)
                vertices.append(p)
    edges = set()
    for (x, y), i in index.items():
        for q in ((x + 1, y), (x, y + 1)):
            j = index.get(q)
            if j is not None:
                edges.add((i, j) if i < j else (j, i))
    nested = []
    for j in range(m + 1):
        scale = k ** (m - j)
        level = set()
        for x, y in bases(j):
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                level.add(index[((x + dx) * scale, (y + dy) * scale)])
        nested.append(frozenset(level))
    return FractalGraph("carpet", m, k**m, tuple(vertices), tuple(sorted(edges)), tuple(nested))


def reference_gasket_graph(m: int) -> FractalGraph:
    """The recursive gasket builder that `gasket_graph` vectorizes: cells
    are visited depth first, children in corner-map order, each unit
    cell adds its corners (x, y), (x + 1, y), (x, y + 1) in order of
    first appearance and its three sides as edges, and level j keeps the
    corners of the level-j cells."""
    grid = 2**m
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

    cell((0, 0), grid)
    nested = []
    for j in range(m + 1):
        step = 2 ** (m - j)
        level: set = set()

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


def reference_adjacency_arrays(graph: FractalGraph):
    """The edge loop `adjacency_arrays` vectorizes: degrees counted per
    edge end, neighbours filled in edge order, then each list sorted."""
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
    for i in range(graph.n):
        nbr[indptr[i] : indptr[i + 1]].sort()
    return indptr, nbr


def assert_matches_reference(g: FractalGraph, ref: FractalGraph):
    """The array graph's views, corners and embedding equal those of the
    tuple-built reference, computed from its tuples."""
    assert g.vertices == ref.vertices
    assert g.edges == ref.edges
    assert g.nested == ref.nested
    assert g == ref
    pos = {p: i for i, p in enumerate(ref.vertices)}
    d = ref.grid
    want = ((0, 0), (d, 0), (0, d)) if ref.kind == "gasket" else ((0, 0), (d, 0), (0, d), (d, d))
    assert corner_indices(g) == tuple(pos[p] for p in want)
    pts = np.array(ref.vertices, dtype=float) / d
    if ref.kind == "gasket":
        pts = np.column_stack([pts[:, 0] + 0.5 * pts[:, 1], pts[:, 1] * (3.0**0.5 / 2.0)])
    assert np.array_equal(to_xy(g), pts)


def ring_template(k: int) -> CarpetTemplate:
    """The side-k border ring: every cell on the border, the rest removed."""
    cells = frozenset(
        (i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i in (1, k) or j in (1, k)
    )
    return CarpetTemplate(k, cells)


def plus_template() -> CarpetTemplate:
    """k=5 with a plus-shaped hole: at level 1 the graph joins two cell
    corners along segments between two removed cells."""
    hole = {(3, 2), (2, 3), (3, 3), (4, 3), (3, 4)}
    return CarpetTemplate(5, frozenset(product(range(1, 6), repeat=2)) - hole)


class TestGasket:
    def test_counts(self):
        for m in range(4):
            g = gasket_graph(m)
            assert g.n == (3 ** (m + 1) + 3) // 2
            assert len(g.edges) == 3 ** (m + 1)

    def test_m0_is_triangle(self):
        g = gasket_graph(0)
        assert g.vertices == ((0, 0), (1, 0), (0, 1))
        assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]

    def test_nested_sets(self):
        g = gasket_graph(3)
        sizes = [len(s) for s in g.nested]
        assert sizes == [(3 ** (j + 1) + 3) // 2 for j in range(4)]
        for small, big in zip(g.nested, g.nested[1:]):
            assert small < big
        assert g.nested[3] == frozenset(range(g.n))

    def test_no_duplicate_coordinates(self):
        g = gasket_graph(4)
        assert len(set(g.vertices)) == g.n
        assert g.grid == 16

    def test_triangle_symmetries_preserve_graph(self):
        for m in range(4):
            g = gasket_graph(m)
            pos = {p: i for i, p in enumerate(g.vertices)}
            d = g.grid
            swap = lambda a, b: (b, a)
            rot = lambda a, b: (d - a - b, a)
            for f in (swap, rot):
                perm = [pos[f(*p)] for p in g.vertices]
                assert sorted(perm) == list(range(g.n))
                mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
                assert mapped == set(g.edges)

    def test_guard(self, monkeypatch):
        # the gasket guard counts vertices exactly: 42 at level 3
        monkeypatch.setattr(lerw.fractal, "MAX_VERTICES", 10)
        with pytest.raises(ValueError, match=r"^level needs about 42 vertices, above the 10 cap$"):
            gasket_graph(3)

    @pytest.mark.parametrize("m", range(7))
    def test_equals_reference_builder(self, m):
        assert_matches_reference(gasket_graph(m), reference_gasket_graph(m))

    def test_to_xy_unit_sides(self):
        g = gasket_graph(1)
        xy = to_xy(g)
        for a, b in g.edges:
            assert abs(np.hypot(*(xy[a] - xy[b])) - 0.5) < 1e-12


class TestTemplates:
    def test_standard_ok(self):
        assert validate_carpet_template(standard_carpet()) == []

    def test_corner_removed(self):
        cells = frozenset(c for c in standard_carpet().cells if c != (1, 1))
        bad = validate_carpet_template(CarpetTemplate(3, cells))
        assert any("Borders" in v for v in bad)
        assert any("Symmetry" in v for v in bad)

    def test_diagonal_block(self):
        k = 4
        border = {
            (i, j)
            for i in range(1, 5)
            for j in range(1, 5)
            if i in (1, 4) or j in (1, 4)
        }
        bad = validate_carpet_template(CarpetTemplate(k, frozenset(border | {(2, 2), (3, 3)})))
        assert any("Nondiagonality" in v for v in bad)

    def test_disconnected_center(self):
        k = 5
        border = {
            (i, j)
            for i in range(1, 6)
            for j in range(1, 6)
            if i in (1, 5) or j in (1, 5)
        }
        bad = validate_carpet_template(CarpetTemplate(k, frozenset(border | {(3, 3)})))
        assert bad == ["Connected: kept cells fall apart"]

    def test_cell_count_bounds(self):
        full = frozenset((i, j) for i in range(1, 4) for j in range(1, 4))
        assert any("cell count" in v for v in validate_carpet_template(CarpetTemplate(3, full)))

    def test_text_roundtrip(self):
        t = standard_carpet()
        assert template_from_text(template_to_text(t)) == t

    def test_text_format(self):
        # the side, then one kept cell per line as column and row; "#"
        # starts a comment
        text = "# the standard carpet\n3\n\n" + "".join(
            f"{i} {j}  # kept\n" for i in range(1, 4) for j in range(1, 4) if (i, j) != (2, 2)
        )
        assert template_from_text(text) == standard_carpet()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n1 1 1\n", "template line 2: expected a kept cell as 'i j', got '1 1 1'"),
            ("# side\nthree\n1 1\n", "template line 2: expected the side k, got 'three'"),
            ("3 3\n", "template line 1: expected the side k, got '3 3'"),
            ("3\n1 1\n\n.#.\n", "template line 4: expected a kept cell as 'i j', got '.#.'"),
            ("3\n1 x # cell\n", "template line 2: expected a kept cell as 'i j', got '1 x # cell'"),
            ("# nothing\n\n", "empty template file"),
        ],
    )
    def test_malformed_text_names_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            template_from_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("###\n#.#\n###\n", "empty template file; line 1 '###' is a comment"),
            ("3\n# a drawn carpet\n\n #.#\n.#.\n",
             "template line 5: expected a kept cell as 'i j', got '.#.'; line 4 '#.#' is a comment"),
        ],
    )
    def test_drawn_grid_refusal_names_its_row(self, text, message):
        # a grid of "#" and "." reads as comments, so the refusal names
        # its first such row and the "i j" form
        with pytest.raises(ValueError) as info:
            template_from_text(text)
        form = ": a template lists each kept cell as its column and row, 'i j', not as a drawn grid"
        assert str(info.value) == message + form


class TestCarpet:
    def test_m0_square(self):
        g = carpet_graph(standard_carpet(), 0)
        assert g.n == 4 and len(g.edges) == 4

    def test_m1_sixteen_vertices(self):
        g = carpet_graph(standard_carpet(), 1)
        assert g.n == 16
        assert len(g.edges) == 24

    def test_matches_digit_oracle(self):
        # independent route: a grid point is a vertex iff some incident
        # cell survives the base-k digit test on both coordinates
        tpl = standard_carpet()
        k, m = tpl.k, 2
        g = carpet_graph(tpl, m)
        side = k**m

        def kept(cx, cy):
            if not (0 <= cx < side and 0 <= cy < side):
                return False
            for _ in range(m):
                if (cx % k + 1, cy % k + 1) not in tpl.cells:
                    return False
                cx //= k
                cy //= k
            return True

        expect = set()
        for x, y in product(range(side + 1), repeat=2):
            if any(kept(x - dx, y - dy) for dx, dy in product((0, 1), repeat=2)):
                expect.add((x, y))
        assert set(g.vertices) == expect
        for a, b in g.edges:
            (x1, y1), (x2, y2) = g.vertices[a], g.vertices[b]
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 == 1

    def test_nested_sets(self):
        g = carpet_graph(standard_carpet(), 3)
        for small, big in zip(g.nested, g.nested[1:]):
            assert small < big
        assert len(g.nested[0]) == 4
        assert len(g.nested[1]) == 16
        assert g.nested[3] == frozenset(range(g.n))

    def test_square_symmetries_preserve_graph(self):
        g = carpet_graph(standard_carpet(), 2)
        pos = {p: i for i, p in enumerate(g.vertices)}
        d = g.grid
        maps = [
            lambda a, b: (d - a, b),
            lambda a, b: (a, d - b),
            lambda a, b: (b, a),
            lambda a, b: (d - b, d - a),
        ]
        for f in maps:
            perm = [pos[f(*p)] for p in g.vertices]
            assert sorted(perm) == list(range(g.n))
            mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
            assert mapped == set(g.edges)

    def test_invalid_template_rejected(self):
        cells = frozenset(c for c in standard_carpet().cells if c != (1, 1))
        with pytest.raises(ValueError, match="invalid carpet template"):
            carpet_graph(CarpetTemplate(3, cells), 1)

    @pytest.mark.parametrize(
        "template, m",
        [(standard_carpet(), m) for m in range(6)] + [(ring_template(4), m) for m in range(4)],
    )
    def test_equals_reference_builder(self, template, m):
        assert_matches_reference(carpet_graph(template, m), reference_carpet_graph(template, m))

    def test_guard_counts_cell_corners(self):
        # 8^7 cells, 4 corners each: the size of the build's key arrays,
        # not of the vertex set (about 2.6M at level 7)
        with pytest.raises(
            ValueError, match=r"^level needs 8388608 cell corners, above the 5000000 cap$"
        ):
            carpet_graph(standard_carpet(), 7)

    def test_coordinates_exact(self):
        g = carpet_graph(standard_carpet(), 2)
        coords = g.coordinates()
        assert coords[corner_indices(g)[3]] == (Fraction(1), Fraction(1))
        assert all(c[0].denominator in (1, 3, 9) for c in coords)


class TestGraphPlumbing:
    def test_corners(self):
        g = gasket_graph(2)
        ids = corner_indices(g)
        assert len(ids) == 3
        assert g.vertices[ids[0]] == (0, 0)
        c = carpet_graph(standard_carpet(), 1)
        assert len(corner_indices(c)) == 4

    def test_missing_corner_is_named(self):
        g = FractalGraph("carpet", 0, 1, ((0, 0), (1, 0), (0, 1)), ((0, 1), (0, 2)), ({0, 1, 2},))
        with pytest.raises(ValueError, match=r"no vertex at corner point \(1, 1\)"):
            corner_indices(g)

    @pytest.mark.parametrize(
        "graph",
        [gasket_graph(m) for m in range(5)]
        + [carpet_graph(standard_carpet(), m) for m in range(4)]
        + [path_stub(2), path_stub(3), path_stub(3, edges=((0, 1),)), path_stub(4, edges=((0, 1), (2, 3)))],
        ids=lambda g: f"{g.kind}-{g.level}-n{g.n}-e{len(g.ends)}",
    )
    def test_adjacency_matches_edge_loop(self, graph):
        indptr, nbr = adjacency_arrays(graph)
        ref_indptr, ref_nbr = reference_adjacency_arrays(graph)
        for got, want in ((indptr, ref_indptr), (nbr, ref_nbr)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_views_are_read_only_and_cached(self):
        g = carpet_graph(standard_carpet(), 2)
        for name in ("vertices", "edges", "nested"):
            assert getattr(g, name) is getattr(g, name)
        for a in (g.points, g.ends, *g.level_sets):
            assert not a.flags.writeable
        # the tuple form builds an equal graph holding arrays only
        h = FractalGraph(g.kind, g.level, g.grid, g.vertices, g.edges, g.nested)
        assert h == g and hash(h) == hash(g)
        assert not {"vertices", "edges", "nested"} & set(vars(h))

    def test_uniform_network_gasket_m0(self):
        net = uniform_network(gasket_graph(0))
        assert effective_resistance(net, 0, 1) == Fraction(2, 3)

    def test_degrees_match(self):
        g = carpet_graph(standard_carpet(), 1)
        net = uniform_network(g)
        indptr, nbr = adjacency_arrays(g)
        for v in range(g.n):
            row = nbr[indptr[v] : indptr[v + 1]]
            assert sorted(row) == list(row)
            assert len(row) == len(net.neighbors(v))

    @pytest.mark.parametrize("mode", ["rational", "double"])
    @pytest.mark.parametrize("kind, m", [(kind, m) for kind in ("gasket", "carpet") for m in range(4)])
    def test_uniform_network_matches_dict_built(self, kind, m, mode):
        g = gasket_graph(m) if kind == "gasket" else carpet_graph(standard_carpet(), m)
        one = Fraction(1) if mode == "rational" else 1.0
        cond = {frozenset(e): one for e in g.edges}
        ref = ElectricalNetwork(tuple(range(g.n)), cond, mode)
        net = uniform_network(g, mode)
        assert net.vertices == ref.vertices == tuple(range(g.n))
        assert list(net.conductances.items()) == list(ref.conductances.items()) == list(cond.items())
        # neighbours in edge order and weights summed in edge order, as
        # the dict and the edge list give them
        adj = {v: [] for v in range(g.n)}
        for a, b in g.edges:
            adj[a].append((b, one))
            adj[b].append((a, one))
        for v in range(g.n):
            assert net.neighbors(v) == ref.neighbors(v) == tuple(adj[v])
            want = sum(c for _, c in adj[v])
            assert net.weight(v) == ref.weight(v) == want
            assert type(net.weight(v)) is type(ref.weight(v)) is type(want)
        lap, lap_ref = laplacian(net), laplacian(ref)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lap, part), getattr(lap_ref, part))
        dense = np.zeros((g.n, g.n))
        for a, b in g.edges:
            dense[[a, b], [b, a]] = -1.0
        dense[np.diag_indices(g.n)] = -dense.sum(1)
        assert np.array_equal(lap.toarray(), dense)

    def test_uniform_network_rejects_bad_edges(self):
        def stub(edges, n=3):
            verts = tuple((i, 0) for i in range(n))
            return FractalGraph("carpet", 0, 1, verts, tuple(edges), (frozenset(range(n)),))

        for edges, msg in (
            ([(0, 1), (1, 1), (1, 2)], r"frozenset\(\{1\}\) is not an unordered pair"),
            ([(0, 1), (1, 5)], r"\(1, 5\) leaves the vertex set"),
            ([(0, 1), (1, 2), (2, 1)], "duplicate edge 1-2"),
            ([(0, 1)], "not connected"),
        ):
            for mode in ("rational", "double"):
                with pytest.raises(ValueError, match=msg):
                    uniform_network(stub(edges), mode)

    def test_export_format(self):
        g = gasket_graph(1)
        vtext, etext = graph_to_text(g)
        first = vtext.splitlines()[0].split()
        assert first == ["0", "0", "1", "0", "1"]
        assert len(etext.splitlines()) == len(g.edges)


class TestCarpetTraces:
    """Carpet levels traced onto their corners or V_1 from glued boundary
    traces, against the trace of the whole graph."""

    @staticmethod
    def whole_graph(template, m, level_set=None):
        g = carpet_graph(template, m)
        keep = corner_indices(g) if level_set is None else g.level_sets[level_set].tolist()
        traced = trace_network(uniform_network(g, "double"), keep)
        return traced, {v: tuple(g.points[v].tolist()) for v in keep}

    @pytest.mark.parametrize(
        "template, top",
        [(standard_carpet(), 5), (ring_template(4), 3), (plus_template(), 3)],
        ids=["standard", "ring4", "plus"],
    )
    def test_double_corner_resistances_match_whole_graph(self, template, top):
        glued = carpet_traces(template, range(top + 1))
        for m in range(top + 1):
            ref, point = self.whole_graph(template, m)
            corners = list(point)
            for i, j in [(i, j) for i in range(4) for j in range(i + 1, 4)]:
                want = effective_resistance(ref, corners[i], corners[j])
                got = effective_resistance(glued[m], point[corners[i]], point[corners[j]])
                assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "template, top", [(standard_carpet(), 4), (ring_template(4), 3)], ids=["standard", "ring4"]
    )
    def test_cell_corner_traces_match_whole_graph(self, template, top):
        glued = carpet_traces(template, range(1, top + 1), "cells")
        for m in range(1, top + 1):
            ref, point = self.whole_graph(template, m, level_set=1)
            assert glued[m].vertices == tuple(sorted(point.values()))
            for a in ref.vertices:
                for b in ref.vertices:
                    want = ref.conductance(a, b)
                    got = glued[m].conductance(point[a], point[b])
                    assert abs(got - want) <= 1e-12 * ref.weight(a)

    def test_hole_sides_need_their_second_half(self, monkeypatch):
        # negative control: with only the outer square topped up, the
        # four sides around the hole carry 1/2 instead of 1
        def corner_resistance():
            net = carpet_traces(standard_carpet(), [1])[1]
            return effective_resistance(net, (0, 0), (3, 0))

        assert corner_resistance() == pytest.approx(181 / 112, rel=1e-12)

        def outer_only(k, cells, last):
            sides = lerw.fractal._SIDE_STEPS
            return [
                [d for d, (di, dj) in enumerate(sides) if last and not (1 <= i + di <= k and 1 <= j + dj <= k)]
                for i, j in cells
            ]

        monkeypatch.setattr(lerw.fractal, "_open_sides", outer_only)
        assert corner_resistance() == pytest.approx(17 / 10, rel=1e-12)

    def test_dense_front_cap(self, monkeypatch):
        ran = []
        run = lerw.fractal._CarpetGlue.run

        def spy(glue, lap):
            ran.append(glue.size)
            return run(glue, lap)

        monkeypatch.setattr(lerw.fractal._CarpetGlue, "run", spy)
        with pytest.raises(ValueError, match=r"^carpet level 8 needs a dense front of 17\d{3} points \(2\.\d GB\), above the 8000 cap$"):
            carpet_traces(standard_carpet(), [1, 8])
        # level 2 glues at most 32 points, level 3 at most 80 (its last glue)
        monkeypatch.setattr(lerw.fractal, "MAX_DENSE_FRONT", 60)
        carpet_traces(standard_carpet(), [2], "cells")
        with pytest.raises(ValueError, match=r"^carpet level 3 needs a dense front of 80 points \(0\.0 GB\), above the 60 cap$"):
            carpet_traces(standard_carpet(), [3])
        assert len(ran) == 2  # only the level-2 run: T_1, then its last glue

    @pytest.mark.parametrize(
        "levels, keep, match",
        [([], "corners", "need levels >= 0"), ([0, 1], "cells", "need levels >= 1"), ([1], "edges", "unknown kept set")],
    )
    def test_bad_requests_are_named(self, levels, keep, match):
        with pytest.raises(ValueError, match=match):
            carpet_traces(standard_carpet(), levels, keep)
        with pytest.raises(ValueError, match="invalid carpet template"):
            carpet_traces(CarpetTemplate(3, frozenset({(1, 1)})), [1])
