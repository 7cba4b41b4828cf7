"""Chain construction, serialization, reachability, and sampling."""

import hashlib
import os
import pickle
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from lerw.chain import (
    WALK_BLOCK_FIRST,
    WALK_BLOCK_MAX,
    MarkovChain,
    StepCapExceeded,
    _cum_row,
    _pair_table,
    _philox_key,
    _row_tables,
    _walk,
    _walk_tables,
    build_chain,
    chain_from_text,
    chain_to_text,
    reachability_closure,
    sample_until_entry,
    trajectory_stream,
)
from lerw.fractal import (
    adjacency_arrays,
    carpet_graph,
    corner_indices,
    gasket_graph,
    standard_carpet,
    uniform_network,
)
from lerw.network import walk_from_network

from _gen import dense_chain, sparse_chain

SRC = str(Path(__file__).resolve().parents[1] / "src")


def escape_chain():
    # a and b swap or fall into the absorbing state c
    return build_chain(
        "abc",
        [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["0", "0", "1"]],
        "rational",
    )


class TestConstruction:
    def test_modes_and_types(self):
        ch = escape_chain()
        assert ch.mode == "rational"
        assert isinstance(ch.transition("a", "b"), Fraction)
        dbl = ch.as_double()
        assert dbl.mode == "double"
        assert dbl.transition("a", "b") == 0.5

    def test_as_double_matches_per_row_reference(self):
        # each row is summed once and every entry divided by that sum;
        # rows with many small parts carry rounding slack to divide out
        rng = Random(17)
        for _ in range(40):
            n = rng.randint(2, 30)
            rows = []
            for _ in range(n):
                weights = [rng.choice((0, rng.randint(1, 10**6))) for _ in range(n)]
                weights[rng.randrange(n)] += 1
                rows.append([Fraction(w, sum(weights)) for w in weights])
            ch = build_chain(range(n), rows, "rational")
            floats = [[float(p) for p in row] for row in ch.kernel]
            assert ch.as_double().kernel == tuple(tuple(p / sum(row) for p in row) for row in floats)

    def test_as_double_on_carpet_walk_chain(self):
        ch = walk_from_network(uniform_network(carpet_graph(standard_carpet(), 3), "rational"))
        assert ch.n == 688
        want = []
        for row in ch.kernel:
            floats = [float(p) for p in row]
            total = sum(floats)
            want.append(tuple(p / total for p in floats))
        dbl = ch.as_double()
        assert dbl.mode == "double" and dbl.states == ch.states
        assert dbl.kernel == tuple(want)

    def test_row_sum_enforced(self):
        with pytest.raises(ValueError, match="sums"):
            build_chain("ab", [["1/2", "1/3"], ["0", "1"]], "rational")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            build_chain("ab", [["3/2", "-1/2"], ["0", "1"]], "rational")

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MarkovChain(("a", "a"), ((Fraction(1), Fraction(0)),) * 2, "rational")

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="square"):
            build_chain("ab", [["1"]], "rational")

    def test_support(self):
        assert escape_chain().support() == {

            "a": ("b", "c"),
            "b": ("a", "c"),
            "c": ("c",),
        }


class TestSerialization:
    def test_rational_roundtrip(self):
        ch = escape_chain()
        again = chain_from_text(chain_to_text(ch))
        assert again == ch

    def test_double_roundtrip(self):
        ch = escape_chain().as_double()
        again = chain_from_text(chain_to_text(ch))
        assert again.mode == "double"
        assert np.allclose(again.matrix(), ch.matrix())

    def test_fuzzed_roundtrip(self):
        rng = Random(7)
        for _ in range(25):
            ch = sparse_chain(rng, rng.randint(1, 6))
            assert chain_from_text(chain_to_text(ch)) == ch

    def test_comments_and_blanks_ignored(self):
        text = "# chain\n\na b\n# rows\n0 1\n1/2 1/2\n"
        ch = chain_from_text(text)
        assert ch.states == ("a", "b")
        assert ch.transition("b", "a") == Fraction(1, 2)

    def test_bad_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            chain_from_text("a b\n0 1\n")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_double_entry_rejected(self, bad):
        # NaN passes both the sign and the row-sum check, so it needs its own
        text = f"a b c\n{bad} 0.5 0.5\n0.25 0.25 0.5\n0.0 0.0 1.0\n"
        with pytest.raises(ValueError, match="row 'a' has a non-finite entry"):
            chain_from_text(text)


class TestReachability:
    def test_everything_reaches_dense(self):
        ch = dense_chain(Random(1), 4)
        assert reachability_closure(ch, {"a"}) == frozenset("abcd")

    def test_trap_excluded(self):
        # z is a trap: anything that can fall into z is excluded
        ch = build_chain(
            "atz",
            [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        assert reachability_closure(ch, {"t"}) == frozenset("t")

    def test_target_outgoing_edges_ignored(self):
        # the only route to the trap passes through the target, so entry
        # into the target happens first and the start is safe
        ch = build_chain(
            "atz",
            [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "1"]],
            "rational",
        )
        assert reachability_closure(ch, {"t"}) == frozenset("at")

    def test_targets_always_included(self):
        ch = build_chain("ab", [["1", "0"], ["0", "1"]], "rational")
        assert reachability_closure(ch, {"b"}) == frozenset("b")

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="state space"):
            reachability_closure(escape_chain(), {"q"})


class TestSampling:
    def test_deterministic_per_stream(self):
        ch = escape_chain()
        p1 = sample_until_entry(ch, "a", {"c"}, trajectory_stream(11, 3))
        p2 = sample_until_entry(ch, "a", {"c"}, trajectory_stream(11, 3))
        assert p1 == p2
        assert p1[0] == "a" and p1[-1] == "c"
        assert all(s != "c" for s in p1[:-1])

    def test_streams_differ(self):
        ch = dense_chain(Random(3), 5)
        paths = {
            sample_until_entry(ch, "a", {"e"}, trajectory_stream(11, i)) for i in range(8)
        }
        assert len(paths) > 1

    def test_start_inside_targets(self):
        ch = escape_chain()
        assert sample_until_entry(ch, "c", {"c"}, trajectory_stream(0, 0)) == ("c",)

    def test_unreachable_start_rejected(self):
        ch = build_chain(
            "atz",
            [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        with pytest.raises(ValueError, match="almost sure"):
            sample_until_entry(ch, "a", {"t"}, trajectory_stream(0, 0))

    def test_step_cap(self):
        # three deterministic hops needed, cap of two
        ch = build_chain(
            "abct",
            [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "1"]],
            "rational",
        )
        with pytest.raises(StepCapExceeded):
            sample_until_entry(ch, "a", {"t"}, trajectory_stream(0, 0), step_cap=2)
        assert sample_until_entry(ch, "a", {"t"}, trajectory_stream(0, 0), step_cap=3) == tuple("abct")

    def test_double_mode_sampling(self):
        ch = escape_chain().as_double()
        path = sample_until_entry(ch, "a", {"c"}, trajectory_stream(5, 0))
        assert path[-1] == "c"


def _walk_one_uniform_per_step(nbrs, cums, start, is_target, rng):
    """Reference walk: one rng.random() call per step, no step cap."""
    path = [start]
    while not is_target[path[-1]]:
        v = path[-1]
        path.append(nbrs[v][bisect_right(cums[v], rng.random())])
    return path


def _bisect_route(tables):
    """The same rows without their cell table: every step bisects its row."""
    nbrs, cums = tables[:2]
    return nbrs, cums, None, None


class TestUniformBlocks:
    EDGES = (64, 192, 448, 960)  # steps drawn by the first one to four blocks

    def test_block_edges(self):
        sizes = [min(WALK_BLOCK_FIRST << k, WALK_BLOCK_MAX) for k in range(5)]
        assert [sum(sizes[: k + 1]) for k in range(4)] == list(self.EDGES)

    @pytest.mark.parametrize("m, count", [(2, 300), (3, 25)])
    def test_walks_equal_one_uniform_per_step(self, m, count):
        g = carpet_graph(standard_carpet(), m)
        c = corner_indices(g)
        chain = walk_from_network(uniform_network(g, "double"))
        tables = _row_tables(chain)
        assert tables[3] is not None  # six cells on carpet walk chains
        nbrs, cums = tables[:2]
        is_target = [i == c[-1] for i in range(chain.n)]
        steps = []
        for i in range(count):
            want = _walk_one_uniform_per_step(nbrs, cums, c[0], is_target, trajectory_stream(23, i))
            for route in (tables, _bisect_route(tables)):
                assert _walk(route, c[0], is_target, trajectory_stream(23, i), 10**7) == want, i
            assert sample_until_entry(chain, c[0], [c[-1]], trajectory_stream(23, i)) == tuple(want)
            steps.append(len(want) - 1)
        assert max(steps) > self.EDGES[-1]
        if m == 2:
            # some walk ends in each of the first five blocks, and one on
            # the last uniform of the first
            bounds = (0, *self.EDGES, 1984)
            assert all(any(lo < s <= hi for s in steps) for lo, hi in zip(bounds, bounds[1:]))
            assert self.EDGES[0] in steps

    @pytest.mark.parametrize("length", [63, 64, 65, 191, 192, 193, 1024, 2048])
    def test_step_cap_exact_at_block_edges(self, length):
        # a line 0 -> 1 -> ... -> length needs exactly `length` steps
        nbrs = [[v + 1] for v in range(length)] + [[length]]
        cums = [[1.0]] * (length + 1)
        tables = _walk_tables(nbrs, cums)
        is_target = [False] * length + [True]
        for route in (tables, _bisect_route(tables)):
            path = _walk(route, 0, is_target, trajectory_stream(0, length), length)
            assert path == list(range(length + 1))
            with pytest.raises(StepCapExceeded):
                _walk(route, 0, is_target, trajectory_stream(0, length), length - 1)


def _three_state(b_row):
    # x and yy move on rational rows; z absorbs
    return build_chain(["x", "yy", "z"], [["1/3", "1/3", "1/3"], b_row, ["0", "0", "1"]])


class TestCellTable:
    @staticmethod
    def assert_cells_step_like_bisect(tables):
        nbrs, cums, cuts, step = tables
        assert len(step) == len(nbrs) and all(len(row) == len(cuts) + 1 for row in step)
        # each cell's left end, and the float just below each cut
        lows = [0.0, *cuts.tolist()]
        below = np.nextafter(cuts, 0.0).tolist()
        for us, ks in ((lows, range(len(lows))), (below, range(len(below)))):
            assert cuts.searchsorted(us, "right").tolist() == list(ks)
            for v, row in enumerate(step):
                assert [row[k] for k in ks] == [nbrs[v][bisect_right(cums[v], u)] for u in us], v

    @pytest.mark.parametrize(
        "graph, width", [(gasket_graph(3), 4), (carpet_graph(standard_carpet(), 2), 6)], ids=["gasket", "carpet"]
    )
    def test_graph_walk_chain_cells(self, graph, width):
        tables = _row_tables(walk_from_network(uniform_network(graph, "double")))
        assert len(tables[2]) + 1 == width
        self.assert_cells_step_like_bisect(tables)

    def test_rational_rows(self):
        # cuts 1/3, 2/3, 2/7 and 6/7 make five cells, more than the three
        # states, so the chain has no table; six rows may hold one
        ch = _three_state(["2/7", "4/7", "1/7"])
        nbrs, cums = _row_tables(ch)[:2]
        tables = _walk_tables(nbrs * 2, cums * 2)
        assert len(tables[2]) == 4
        self.assert_cells_step_like_bisect(tables)

    def test_table_never_outgrows_the_kernel(self):
        # three cells on three states use the table; five fall back
        table_chain = _three_state(["1/3", "2/3", "0"])
        bisect_chain = _three_state(["2/7", "4/7", "1/7"])
        assert len(_row_tables(table_chain)[3][0]) == 3
        assert _row_tables(bisect_chain)[2:] == (None, None)
        rng = Random(5)
        routes = set()
        for _ in range(60):
            n = rng.randint(3, 6)
            ch = dense_chain(rng, n, den=rng.choice([n, n + 1, 2 * n]))
            step = _row_tables(ch)[3]
            routes.add(step is None)
            assert step is None or len(step) * len(step[0]) <= ch.n * ch.n
        assert routes == {True, False}

    def test_bisect_route_walks_equal_reference(self):
        ch = _three_state(["2/7", "4/7", "1/7"])
        nbrs, cums = _row_tables(ch)[:2]
        is_target = [False, False, True]
        for i in range(200):
            want = _walk_one_uniform_per_step(nbrs, cums, 1, is_target, trajectory_stream(3, i))
            got = sample_until_entry(ch, "yy", {"z"}, trajectory_stream(3, i))
            assert got == tuple(ch.states[v] for v in want), i

    def test_string_state_paths_are_pinned(self):
        # as drawn by `tuple(map(states.__getitem__, path))` and one
        # bisect per step; the first chain walks by bisection, the second
        # through its cell table
        for b_row, want in (
            (["2/7", "4/7", "1/7"], ["yz", "yyyyxyxyxxxz", "yyyyyyyyz"]),
            (["1/3", "2/3", "0"], ["yyxyyyyxyxyyxz", "yyyyxyxyxxxz", "yyyyyyyyyxz"]),
        ):
            ch = _three_state(b_row)
            got = [sample_until_entry(ch, "yy", {"z"}, trajectory_stream(3, i)) for i in range(3)]
            assert got == [tuple("yy" if a == "y" else a for a in w) for w in want]
            assert all(type(p) is tuple for p in got)
            one = sample_until_entry(ch, "z", {"z"}, trajectory_stream(3, 0))
            assert one == ("z",) and one[0] is ch.states[2]

    @pytest.mark.parametrize(
        "graph, pair_sha, mid_sha",
        [
            (
                gasket_graph(3),
                "74e6f718b1cf5cd4a4d2c0315ef617058523afe0f469186b4b963eca6f3d4c93",
                "895dfa8fce4422bff7fd9311e1c2d28498afb15fb63c8744b4dece05520b8538",
            ),
            (
                carpet_graph(standard_carpet(), 3),
                "93fd85820bd51b5f293cacd1d63e148b8c8bc3d4f4751b5f6f4351785c37ce84",
                "f1692d1bcbd9e6e9928aea82773a414cada4d25cb8338febf85f76c6ad245940",
            ),
        ],
        ids=["gasket_m3", "carpet_m3"],
    )
    def test_pair_table_bytes_are_pinned(self, graph, pair_sha, mid_sha):
        # digests of the table as built before the cells were shared with
        # chain walks; corners after the first are the targets
        indptr, nbr = adjacency_arrays(graph)
        flags = np.zeros(graph.n, dtype=bool)
        flags[list(corner_indices(graph)[1:])] = True
        pair, mid = _pair_table(indptr, nbr, flags)[3:]
        assert (pair.dtype, mid.dtype) == (np.dtype(np.intp), np.dtype(np.uint16))
        assert hashlib.sha256(pair.tobytes()).hexdigest() == pair_sha
        assert hashlib.sha256(mid.tobytes()).hexdigest() == mid_sha


class TestStreams:
    WORDS = (0, 1, 2**63, 2**64 - 1)

    @pytest.mark.parametrize("master", WORDS)
    @pytest.mark.parametrize("index", WORDS)
    def test_stream_equals_philox_keyed(self, master, index):
        got = trajectory_stream(master, index)
        want = np.random.Generator(np.random.Philox(key=np.array([master, index], dtype=np.uint64)))
        assert np.array_equal(got.random(5000), want.random(5000))
        assert np.array_equal(got.integers(0, 2**63, size=100), want.integers(0, 2**63, size=100))
        assert np.array_equal(got.integers(7, size=100), want.integers(7, size=100))
        assert got.random() == want.random()

    def test_key_state_requests(self):
        key = _philox_key(2**64 - 1, 5)
        state = key.generate_state(2, np.uint64)
        assert state.dtype == np.uint64 and state.tolist() == [2**64 - 1, 5]
        with pytest.raises(ValueError, match="two uint64 words"):
            key.generate_state(4, np.uint32)
        with pytest.raises(ValueError, match="two uint64 words"):
            key.generate_state(2, np.uint32)
        with pytest.raises(OverflowError):
            trajectory_stream(-1, 0)

    def test_stream_pickles_mid_stream(self):
        rng = trajectory_stream(2**64 - 1, 3)
        rng.random(17)
        copy = pickle.loads(pickle.dumps(rng))
        assert np.array_equal(copy.random(100), rng.random(100))
        assert copy.bit_generator.seed_seq.generate_state(2, np.uint64).tolist() == [2**64 - 1, 3]

    def test_import_does_not_load_numpy_random(self):
        # sampling loads numpy.random on first use; other jobs never pay for it
        code = "import sys, lerw; sys.exit('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": SRC}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestStepRule:
    def test_uniform_rows_pick_floor_u_times_degree(self):
        # Graph walks step with bisect_right over cumsum(1/d).  For the
        # degrees 1..4 of the gasket and carpet graphs that is floor(u*d)
        # at every float within 4096 ulps of a bin edge j/d, the only
        # places where rounding of the cumulative sums could split them.
        offsets = np.arange(-4096, 4097, dtype=np.int64)
        checked = 0
        for d in range(1, 5):
            cums = _cum_row(np.full(d, 1.0) / d)
            for j in range(d + 1):
                near = (np.array(j / d).view(np.int64) + offsets).view(np.float64)
                us = near[(near >= 0.0) & (near < 1.0)].tolist()
                bad = [u for u in us if bisect_right(cums, u) != int(u * d)]
                assert not bad, (d, j, bad[:3])
                checked += len(us)
        assert checked == 81_930

    def test_pair_table_makes_two_steps_and_targets_absorb(self):
        # entry (v << shift) + k1 * width + k2 is two bisect steps from v,
        # except that a flagged or isolated (7) row never leaves itself;
        # each step is checked at and next to every cell edge
        nbrs = [[1], [0, 2], [1, 3, 4], [2, 4, 5, 6], [2, 3], [3], [3], []]
        cums = [_cum_row(np.full(len(r), 1.0) / len(r)) for r in nbrs]
        indptr = np.cumsum([0, *map(len, nbrs)])
        nbr = np.array([j for r in nbrs for j in r])
        flags = np.array([False, False, False, False, True, False, True, False])
        cuts, width, shift, pair, mid = _pair_table(indptr, nbr, flags)
        assert width == 6 and 1 << shift == 64 and len(cuts) == 5
        offsets = np.arange(-64, 65, dtype=np.int64)
        edges = np.concatenate([[0.0], cuts])
        near = (edges.view(np.int64)[:, None] + offsets).view(np.float64).ravel()
        us = np.concatenate([near[(near >= 0.0) & (near < 1.0)], np.random.default_rng(0).random(500)])
        cells = (us[:, None] >= cuts).sum(1)

        def one(v, u):
            return v if flags[v] or not nbrs[v] else nbrs[v][bisect_right(cums[v], u)]

        for v in range(len(nbrs)):
            for u1, k1 in zip(us[::7].tolist(), cells[::7].tolist()):
                idx = (v << shift) + k1 * width + cells
                w = one(v, u1)
                assert mid[idx].tolist() == [w] * len(us), (v, u1)
                assert (pair[idx] >> shift).tolist() == [one(w, u2) for u2 in us.tolist()], (v, u1)
