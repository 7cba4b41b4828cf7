"""Set metrics, empirical image laws, and the scaling experiments."""

import hashlib
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from lerw.chain import StepCapExceeded, sample_until_entry, trajectory_stream
from lerw.fractal import (
    FractalGraph,
    carpet_graph,
    corner_indices,
    gasket_graph,
    standard_carpet,
    uniform_network,
)
from lerw.limits import (
    EmpiricalSetLaw,
    WalkConfig,
    _graph_walker,
    coupled_refinement_distance,
    empirical_tv,
    hausdorff,
    kernel_convergence,
    lerw_set_law,
    prokhorov,
    resistance_metric,
    resistance_scaling,
    set_law_from_text,
    set_law_to_text,
)
from lerw.network import build_network, walk_from_network


def law(kind, grid, atoms):
    return EmpiricalSetLaw(kind, grid, atoms, sum(atoms.values()))


def path_stub(n, edges=None, kind="carpet"):
    """Tiny hand-built graph reusing the fractal plumbing for sampling."""
    verts = tuple((i, 0) for i in range(n))
    if edges is None:
        edges = tuple((i, i + 1) for i in range(n - 1))
    return FractalGraph(kind, 0, 1, verts, tuple(edges), (frozenset(range(n)),))


class TestHausdorff:
    def test_identity_is_zero(self):
        pts = [(0.0, 0.0), (1.5, 2.0), (-3.0, 0.25)]
        assert hausdorff(pts, pts) == 0.0

    def test_singletons(self):
        assert hausdorff([(0, 0)], [(3, 4)]) == pytest.approx(5.0)

    def test_uncovered_point(self):
        assert hausdorff([(0, 0), (1, 0)], [(0, 0)]) == pytest.approx(1.0)

    def test_asymmetric_covering(self):
        # every point of a is near b, but not conversely
        a = [(0, 0), (1, 0)]
        b = [(0, 0), (1, 0), (10, 0)]
        assert hausdorff(a, b) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff([], [(0, 0)])

    def test_metric_axioms_fuzz(self):
        rng = Random(404)

        def pts():
            return [
                (rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4)
                for _ in range(rng.randint(1, 5))
            ]

        for _ in range(1000):
            a, b, c = pts(), pts(), pts()
            dab = hausdorff(a, b)
            assert dab == hausdorff(b, a)
            assert dab >= 0.0
            assert hausdorff(a, a) == 0.0
            assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12

    def test_pluggable_resistance_metric(self):
        net = build_network([("a", "b", 1), ("b", "c", 1)])
        d = resistance_metric(net)
        assert d("a", "c") == pytest.approx(2.0, abs=1e-9)
        assert hausdorff(["a"], ["c"], metric=d) == pytest.approx(2.0, abs=1e-9)
        assert hausdorff(["a", "b"], ["b", "c"], metric=d) == pytest.approx(1.0, abs=1e-9)


K00 = (((0, 0),),)
ORIGIN = ((0, 0),)


class TestProkhorov:
    def test_identical_law_is_zero(self):
        lw = law("carpet", 1, {ORIGIN: 3, ((1, 0), (1, 1)): 2})
        assert prokhorov(lw, lw) == 0.0

    def test_far_diracs_saturate_at_one(self):
        a = law("carpet", 1, {ORIGIN: 1})
        b = law("carpet", 1, {((3, 4),): 1})
        assert prokhorov(a, b) == pytest.approx(1.0, abs=2e-6)

    def test_close_diracs_give_distance(self):
        # atoms 0.25 apart in the embedding -> min(d_H, 1) = 0.25
        a = law("carpet", 4, {ORIGIN: 5})
        b = law("carpet", 4, {((1, 0),): 7})
        assert prokhorov(a, b) == pytest.approx(0.25, abs=2e-6)

    def test_moved_atom_mixture(self):
        far = ((8, 8),)
        a = law("carpet", 4, {ORIGIN: 1, far: 1})
        b = law("carpet", 4, {((1, 0),): 1, far: 1})
        d = prokhorov(a, b)
        assert d <= 0.25 + 2e-6
        assert d == pytest.approx(0.25, abs=2e-6)

    def test_symmetry_and_bounds_fuzz(self):
        rng = Random(77)
        for _ in range(8):
            def rand_law():
                atoms = {}
                for _ in range(rng.randint(1, 4)):
                    key = tuple(
                        sorted(
                            {(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 3))}
                        )
                    )
                    atoms[key] = atoms.get(key, 0) + rng.randint(1, 5)
                return law("carpet", 2, atoms)

            a, b = rand_law(), rand_law()
            d = prokhorov(a, b)
            assert d == prokhorov(b, a)
            assert 0.0 <= d <= 1.0


class TestEmpiricalSetLaw:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSetLaw("carpet", 1, {ORIGIN: 2}, 3)

    def test_text_roundtrip(self):
        lw = law("gasket", 4, {((0, 0), (1, 2)): 3, ((2, 2),): 1})
        again = set_law_from_text(set_law_to_text(lw))
        assert again == lw

    def test_text_rejects_missing_header(self):
        with pytest.raises(ValueError):
            set_law_from_text("3\t0,0 1,1\n")

    def test_tv_distance(self):
        a = law("carpet", 1, {ORIGIN: 1})
        b = law("carpet", 1, {((1, 0),): 1})
        assert empirical_tv(a, b) == 1.0
        assert empirical_tv(a, a) == 0.0


def family_graph(kind, m):
    return gasket_graph(m) if kind == "gasket" else carpet_graph(standard_carpet(), m)


class TestGraphWalks:
    @pytest.mark.parametrize("kind, m", [("gasket", 2), ("carpet", 1)])
    def test_graph_walks_equal_chain_walks(self, kind, m):
        # a graph walk is the walk chain of the graph's unit network,
        # drawn from the same uniforms
        g = family_graph(kind, m)
        c = corner_indices(g)
        walk, _ = _graph_walker(WalkConfig(g, 41), c[0], c[1:])
        chain = walk_from_network(uniform_network(g, "double"))
        for i in range(200):
            expected = sample_until_entry(chain, c[0], c[1:], trajectory_stream(41, i))
            assert tuple(walk(i)) == expected, i

    def test_fixed_seed_outputs_are_pinned(self):
        # sha256 digests recorded with the earlier floor(u*deg) graph
        # sampler; they pin every graph walk bit for bit
        g = gasket_graph(2)
        c = corner_indices(g)
        digests = [
            hashlib.sha256(
                set_law_to_text(lerw_set_law(WalkConfig(g, 7), c[0], [c[1], c[2]], 2000, pipe)).encode()
            ).hexdigest()
            for pipe in ("LE", [g.nested[0], g.nested[1]])
        ]
        assert digests == [
            "0831a00f7c21a302829c68fd1ab8d82814f229e3205afe10474a077c85910c84",
            "612bd4e63841de3d379f846c358e8b836a41d4ce11cb089cb3666bfbea2c907c",
        ]
        g = carpet_graph(standard_carpet(), 2)
        c = corner_indices(g)
        st = coupled_refinement_distance(WalkConfig(g, 31), 1, c[0], [c[3]], 300)
        assert hashlib.sha256(st["distances"].tobytes()).hexdigest() == (
            "473ae7607ff3273799e53d821240f3e1cde0908a3d1b730f375cbc5cab283b05"
        )


class TestLerwSetLaw:
    def test_deterministic_walk_is_dirac(self):
        g = path_stub(2)
        lw = lerw_set_law(WalkConfig(g, 5), 0, [1], 50)
        assert lw.atoms == {((0, 0), (1, 0)): 50}

    def test_random_walk_constant_image_is_dirac(self):
        # on a path every erased walk from one end to the other is the
        # whole path, however long the excursion was
        g = path_stub(3)
        lw = lerw_set_law(WalkConfig(g, 6), 0, [2], 200)
        assert lw.atoms == {((0, 0), (1, 0), (2, 0)): 200}

    def test_refinement_law_matches_erasure_law_gasket(self):
        g = gasket_graph(1)
        c = corner_indices(g)
        n = 20000
        plain = lerw_set_law(WalkConfig(g, 11, workers=4), c[0], [c[1], c[2]], n)
        refined = lerw_set_law(
            WalkConfig(g, 12, workers=4),
            c[0],
            [c[1], c[2]],
            n,
            [g.nested[0], g.nested[1]],
        )
        support = len(set(plain.atoms) | set(refined.atoms))
        assert empirical_tv(plain, refined) <= 4 * math.sqrt(support / n)

    def test_refinement_law_matches_erasure_law_carpet(self):
        g = carpet_graph(standard_carpet(), 1)
        c = corner_indices(g)
        n = 10000
        plain = lerw_set_law(WalkConfig(g, 21, workers=4), c[0], [c[3]], n)
        refined = lerw_set_law(
            WalkConfig(g, 22, workers=4),
            c[0],
            [c[3]],
            n,
            [g.nested[0], g.nested[1]],
        )
        support = len(set(plain.atoms) | set(refined.atoms))
        assert empirical_tv(plain, refined) <= 4 * math.sqrt(support / n)

    def test_atoms_contain_start_and_one_target(self):
        g = gasket_graph(2)
        c = corner_indices(g)
        lw = lerw_set_law(WalkConfig(g, 9), c[0], [c[1], c[2]], 500)
        start = g.vertices[c[0]]
        targets = {g.vertices[c[1]], g.vertices[c[2]]}
        for key in lw.atoms:
            pts = set(key)
            assert start in pts
            assert len(pts & targets) == 1

    def test_worker_count_does_not_change_the_law(self):
        g = gasket_graph(1)
        c = corner_indices(g)
        laws = [
            lerw_set_law(WalkConfig(g, 33, workers=w), c[0], [c[1]], 1000)
            for w in (1, 8)
        ]
        assert laws[0] == laws[1]
        assert set_law_to_text(laws[0]) == set_law_to_text(laws[1])

    def test_step_cap_guards_unreachable_targets(self):
        g = path_stub(4, edges=((0, 1), (2, 3)))
        with pytest.raises(StepCapExceeded):
            lerw_set_law(WalkConfig(g, 1, step_cap=100), 0, [3], 1)

    def test_isolated_vertex_elsewhere_is_harmless(self):
        g = path_stub(3, edges=((0, 1),))
        assert lerw_set_law(WalkConfig(g, 2), 0, [1], 5).atoms == {((0, 0), (1, 0)): 5}

    def test_bad_targets_rejected(self):
        g = path_stub(2)
        with pytest.raises(ValueError):
            lerw_set_law(WalkConfig(g, 1), 0, [], 1)
        with pytest.raises(ValueError):
            lerw_set_law(WalkConfig(g, 1), 0, [0], 1)


class TestCoupledRefinement:
    def test_stage_at_graph_level_gives_zero(self):
        g = carpet_graph(standard_carpet(), 2)
        c = corner_indices(g)
        st = coupled_refinement_distance(WalkConfig(g, 3), 2, c[0], [c[3]], 50)
        assert st["max"] == 0.0
        assert st["median"] == 0.0

    def test_statistics_shape(self):
        g = gasket_graph(2)
        c = corner_indices(g)
        st = coupled_refinement_distance(WalkConfig(g, 4), 1, c[0], [c[1]], 120)
        assert st["n"] == 120 and len(st["distances"]) == 120
        assert 0.0 <= st["median"] <= st["q90"] <= st["max"]
        assert st["mean"] <= st["max"]

    def test_gasket_median_decreases_with_level(self):
        medians = []
        for m, lvl in ((1, 2), (2, 3)):
            g = gasket_graph(lvl)
            c = corner_indices(g)
            st = coupled_refinement_distance(
                WalkConfig(g, 31, workers=4), m, c[0], [c[1]], 1500
            )
            medians.append(st["median"])
        assert medians[1] < medians[0]

    def test_stage_out_of_range(self):
        g = gasket_graph(1)
        c = corner_indices(g)
        with pytest.raises(ValueError):
            coupled_refinement_distance(WalkConfig(g, 1), 5, c[0], [c[1]], 1)


class TestResistanceScaling:
    def test_gasket_ratios_exactly_constant(self):
        res = resistance_scaling("gasket", range(4), mode="rational", band=0.0)
        seen = {r for rs in res["ratios"].values() for r in rs}
        assert seen == {Fraction(5, 3)}
        assert res["band_ok"] is True
        assert all(s == 0.0 for s in res["ratio_spread"].values())

    def test_gasket_exponent_and_envelope(self):
        res = resistance_scaling("gasket", range(4), mode="rational")
        assert res["gamma_hat"] == pytest.approx(math.log(5 / 3) / math.log(2))
        c1, c2 = res["envelope"]
        # corner resistance 2/3 at every level once rescaled
        assert c1 == pytest.approx(2 / 3, abs=1e-12)
        assert c2 == pytest.approx(2 / 3, abs=1e-12)
        assert res["band_ok"] is None

    def test_carpet_band_and_envelope(self):
        res = resistance_scaling(
            "carpet", range(1, 4), template=standard_carpet(), band=0.05
        )
        # the carpet is not exactly renormalizable at small levels: the
        # measured ratio spread is far above 5% and the flag must say so
        assert res["band_ok"] is False
        assert max(res["ratio_spread"].values()) > 0.05
        c1, c2 = res["envelope"]
        assert 0 < c1 < c2 < float("inf")

    def test_probe_pair_selection(self):
        res = resistance_scaling(
            "carpet", (1, 2), template=standard_carpet(), pairs=[(0, 3)]
        )
        assert set(res["ratios"]) == {(0, 3)}
        assert len(res["rows"]) == 2

    def test_levels_required(self):
        with pytest.raises(ValueError):
            resistance_scaling("gasket", [])


class TestKernelConvergence:
    def test_identity_trace_is_one_step_walk(self):
        out = kernel_convergence("gasket", 1, 0, [1])
        g = gasket_graph(1)
        nbrs = {}
        for a, b in g.edges:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        rows = out["kernels"][0]["rows"]
        y = corner_indices(g)[0]
        assert g.vertices[y] not in rows
        for v in range(g.n):
            if v == y:
                continue
            row = rows[g.vertices[v]]
            expect = {g.vertices[u]: 1 / len(nbrs[v]) for u in nbrs[v]}
            for k, p in row.items():
                assert p == pytest.approx(expect.get(k, 0.0), abs=1e-12)
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_gasket_trace_is_level_invariant(self):
        # decimation is an exact fixed point, so every level traces to
        # the same kernel up to roundoff
        out = kernel_convergence("gasket", 1, 0, [1, 2, 3])
        assert all(d["max_diff"] <= 1e-9 for d in out["diffs"])

    def test_carpet_differences_strictly_decrease(self):
        out = kernel_convergence(
            "carpet", 1, 0, [1, 2, 3, 4], template=standard_carpet()
        )
        gaps = [d["max_diff"] for d in out["diffs"]]
        assert len(gaps) == 3
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rows_are_distributions(self):
        out = kernel_convergence("carpet", 1, 3, [2], template=standard_carpet())
        for row in out["kernels"][0]["rows"].values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in row.values())

    def test_levels_below_m_rejected(self):
        with pytest.raises(ValueError):
            kernel_convergence("gasket", 2, 0, [1])
