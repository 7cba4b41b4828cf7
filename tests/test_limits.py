"""Set metrics, empirical image laws, and the scaling experiments."""

import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

import lerw.chain
import lerw.fractal
import lerw.limits
from lerw.chain import (
    LOCKSTEP_BLOCK,
    LOCKSTEP_POOL,
    StepCapExceeded,
    sample_until_entry,
    trajectory_stream,
)
from lerw.erasure import loop_erase, partial_loop_erase
from lerw.fractal import (
    FractalGraph,
    adjacency_arrays,
    carpet_graph,
    corner_indices,
    gasket_graph,
    standard_carpet,
    to_xy,
    uniform_network,
)
from lerw.limits import (
    EmpiricalSetLaw,
    WalkConfig,
    _graph_walks,
    aitken_limit,
    coupled_refinement_distance,
    empirical_tv,
    hausdorff,
    kernel_convergence,
    lerw_set_law,
    resistance_scaling,
    set_law_from_text,
    set_law_to_text,
)
import lerw.network
from lerw.network import (
    effective_resistance,
    hitting_distribution,
    walk_from_network,
)

from _gen import path_stub


def law(kind, grid, atoms):
    return EmpiricalSetLaw(kind, grid, atoms, sum(atoms.values()))


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


ORIGIN = ((0, 0),)


class TestEmpiricalSetLaw:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSetLaw("carpet", 1, {ORIGIN: 2}, 3)

    def test_counts_must_be_positive_ints(self):
        # the counts sum to the header's total, so only the count check catches it
        with pytest.raises(ValueError, match="not a positive int"):
            set_law_from_text("# carpet 1 2\n3\t0,0\n-1\t1,1\n")
        for count in (0, 1.0, True):
            with pytest.raises(ValueError, match="not a positive int"):
                EmpiricalSetLaw("carpet", 1, {ORIGIN: 3, ((1, 1),): count}, 3 + count)

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
    @pytest.mark.parametrize(
        "kind, m", [("gasket", 2), ("carpet", 1), ("carpet", 2)], ids=["gasket-2", "carpet-1", "carpet-2"]
    )
    def test_graph_walks_equal_chain_walks(self, kind, m, monkeypatch):
        # a graph walk is the walk chain of the graph's unit network,
        # drawn from the same uniforms; 300 walks refill the pool's slots
        g = family_graph(kind, m)
        c = corner_indices(g)
        count = 300
        chain = walk_from_network(uniform_network(g, "double"))
        expected = [
            sample_until_entry(chain, c[0], [c[-1]], trajectory_stream(41, i)) for i in range(count)
        ]
        monkeypatch.setattr(lerw.chain, "_walk", None)  # every walker ends in lockstep
        walks = dict(_graph_walks(WalkConfig(g, 41), c[0], [c[-1]], count))
        assert sorted(walks) == list(range(count))
        for i in range(count):
            assert tuple(walks[i].tolist()) == expected[i], i
        steps = [len(w) - 1 for w in expected]
        # walks that end in the first block and walks that cross blocks
        assert min(steps) < LOCKSTEP_BLOCK < max(steps)

    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_few_graph_walks_equal_chain_walks(self, count, monkeypatch):
        # a pool smaller than LOCKSTEP_POOL from the start, which shrinks
        # to its last walker in lockstep
        expected = carpet2_chain_walks(41, count)
        g = family_graph("carpet", 2)
        c = corner_indices(g)
        monkeypatch.setattr(lerw.chain, "_walk", None)
        walks = dict(_graph_walks(WalkConfig(g, 41), c[0], [c[-1]], count))
        assert sorted(walks) == list(range(count))
        for i in range(count):
            assert tuple(walks[i].tolist()) == expected[i], i

    def test_step_cap_is_exact(self):
        g = carpet_graph(standard_carpet(), 1)
        c = corner_indices(g)
        count = 2 * LOCKSTEP_POOL
        chain = walk_from_network(uniform_network(g, "double"))
        steps = [
            len(sample_until_entry(chain, c[0], [c[3]], trajectory_stream(8, i))) - 1
            for i in range(count)
        ]
        cap = max(steps)
        walks = dict(_graph_walks(WalkConfig(g, 8, step_cap=cap), c[0], [c[3]], count))
        assert max(len(w) - 1 for w in walks.values()) == cap
        with pytest.raises(StepCapExceeded):
            dict(_graph_walks(WalkConfig(g, 8, step_cap=cap - 1), c[0], [c[3]], count))

    def test_step_cap_mid_block_in_lockstep(self):
        # no walker can enter the target, so all of them are still in
        # lockstep when the cap falls inside their second block
        g = path_stub(4, edges=((0, 1), (2, 3)))
        cap = LOCKSTEP_BLOCK + LOCKSTEP_BLOCK // 2
        walks = _graph_walks(WalkConfig(g, 1, step_cap=cap), 0, [3], 2 * LOCKSTEP_POOL)
        with pytest.raises(StepCapExceeded, match=f"within {cap} steps"):
            next(walks)
        # a walk entering exactly at the cap is kept
        assert lerw_set_law(WalkConfig(path_stub(2), 1, step_cap=1), 0, [1], 300).total == 300
        with pytest.raises(StepCapExceeded):
            lerw_set_law(WalkConfig(path_stub(2), 1, step_cap=0), 0, [1], 300)

    def test_walks_come_back_as_intp(self):
        # the trail buffer holds uint16 vertices on carpet m3; paths are
        # widened so that arithmetic on them (lo * n + hi, u - v) cannot wrap
        g = carpet_graph(standard_carpet(), 3)
        c = corner_indices(g)
        walks = dict(_graph_walks(WalkConfig(g, 5), c[0], [c[3]], 20))
        assert sorted(walks) == list(range(20))
        assert {w.dtype for w in walks.values()} == {np.dtype(np.intp)}
        assert all(w[0] == c[0] and w[-1] == c[3] for w in walks.values())

    def test_out_of_range_vertices_are_named(self):
        g = gasket_graph(1)
        for start, targets in ((0, [-1]), (-g.n, [1]), (0, [g.n]), (g.n, [1])):
            with pytest.raises(ValueError, match="out of range"):
                lerw_set_law(WalkConfig(g, 1), start, targets, 3)
            with pytest.raises(ValueError, match="out of range"):
                coupled_refinement_distance(WalkConfig(g, 1), 0, start, targets, 3)

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


@functools.cache
def carpet2_chain_walks(seed, count):
    g = family_graph("carpet", 2)
    c = corner_indices(g)
    chain = walk_from_network(uniform_network(g, "double"))
    return [sample_until_entry(chain, c[0], [c[-1]], trajectory_stream(seed, i)) for i in range(count)]


class TestPoolWidth:
    """The pool width changes only the speed of graph walks: the walks,
    and everything computed from them, are the same at any width."""

    @pytest.mark.parametrize("pool", [1, 64, 200, LOCKSTEP_POOL])
    def test_walks_equal_chain_walks_at_any_pool_width(self, pool, monkeypatch):
        g = family_graph("carpet", 2)
        c = corner_indices(g)
        count = 300
        expected = carpet2_chain_walks(41, count)
        monkeypatch.setattr(lerw.chain, "LOCKSTEP_POOL", pool)
        # count - pool walks finish into a refilled slot; the other pool
        # finish in lockstep after the last index started, each dropping
        # its row from the pool
        monkeypatch.setattr(lerw.chain, "_walk", None)
        walks = dict(_graph_walks(WalkConfig(g, 41), c[0], [c[-1]], count))
        assert sorted(walks) == list(range(count))
        for i in range(count):
            assert tuple(walks[i].tolist()) == expected[i], i

    def test_step_cap_mid_block_after_rows_were_dropped(self, monkeypatch):
        # every index starts at once, so each walk that ends drops its
        # row; the cap then falls inside a block while ten walkers or
        # more are still in the pool
        g = family_graph("carpet", 2)
        c = corner_indices(g)
        count = 128
        expected = carpet2_chain_walks(41, count)
        steps = [len(w) - 1 for w in expected]
        cap = sorted(steps)[-10]
        done = cap - 1 - (cap - 1) % LOCKSTEP_BLOCK  # steps made before the cap's block
        assert cap % LOCKSTEP_BLOCK and done > 0
        assert sum(s > done for s in steps) >= 10
        monkeypatch.setattr(lerw.chain, "LOCKSTEP_POOL", count)
        monkeypatch.setattr(lerw.chain, "_walk", None)  # never reached
        got = {}
        with pytest.raises(StepCapExceeded, match=f"within {cap} steps"):
            for i, w in _graph_walks(WalkConfig(g, 41, step_cap=cap), c[0], [c[-1]], count):
                got[i] = w
        assert sorted(got) == [i for i, s in enumerate(steps) if s <= done]
        for i, w in got.items():
            assert tuple(w.tolist()) == expected[i], i

    def test_step_cap_of_the_last_walker_names_the_cap(self, monkeypatch):
        # only the longest walk outlives the cap, after the others have
        # left the pool, so it runs out of steps alone in the pool
        g = family_graph("carpet", 2)
        c = corner_indices(g)
        count = 128
        expected = carpet2_chain_walks(41, count)
        steps = [len(w) - 1 for w in expected]
        cap = max(steps) - 1
        done = cap - 1 - (cap - 1) % LOCKSTEP_BLOCK  # steps made before the cap's block
        assert sum(s > done for s in steps) == 1
        monkeypatch.setattr(lerw.chain, "LOCKSTEP_POOL", count)
        monkeypatch.setattr(lerw.chain, "_walk", None)
        got = {}
        with pytest.raises(StepCapExceeded, match=f"within {cap} steps"):
            for i, w in _graph_walks(WalkConfig(g, 41, step_cap=cap), c[0], [c[-1]], count):
                got[i] = w
        assert sorted(got) == [i for i, s in enumerate(steps) if s <= cap]

    def test_coupled_distances_are_byte_equal_at_any_pool_width(self, monkeypatch):
        g = family_graph("carpet", 2)
        c = corner_indices(g)
        runs = []
        for pool in (1, 64, 200, LOCKSTEP_POOL):
            monkeypatch.setattr(lerw.chain, "LOCKSTEP_POOL", pool)
            st = coupled_refinement_distance(WalkConfig(g, 13), 1, c[0], [c[3]], 300)
            runs.append((st["distances"].tobytes(), st["stats"]))
        assert all(run == runs[0] for run in runs[1:])
        assert runs[0][1]["walk_steps_max"] > LOCKSTEP_BLOCK


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

    def test_isolated_start_is_named(self):
        g = path_stub(3, edges=((0, 1),))
        with pytest.raises(ValueError, match=r"start vertex 2 at \(2, 0\) has no neighbours"):
            lerw_set_law(WalkConfig(g, 2), 2, [0], 5)
        with pytest.raises(ValueError, match="start vertex 2"):
            coupled_refinement_distance(WalkConfig(g, 2), 0, 2, [0], 5)

    def test_bad_targets_rejected(self):
        g = path_stub(2)
        with pytest.raises(ValueError):
            lerw_set_law(WalkConfig(g, 1), 0, [], 1)
        with pytest.raises(ValueError):
            lerw_set_law(WalkConfig(g, 1), 0, [0], 1)


class TestCoupledRefinement:
    def test_sampler_memory_is_bounded(self):
        # Peak traced memory of 300 coupled walks on carpet m3 (seed 1):
        # 2.15 MiB with a 64-walker pool stepping once per gather, 3.13
        # MiB with the 128-walker pool, pair table and flush buffer of
        # today.  The bound is the former plus 75%; pools of 192 and 256
        # walkers read 3.79 and 4.19 MiB and fail it.
        g = carpet_graph(standard_carpet(), 3)
        c = corner_indices(g)
        config = WalkConfig(g, 1)
        # builds the graph's cached arrays and imports numpy.random
        coupled_refinement_distance(config, 2, c[0], [c[3]], 3)
        tracemalloc.start()
        try:
            coupled_refinement_distance(config, 2, c[0], [c[3]], 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 2.15 * 2**20

    def test_sampling_never_imports_scipy(self):
        # scipy.sparse adds about 20 MB to a process that only samples
        code = """
import sys
from lerw.fractal import carpet_graph, corner_indices, standard_carpet, uniform_network
from lerw.limits import WalkConfig, coupled_refinement_distance
from lerw.network import walk_from_network
g = carpet_graph(standard_carpet(), 3)
c = corner_indices(g)
coupled_refinement_distance(WalkConfig(g, 1), 2, c[0], [c[3]], 20)
walk_from_network(uniform_network(g, "double"))
assert "lerw.limits" in sys.modules
assert "scipy.sparse" not in sys.modules, "sampling imported scipy.sparse"
"""
        src = str(Path(lerw.network.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

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

    def test_one_sided_distance_is_the_hausdorff_distance(self):
        # the final erasure is a subsequence of the stage path, so the
        # one-sided gap the function computes is the full Hausdorff distance
        g = carpet_graph(standard_carpet(), 2)
        c = corner_indices(g)
        config = WalkConfig(g, 13)
        st = coupled_refinement_distance(config, 1, c[0], [c[3]], 200)
        walks = dict(_graph_walks(config, c[0], [c[3]], 200))
        xy = to_xy(g)
        for i in range(200):
            stage = partial_loop_erase(walks[i].tolist(), g.nested[1]).path
            final = loop_erase(stage).path
            expected = hausdorff(xy[sorted(set(stage))], xy[sorted(set(final))])
            assert st["distances"][i] == expected, i
        assert st["max"] > 0

    @pytest.mark.parametrize("m", [0, 1])
    def test_tuple_erasures_give_the_same_result(self, m):
        # the whole computation redone with the tuple erasures of chain
        # paths: the array erasures must not move a bit of it
        g = carpet_graph(standard_carpet(), 2)
        c = corner_indices(g)
        config = WalkConfig(g, 29)
        st = coupled_refinement_distance(config, m, c[0], [c[3]], 300)
        xy = to_xy(g)
        dists = np.empty(300)
        steps = []
        stage_points = final_points = 0
        for i, w in _graph_walks(config, c[0], [c[3]], 300):
            stage = partial_loop_erase(w.tolist(), g.nested[m]).path
            final = loop_erase(stage).path
            steps.append(len(w) - 1)
            stage_points += len(stage)
            final_points += len(final)
            off = sorted(set(stage) - set(final))
            if not off:
                dists[i] = 0.0
                continue
            pa, pb = xy[off], xy[list(final)]
            dx = pa[:, :1] - pb[:, 0]
            dy = pa[:, 1:] - pb[:, 1]
            dists[i] = float((dx * dx + dy * dy).min(1).max()) ** 0.5
        assert st["distances"].tolist() == dists.tolist()
        assert st["stats"] == {
            "walk_steps": sum(steps),
            "walk_steps_max": max(steps),
            "stage_points": stage_points,
            "final_points": final_points,
        }
        assert st["max"] > 0

    def test_counters_count_walks_and_erasures(self):
        g = carpet_graph(standard_carpet(), 2)
        c = corner_indices(g)
        config = WalkConfig(g, 17)
        st = coupled_refinement_distance(config, 1, c[0], [c[3]], 150)
        walks = dict(_graph_walks(config, c[0], [c[3]], 150))
        stages = [partial_loop_erase(walks[i].tolist(), g.nested[1]).path for i in range(150)]
        assert st["stats"] == {
            "walk_steps": sum(len(w) - 1 for w in walks.values()),
            "walk_steps_max": max(len(w) - 1 for w in walks.values()),
            "stage_points": sum(map(len, stages)),
            "final_points": sum(len(loop_erase(s).path) for s in stages),
        }

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

    def test_aitken_limit_cases(self):
        f = Fraction
        assert aitken_limit([]) is None and aitken_limit([f(3), f(2)]) is None
        # a geometric approach to L: delta-squared returns L exactly
        assert aitken_limit([f(5, 4) + f(1, 2) * f(3, 5) ** n for n in range(6)]) == f(5, 4)
        assert aitken_limit([f(5, 3)] * 4) == f(5, 3)
        assert aitken_limit([f(2), f(1), f(1)]) == 1  # constant tail
        assert aitken_limit([f(3), f(2), f(1)]) is None  # equal steps: no limit
        assert aitken_limit([1.7005, 1.5495, 1.4534, 1.3939]) == pytest.approx(1.2971, abs=1e-4)

    def test_ratio_differences_and_aitken(self):
        gasket = resistance_scaling("gasket", range(5), mode="rational")
        for pair, ds in gasket["ratio_differences"].items():
            assert ds == [0, 0, 0] and gasket["aitken_limit"][pair] == Fraction(5, 3)
        carpet = resistance_scaling(
            "carpet", range(4), template=standard_carpet(), mode="rational", pairs=[(0, 3), (0, 1)]
        )
        for pair, (r0, r1, r2) in carpet["ratios"].items():
            assert carpet["ratio_differences"][pair] == [r1 - r0, r2 - r1]
            a = carpet["aitken_limit"][pair]
            assert isinstance(a, Fraction)
            assert a == r2 - (r2 - r1) ** 2 / ((r2 - r1) - (r1 - r0))
        short = resistance_scaling("carpet", (1, 2, 3), template=standard_carpet(), pairs=[(0, 3)])
        assert short["aitken_limit"] == {(0, 3): None}
        assert len(short["ratio_differences"][0, 3]) == 1

    def test_probe_pair_selection(self):
        res = resistance_scaling(
            "carpet", (1, 2), template=standard_carpet(), pairs=[(0, 3)]
        )
        assert set(res["ratios"]) == {(0, 3)}
        assert len(res["rows"]) == 2

    def test_levels_required(self):
        with pytest.raises(ValueError):
            resistance_scaling("gasket", [])

    def test_unknown_mode_is_named_before_any_build(self):
        # carpet level 9 is past MAX_VERTICES, so a build would fail first
        with pytest.raises(ValueError, match="unknown mode 'float'"):
            resistance_scaling("carpet", [9], template=standard_carpet(), mode="float")

    def test_repeated_levels_are_named(self):
        # a repeated level would give a ratio of exactly 1
        for kind in ("gasket", "carpet"):
            for mode in ("rational", "double"):
                with pytest.raises(ValueError, match="level 1 is repeated"):
                    resistance_scaling(kind, [2, 1, 1], template=standard_carpet(), mode=mode)

    @pytest.mark.parametrize(
        "kind, levels, single",
        [("gasket", range(4), (0, 2)), ("carpet", (1, 2), (0, 3))],
        ids=["gasket", "carpet"],
    )
    def test_rational_values_equal_untraced_solves(self, kind, levels, single):
        template = standard_carpet() if kind == "carpet" else None
        for pairs in (None, [single]):
            res = resistance_scaling(kind, levels, template=template, mode="rational", pairs=pairs)
            for m in levels:
                g = gasket_graph(m) if kind == "gasket" else carpet_graph(template, m)
                net = uniform_network(g, "rational")
                c = corner_indices(g)
                rows = [r for r in res["rows"] if r["level"] == m]
                want = pairs or [(i, j) for i in range(len(c)) for j in range(i + 1, len(c))]
                assert [r["pair"] for r in rows] == want
                for r in rows:
                    i, j = r["pair"]
                    assert type(r["resistance"]) is Fraction
                    assert r["resistance"] == effective_resistance(net, c[i], c[j])

    def test_double_values_match_untraced_solves(self):
        template = standard_carpet()
        res = resistance_scaling("carpet", range(1, 5), template=template)
        for m in range(1, 5):
            g = carpet_graph(template, m)
            net = uniform_network(g, "double")
            c = corner_indices(g)
            for r in (r for r in res["rows"] if r["level"] == m):
                want = effective_resistance(net, c[r["pair"][0]], c[r["pair"][1]])
                assert abs(r["resistance"] - want) <= 1e-12 * want

    def test_carpet_levels_build_and_factor_no_graph(self, monkeypatch):
        # double carpet resistances and V_1 kernels come from glued
        # boundary traces: no graph above level 1 is built, and the only
        # sparse solves are on the traced networks of four corners
        levels, sizes = [], []
        build, solve = lerw.fractal.carpet_graph, lerw.network._solve_block

        def built(template, m, *args):
            levels.append(m)
            return build(template, m, *args)

        def solved(net, idx, rhs):
            sizes.append(net.n)
            return solve(net, idx, rhs)

        for module in (lerw.limits, lerw.fractal):
            monkeypatch.setattr(module, "carpet_graph", built)
        monkeypatch.setattr(lerw.network, "_solve_block", solved)
        template = standard_carpet()
        resistance_scaling("carpet", (1, 2, 3), template=template)
        kernel_convergence("carpet", 1, 0, [1, 2, 3], template=template)
        assert max(levels) == 1 and set(sizes) == {4}
        # the spies do see the inputs that still trace whole graphs
        kernel_convergence("carpet", 2, 0, [3], template=template)
        resistance_scaling("gasket", (3,))
        assert levels[-2:] == [2, 3]
        assert sizes[-5:] == [carpet_graph(template, 3).n, gasket_graph(3).n, 3, 3, 3]
        # rational carpet levels build their graphs and trace them exactly
        resistance_scaling("carpet", (1, 2, 3), template=template, mode="rational")
        assert levels[-3:] == [1, 2, 3]

    @pytest.mark.parametrize(
        "kind, pairs, match",
        [
            ("carpet", [(0, 7)], "corner index 7 is out of range: the carpet has 4 corners"),
            ("gasket", [(3, 0)], "corner index 3 is out of range: the gasket has 3 corners"),
            ("carpet", [(-1, 2)], "corner index -1 is out of range"),
            ("carpet", [(1, 1)], "probe pair 1-1 needs two distinct corners"),
            ("carpet", [], "need at least one probe pair"),
            ("gasket", [(0, 1), (0, 1)], "probe pair 0-1 is repeated"),
            ("carpet", [(0, 1), (2, 3), (1, 0)], "probe pair 1-0 is repeated"),
        ],
    )
    def test_bad_probe_pairs_are_named(self, kind, pairs, match):
        template = standard_carpet() if kind == "carpet" else None
        with pytest.raises(ValueError, match=match):
            resistance_scaling(kind, (1, 2), template=template, pairs=pairs)


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

    @pytest.mark.parametrize("m", [1, 2])
    def test_repeated_levels_are_named(self, m):
        # a repeated level would give a pair (2, 2) with max_diff 0.0
        with pytest.raises(ValueError, match="level 2 is repeated"):
            kernel_convergence("carpet", m, 0, [3, 2, 2], template=standard_carpet())

    @pytest.mark.parametrize(
        "kind, y_corners, m_primes",
        [("carpet", (0, 3), (1, 2, 3, 4)), ("gasket", (0,), (1, 2, 3))],
        ids=["carpet", "gasket"],
    )
    def test_rows_equal_per_row_hitting_distributions(self, kind, y_corners, m_primes):
        # the old definition, one Dirichlet solve per row, is the oracle
        template = standard_carpet() if kind == "carpet" else None
        base = (gasket_graph(1) if kind == "gasket" else carpet_graph(template, 1)).grid
        oracle = {}  # m' -> (row key -> row over the other keys, corner keys)
        for mp in m_primes:
            g = gasket_graph(mp) if kind == "gasket" else carpet_graph(template, mp)
            net = uniform_network(g, "double")
            vset = sorted(g.nested[1])
            key = {v: tuple(c // (g.grid // base) for c in g.vertices[v]) for v in vset}
            rows = {}
            for v in vset:
                hm = hitting_distribution(net, v, [u for u in vset if u != v])
                rows[key[v]] = {key[u]: p for u, p in hm.items()}
            oracle[mp] = rows, [key[c] for c in corner_indices(g)]
        for y in y_corners:
            out = kernel_convergence(kind, 1, y, m_primes, template=template)
            for entry in out["kernels"]:
                want, corners = oracle[entry["m_prime"]]
                rows = entry["rows"]
                assert list(rows) == sorted(k for k in want if k != corners[y])
                for rk, row in rows.items():
                    assert list(row) == sorted(want[rk])
                    if entry["m_prime"] == 1:
                        assert row == want[rk]
                    else:
                        assert max(abs(p - want[rk][ck]) for ck, p in row.items()) <= 1e-12

    @pytest.mark.parametrize("kind, corner, count", [("carpet", 9, 4), ("gasket", 3, 3)])
    def test_killing_corner_out_of_range(self, kind, corner, count):
        template = standard_carpet() if kind == "carpet" else None
        with pytest.raises(ValueError, match=f"corner index {corner} .* has {count} corners"):
            kernel_convergence(kind, 1, corner, [1, 2], template=template)


class TestArrayPath:
    """The double-mode experiments read a graph's arrays and never build
    its tuple views, which cost more than the array build itself."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the views built while the fixture is active."""
        log = []
        for name in ("vertices", "edges", "nested"):
            view = FractalGraph.__dict__[name]

            def spy(graph, name=name, view=view):
                log.append(name)
                return view.func(graph)

            monkeypatch.setattr(FractalGraph, name, property(spy))
        return log

    def test_spies_see_a_view_build(self, built):
        g = carpet_graph(standard_carpet(), 1)
        assert len(g.edges) == 24 and built == ["edges"]

    def test_double_experiments_build_no_views(self, built):
        template = standard_carpet()
        resistance_scaling("carpet", [1, 2, 3], template=template, mode="double")
        kernel_convergence("carpet", 1, 0, [1, 2, 3], template=template)
        for g in (carpet_graph(template, 2), gasket_graph(3)):
            uniform_network(g, "double")
            to_xy(g)
            corner_indices(g)
            adjacency_arrays(g)
        assert built == []
