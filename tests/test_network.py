"""Network solves: resistance, harmonic extension, tracing, bounds."""

from fractions import Fraction
from random import Random

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import lerw._exact
import lerw.network
from lerw._exact import SingularSystemError, check_residual, solve_fraction
from lerw.chain import sample_until_entry, trajectory_stream
from lerw.exactlaw import green_diagonal, traced_kernel
from lerw.fractal import carpet_graph, corner_indices, gasket_graph, standard_carpet, uniform_network
from lerw.network import (
    ElectricalNetwork,
    build_network,
    check_hitting_bound,
    effective_resistance,
    effective_resistance_to_set,
    expected_exit_time,
    harmonic_extension,
    hitting_distribution,
    network_from_text,
    network_to_text,
    trace_network,
    walk_from_network,
)

from _gen import random_network


def unit_triangle():
    return build_network([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])


def unit_path(names):
    return build_network([(a, b, 1) for a, b in zip(names, names[1:])])


def long_path(n):
    """n unit edges in a row, in double mode: a large, sparse, badly
    conditioned network (resistances grow like n, exit times like n^2)."""
    return build_network(
        [(f"p{i}", f"p{i+1}", 1.0) for i in range(n)], mode="double"
    )


class TestConstruction:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            ElectricalNetwork(
                ("a", "b", "c", "d"),
                {frozenset("ab"): Fraction(1), frozenset("cd"): Fraction(1)},
            )

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="self edge"):
            build_network([("a", "a", 1)])
        with pytest.raises(ValueError, match="duplicate edge"):
            build_network([("a", "b", 1), ("b", "a", 2)])
        with pytest.raises(ValueError, match="positive"):
            build_network([("a", "b", 0)])
        with pytest.raises(ValueError, match="pair"):
            ElectricalNetwork(("a", "b"), {frozenset("a"): Fraction(1)})

    def test_rejects_bad_vertices_and_keys(self):
        one = Fraction(1)
        with pytest.raises(ValueError, match="duplicate vertices"):
            ElectricalNetwork(("a", "b", "a"), {frozenset("ab"): one})
        with pytest.raises(ValueError, match="unknown mode"):
            ElectricalNetwork(("a", "b"), {frozenset("ab"): one}, "float")
        with pytest.raises(ValueError, match=r"frozenset\(\{'a'\}\) is not an unordered pair"):
            ElectricalNetwork(("a", "b"), {frozenset("ab"): one, frozenset("a"): one})
        with pytest.raises(ValueError, match="leaves the vertex set"):
            ElectricalNetwork(("a", "b"), {frozenset("ab"): one, frozenset("bz"): one})
        for mode, bad in (("rational", Fraction(-1, 2)), ("double", 0.0), ("double", math.nan)):
            with pytest.raises(ValueError, match=r"conductance on \['b', 'c'\] must be positive"):
                ElectricalNetwork(("a", "b", "c"), {frozenset("ab"): 1, frozenset("bc"): bad}, mode)

    def test_weights_sum_neighbours_in_edge_order(self):
        # bit for bit, as summing each vertex's neighbour list does
        rng = Random(5)
        for _ in range(20):
            net = random_network(rng, rng.randint(3, 9), extra_edges=6)
            dnet = ElectricalNetwork(
                net.vertices, {k: rng.random() + 0.1 for k in net.conductances}, "double"
            )
            for v in dnet.vertices:
                assert dnet.weight(v) == sum(c for _, c in dnet.neighbors(v))
                assert type(dnet.weight(v)) is float

    def test_single_vertex_network(self):
        net = ElectricalNetwork(("a",), {})
        assert net.n == 1 and net.weight("a") == 0 and net.conductances == {}

    def test_text_roundtrip(self):
        net = build_network([("a", "b", Fraction(3, 2)), ("b", "c", 2)])
        back = network_from_text(network_to_text(net))
        assert back.vertices == net.vertices
        assert back.conductances == net.conductances
        assert network_from_text("# comment\n\na b 1/2\n").conductance("a", "b") == Fraction(1, 2)


class TestWalk:
    def test_triangle_is_srw(self):
        ch = walk_from_network(unit_triangle())
        assert ch.transition("a", "b") == Fraction(1, 2)
        assert ch.transition("a", "a") == 0

    def test_conductance_ratio(self):
        net = build_network([("a", "b", 2), ("b", "c", 1)])
        ch = walk_from_network(net)
        assert ch.transition("b", "a") == Fraction(2, 3)
        assert ch.transition("b", "c") == Fraction(1, 3)

    def test_detailed_balance(self):
        rng = Random(3)
        for _ in range(20):
            net = random_network(rng, rng.randint(3, 7))
            ch = walk_from_network(net)
            for x in net.vertices:
                for y in net.vertices:
                    assert net.weight(x) * ch.transition(x, y) == net.weight(y) * ch.transition(y, x)

    def test_absorbing_rows(self):
        ch = walk_from_network(unit_triangle(), absorbing={"c"})
        assert ch.transition("c", "c") == 1


class TestResistance:
    def test_series(self):
        assert effective_resistance(unit_path("abc"), "a", "c") == 2

    def test_triangle(self):
        assert effective_resistance(unit_triangle(), "a", "b") == Fraction(2, 3)

    def test_four_cycle_opposite(self):
        net = build_network([("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)])
        assert effective_resistance(net, "a", "c") == 1

    def test_to_set_shorts_the_targets(self):
        net = unit_path("abc")
        assert effective_resistance_to_set(net, "b", {"a", "c"}) == Fraction(1, 2)

    def test_metric_axioms_fuzz(self):
        rng = Random(11)
        for _ in range(200):
            net = random_network(rng, rng.randint(3, 7), extra_edges=3)
            x, y, z = rng.sample(net.vertices, 3)
            rxy = effective_resistance(net, x, y)
            ryx = effective_resistance(net, y, x)
            rxz = effective_resistance(net, x, z)
            rzy = effective_resistance(net, z, y)
            assert rxy > 0 and rxy == ryx
            assert rxy <= rxz + rzy

    def test_validation(self):
        net = unit_triangle()
        with pytest.raises(ValueError, match="distinct"):
            effective_resistance(net, "a", "a")
        with pytest.raises(ValueError, match="target set"):
            effective_resistance_to_set(net, "a", {"a", "b"})

    def test_sparse_branch_long_path(self):
        net = long_path(1200)
        r = effective_resistance(net, "p0", "p1200")
        assert abs(r - 1200.0) < 1e-6


class TestHarmonic:
    def test_linear_on_path(self):
        net = unit_path("abcde")
        u = harmonic_extension(net, {"a": Fraction(0), "e": Fraction(1)})
        assert [u[s] for s in "abcde"] == [Fraction(k, 4) for k in range(5)]

    def test_constant_boundary(self):
        u = harmonic_extension(unit_triangle(), {"a": Fraction(7), "b": Fraction(7)})
        assert u["c"] == 7

    def test_empty_boundary_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            harmonic_extension(unit_triangle(), {})
        with pytest.raises(ValueError, match="not in the network"):
            harmonic_extension(unit_triangle(), {"z": Fraction(1)})

    def test_interior_without_contact_rejected(self):
        # d-e hangs off c; pinning a and b leaves them fine, but pinning
        # only a and cutting c would not: build the cut explicitly
        net = build_network([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
        u = harmonic_extension(net, {"a": Fraction(0), "d": Fraction(3)})
        assert u["b"] == 1 and u["c"] == 2

    def test_equals_hitting_probability_exact(self):
        rng = Random(21)
        for _ in range(30):
            net = random_network(rng, rng.randint(4, 7), extra_edges=3)
            y, a1, x = rng.sample(net.vertices, 3)
            bnd = {y: Fraction(1), a1: Fraction(0)}
            u = harmonic_extension(net, bnd)
            hm = hitting_distribution(net, x, {y, a1})
            assert u[x] == hm[y]
            assert hm[y] + hm[a1] == 1

    def test_matches_monte_carlo(self):
        # triangle plus a pendant leg; compare against 10^5 sampled walks
        net = build_network(
            [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1)]
        )
        u = harmonic_extension(net, {"b": Fraction(1), "d": Fraction(0)})
        p = float(u["a"])
        ch = walk_from_network(net, absorbing={"b", "d"})
        n = 10**5
        hits = 0
        for i in range(n):
            path = sample_until_entry(ch, "a", {"b", "d"}, trajectory_stream(9, i))
            hits += path[-1] == "b"
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) < 3.5 * sigma

    def test_sparse_branch_linear(self):
        net = long_path(1100)
        u = harmonic_extension(net, {"p0": 0.0, "p1100": 1.0})
        assert abs(u["p550"] - 0.5) < 1e-9


class TestTrace:
    def test_path_to_ends(self):
        t = trace_network(unit_path("abc"), {"a", "c"})
        assert t.conductances == {frozenset("ac"): Fraction(1, 2)}

    def test_identity_trace(self):
        net = unit_triangle()
        t = trace_network(net, net.vertices)
        assert t.conductances == net.conductances

    def test_star_to_leaves(self):
        net = build_network([("o", "x", 1), ("o", "y", 1), ("o", "z", 1)])
        t = trace_network(net, {"x", "y", "z"})
        assert set(t.conductances.values()) == {Fraction(1, 3)}
        assert len(t.conductances) == 3

    def test_preserves_resistance_exact_fuzz(self):
        rng = Random(31)
        for _ in range(60):
            net = random_network(rng, rng.randint(4, 8), extra_edges=3)
            k = rng.randint(2, net.n - 1)
            keep = rng.sample(net.vertices, k)
            t = trace_network(net, keep)
            for _ in range(3):
                x, y = rng.sample(keep, 2) if k > 2 else keep
                assert effective_resistance(t, x, y) == effective_resistance(net, x, y)

    def test_tower_exact(self):
        rng = Random(32)
        for _ in range(40):
            net = random_network(rng, rng.randint(5, 8), extra_edges=3)
            v2 = rng.sample(net.vertices, rng.randint(3, net.n - 1))
            v1 = rng.sample(v2, rng.randint(2, len(v2) - 1))
            once = trace_network(net, v1)
            twice = trace_network(trace_network(net, v2), v1)
            assert once.conductances == twice.conductances

    def test_induced_walk_is_traced_kernel(self):
        rng = Random(33)
        for _ in range(30):
            net = random_network(rng, rng.randint(4, 7), extra_edges=2)
            sub = frozenset(rng.sample(net.vertices, rng.randint(2, 3)))
            walk = walk_from_network(trace_network(net, sub))
            direct = traced_kernel(walk_from_network(net), sub, (), "exclude-current")
            assert set(walk.states) == set(direct.states)
            for x in sub:
                for y in sub:
                    assert walk.transition(x, y) == direct.transition(x, y)

    def test_double_agrees_with_rational(self):
        rng = Random(34)
        for trial in range(11):
            net = random_network(rng, 7, extra_edges=4)
            keep = ("a", "b", "c") if trial == 0 else tuple("abcdefg"[: rng.randint(3, 6)])
            dnet = ElectricalNetwork(
                net.vertices,
                {k: float(c) for k, c in net.conductances.items()},
                "double",
            )
            t_exact = trace_network(net, keep)
            t_double = trace_network(dnet, keep)
            for key, c in t_exact.conductances.items():
                assert abs(t_double.conductances[key] - float(c)) < 1e-10
            # the same pairs, in kept-vertex order: row by row, i < j
            kept = [v for v in net.vertices if v in keep]
            rows = [frozenset((x, y)) for i, x in enumerate(kept) for y in kept[i + 1 :]]
            assert list(t_double.conductances) == [k for k in rows if k in t_exact.conductances]

    def test_sparse_branch(self):
        t = trace_network(long_path(1200), {"p0", "p1200"})
        assert abs(t.conductances[frozenset(("p0", "p1200"))] - 1 / 1200) < 1e-12

    @pytest.mark.parametrize("m, level", [(3, 2), (2, 1)], ids=["gasket-m3-V2", "carpet-m2-V1"])
    def test_double_trace_in_column_blocks(self, monkeypatch, m, level):
        # kept columns solved 3 at a time give the one solve's
        # conductances bit for bit on these graphs, and every block's
        # solve, unrefined and refined, is checked on its own
        g = gasket_graph(m) if m == 3 else carpet_graph(standard_carpet(), m)
        net = uniform_network(g, "double")
        keep = g.level_sets[level].tolist()
        whole = trace_network(net, keep)
        checked = []

        def spy(a, x, b):
            checked.append(b.shape)
            check_residual(a, x, b)

        monkeypatch.setattr(lerw.network, "RESIDUAL_ROWS", 3)
        monkeypatch.setattr(lerw.network, "check_residual", spy)
        blocked = trace_network(net, keep)
        assert np.array_equal(blocked._ends, whole._ends)
        assert np.array_equal(blocked._values, whole._values)
        drop, k = g.n - len(keep), len(keep)
        assert checked == [(drop, min(3, k - c)) for c in range(0, k, 3) for _ in range(2)]

    def test_validation(self):
        with pytest.raises(ValueError, match="two kept"):
            trace_network(unit_triangle(), {"a"})
        with pytest.raises(ValueError, match="vertex set"):
            trace_network(unit_triangle(), {"a", "zz"})


class TestExitTime:
    def test_path_end(self):
        # gambler's ruin from the free end of a 2-edge path: 4 steps
        assert expected_exit_time(unit_path("abc"), "a", {"c"}) == 4

    def test_upper_bound_exact_fuzz(self):
        rng = Random(41)
        for _ in range(100):
            net = random_network(rng, rng.randint(3, 8), extra_edges=2)
            a = frozenset(rng.sample(net.vertices, rng.randint(1, net.n - 1)))
            xs = [v for v in net.vertices if v not in a]
            x = rng.choice(xs)
            mu = sum(net.weight(v) for v in xs)
            assert expected_exit_time(net, x, a) <= mu * effective_resistance_to_set(net, x, a)


class TestHittingBound:
    def test_trivial_same_point(self):
        rep = check_hitting_bound(unit_path("abcde"), "b", "b", {"e"})
        assert rep.probability == 1 and rep.holds and not rep.vacuous
        assert rep.bound == 1

    def test_path_mid(self):
        names = [f"n{i}" for i in range(11)]
        net = unit_path(names)
        rep = check_hitting_bound(net, "n5", "n4", {"n10"})
        assert rep.probability == Fraction(5, 6)
        assert rep.bound == Fraction(3, 4)
        assert rep.holds and not rep.vacuous

    def test_vacuous_case(self):
        rep = check_hitting_bound(unit_path("abc"), "b", "a", {"c"})
        assert rep.vacuous and rep.holds and rep.bound is None

    def test_never_violated_fuzz(self):
        rng = Random(51)
        for _ in range(1000):
            net = random_network(rng, 8, extra_edges=rng.randint(1, 5))
            x, y, a1, a2 = rng.sample(net.vertices, 4)
            rep = check_hitting_bound(net, x, y, {a1, a2})
            assert rep.holds

    def test_validation(self):
        with pytest.raises(ValueError, match="target set"):
            check_hitting_bound(unit_path("abc"), "a", "c", {"c"})


def as_double(net):
    return ElectricalNetwork(
        net.vertices, {k: float(c) for k, c in net.conductances.items()}, "double"
    )


def assert_close(got, want):
    """1e-12 relative; an exact zero must come out zero to 1e-15."""
    assert math.isclose(got, float(want), rel_tol=1e-12, abs_tol=1e-15), (got, want)


class TestDoubleMatchesRational:
    def test_random_networks(self):
        rng = Random(61)
        for _ in range(60):
            net = random_network(rng, rng.randint(4, 8), extra_edges=rng.randint(0, 4))
            dnet = as_double(net)
            x, y = rng.sample(net.vertices, 2)
            assert_close(effective_resistance(dnet, x, y), effective_resistance(net, x, y))
            a = frozenset(rng.sample(net.vertices, rng.randint(1, net.n - 1)))
            x = rng.choice([v for v in net.vertices if v not in a])
            assert_close(expected_exit_time(dnet, x, a), expected_exit_time(net, x, a))
            exact = hitting_distribution(net, x, a)
            approx = hitting_distribution(dnet, x, a)
            assert list(approx) == list(exact) == [v for v in net.vertices if v in a]
            for t in a:
                assert_close(approx[t], exact[t])
            bnd = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in a}
            exact = harmonic_extension(net, bnd)
            approx = harmonic_extension(dnet, {v: float(g) for v, g in bnd.items()})
            for v in net.vertices:
                assert_close(approx[v], exact[v])

    def test_long_path(self):
        # The exact values on 1100 edges come from the rational trace
        # onto the probed vertices, which keeps resistances and hitting
        # laws, and for exit times from gambler's ruin; TestRationalSolves
        # checks rational mode on the whole path against the same closed
        # forms.
        n = 1100
        dnet = long_path(n)
        probes = ["p0", "p1", "p377", "p550", "p1099", f"p{n}"]
        small = trace_network(build_network([(f"p{i}", f"p{i+1}", 1) for i in range(n)]), probes)
        for x, y in (("p0", f"p{n}"), ("p1", "p1099"), ("p377", "p550")):
            assert_close(effective_resistance(dnet, x, y), effective_resistance(small, x, y))
        bnd = {"p0": Fraction(-2), "p550": Fraction(7, 3), f"p{n}": Fraction(1)}
        exact = harmonic_extension(small, bnd)
        approx = harmonic_extension(dnet, {v: float(g) for v, g in bnd.items()})
        for v in probes:
            assert_close(approx[v], exact[v])
        a = {"p0", "p550", f"p{n}"}
        exact = hitting_distribution(small, "p377", a)
        approx = hitting_distribution(dnet, "p377", a)
        for t in a:
            assert_close(approx[t], exact[t])
        # from p_i: i (n - i) steps to leave through both ends, and
        # n^2 - i^2 to reach p_n when p_0 reflects
        assert_close(expected_exit_time(dnet, "p377", {"p0", f"p{n}"}), 377 * (n - 377))
        assert_close(expected_exit_time(dnet, "p377", {f"p{n}"}), n * n - 377 * 377)


def random_double_network(rng, n):
    return as_double(random_network(rng, n, extra_edges=rng.randint(0, n)))


def spy_solves(monkeypatch):
    """Count `_block_solver` and `check_residual` calls in lerw.network."""
    calls = {"factor": 0, "check": 0}
    factor, check = lerw.network._block_solver, lerw.network.check_residual

    def factored(net, idx):
        calls["factor"] += 1
        return factor(net, idx)

    def checked(a, x, b):
        calls["check"] += 1
        return check(a, x, b)

    monkeypatch.setattr(lerw.network, "_block_solver", factored)
    monkeypatch.setattr(lerw.network, "check_residual", checked)
    return calls


class TestGroundedResistance:
    # double pair resistances are read off one LU of the Laplacian
    # grounded at the last vertex, cached on the network

    def test_every_pair_agrees_with_the_set_route(self):
        rng = Random(31)
        for n in (5, 9, 17, 40):
            net = random_double_network(rng, n)
            last = net.vertices[-1]
            pairs = [(x, y) for x in net.vertices for y in net.vertices if x != y]
            r = {(x, y): effective_resistance(net, x, y) for x, y in pairs}
            for (x, y), got in r.items():
                want = effective_resistance_to_set(net, x, {y})
                assert math.isclose(got, want, rel_tol=1e-12), (x, y, got, want)
                assert r[y, x] == got
                if y == last:
                    # the very solve that grounds the last vertex
                    assert got == want

    def test_one_factorization_per_network(self, monkeypatch):
        calls = spy_solves(monkeypatch)
        rng = Random(32)
        for _ in range(3):
            net = random_double_network(rng, rng.randint(5, 40))
            pairs = [(x, y) for x in net.vertices for y in net.vertices if x != y]
            before = dict(calls)
            for x, y in pairs:
                effective_resistance(net, x, y)
            assert calls["factor"] - before["factor"] == 1
            assert calls["check"] - before["check"] == 2 * len(pairs)

    @pytest.mark.parametrize("mode", ["rational", "double"])
    def test_refusals_keep_their_messages_and_build_nothing(self, monkeypatch, mode):
        calls = spy_solves(monkeypatch)
        net = build_network([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)], mode)
        with pytest.raises(ValueError, match="effective resistance needs distinct vertices"):
            effective_resistance(net, "a", "a")
        with pytest.raises(ValueError, match="effective resistance needs distinct vertices"):
            effective_resistance(net, "zz", "zz")
        # y is named first, as when it was the grounded boundary
        with pytest.raises(ValueError, match="vertex 'yy' is not in the network"):
            effective_resistance(net, "xx", "yy")
        for x, y in (("zz", "a"), ("a", "zz")):
            with pytest.raises(ValueError, match="vertex 'zz' is not in the network"):
                effective_resistance(net, x, y)
        assert calls == {"factor": 0, "check": 0}
        assert not hasattr(net, "_grounded")

    def test_rational_keeps_its_exact_route(self, monkeypatch):
        calls = spy_solves(monkeypatch)
        rng = Random(33)
        for _ in range(20):
            net = random_network(rng, rng.randint(3, 8), extra_edges=3)
            for x in net.vertices:
                for y in net.vertices:
                    if x != y:
                        r = effective_resistance(net, x, y)
                        assert type(r) is Fraction
                        assert r == effective_resistance_to_set(net, x, {y})
            assert not hasattr(net, "_grounded")
        assert calls == {"factor": 0, "check": 0}

    def test_served_network_pickles_and_copies(self, monkeypatch):
        # the cached LU does not pickle: a copy leaves it out and factors
        # its own on first use, giving the same resistances
        net = random_double_network(Random(34), 20)
        pairs = [(x, y) for x in net.vertices[:6] for y in net.vertices[-6:]]
        want = [effective_resistance(net, x, y) for x, y in pairs]
        assert hasattr(net, "_grounded")
        calls = spy_solves(monkeypatch)
        for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net), copy.copy(net)):
            assert not hasattr(twin, "_grounded")
            assert [effective_resistance(twin, x, y) for x, y in pairs] == want
        assert calls["factor"] == 3
        assert [effective_resistance(net, x, y) for x, y in pairs] == want
        assert calls["factor"] == 3


def dense_potentials(net, boundary, current):
    """Every vertex's potential from the interior block of the Laplacian,
    assembled densely and solved by Gauss-Jordan over Fractions."""
    interior = [v for v in net.vertices if v not in boundary]
    a = [
        [net.weight(v) if v == w else -net.conductance(v, w) for w in interior]
        for v in interior
    ]
    b = [
        [current.get(v, 0) + sum(net.conductance(v, t) * g for t, g in boundary.items())]
        for v in interior
    ]
    u = dict(boundary)
    u.update((v, row[0]) for v, row in zip(interior, solve_fraction(a, b)))
    return u


def dense_trace(net, keep):
    """Conductances of the Schur complement L_KK - L_KO L_OO^-1 L_OK,
    with L_OO^-1 L_OK solved by Gauss-Jordan over Fractions."""
    kept = [v for v in net.vertices if v in keep]
    drop = [v for v in net.vertices if v not in keep]

    def lap(v, w):
        return net.weight(v) if v == w else -net.conductance(v, w)

    l_oo = [[lap(o, p) for p in drop] for o in drop]
    sol = solve_fraction(l_oo, [[lap(o, k) for k in kept] for o in drop])
    cond = {}
    for i, a in enumerate(kept):
        for j in range(i + 1, len(kept)):
            c = -lap(a, kept[j]) + sum(lap(a, o) * row[j] for o, row in zip(drop, sol))
            if c:
                cond[frozenset((a, kept[j]))] = c
    return cond


class TestRationalSolves:
    def test_equal_dense_reference(self):
        rng = Random(71)
        for _ in range(80):
            net = random_network(rng, rng.randint(3, 8), extra_edges=rng.randint(0, 6))
            x, y = rng.sample(net.vertices, 2)
            r = effective_resistance(net, x, y)
            assert isinstance(r, Fraction)
            assert r == dense_potentials(net, {y: 0}, {x: 1})[x]
            a = frozenset(rng.sample(net.vertices, rng.randint(1, net.n - 1)))
            rest = [v for v in net.vertices if v not in a]
            x = rng.choice(rest)
            grounded = {t: 0 for t in a}
            assert effective_resistance_to_set(net, x, a) == dense_potentials(net, grounded, {x: 1})[x]
            # R(x, A) = G_{V-A}(x, x) / c_x: the network and chain users of
            # the one elimination agree
            green = green_diagonal(walk_from_network(net), frozenset(rest), x)
            assert net.weight(x) * effective_resistance_to_set(net, x, a) == green
            assert trace_network(net, a | {x}).conductances == dense_trace(net, a | {x})
            times = dense_potentials(net, grounded, {v: net.weight(v) for v in rest})
            for v in net.vertices:
                assert expected_exit_time(net, v, a) == times[v]
            hm = hitting_distribution(net, x, a)
            assert list(hm) == [v for v in net.vertices if v in a]
            for s in a:
                assert hm[s] == dense_potentials(net, {t: int(t == s) for t in a}, {})[x]
            bnd = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in a}
            u = harmonic_extension(net, bnd)
            assert list(u) == list(bnd) + rest
            assert u == dense_potentials(net, bnd, {})
            if len(rest) >= 2:
                x, y = rng.sample(rest, 2)
                rep = check_hitting_bound(net, x, y, a)
                assert rep.probability == dense_potentials(net, {**grounded, y: 1}, {})[x]
                r_xy = dense_potentials(net, {y: 0}, {x: 1})[x]
                r_xa = dense_potentials(net, grounded, {x: 1})[x]
                assert rep.vacuous == (r_xa <= r_xy)
                if not rep.vacuous:
                    assert rep.bound == 1 - r_xy / (r_xa - r_xy)

    def test_gasket_level5_corner_resistance(self):
        g = gasket_graph(5)
        net = uniform_network(g, "rational")
        c = corner_indices(g)
        assert effective_resistance(net, c[0], c[1]) == Fraction(2, 3) * Fraction(5, 3) ** 5

    def test_rational_solves_keep_the_min_degree_heap(self, monkeypatch):
        # networks pass no elimination order: reverse vertex order made the
        # rational carpet m3 corner resistance about five times slower
        import lerw.network

        orders = []

        def spy(*args, **kwargs):
            orders.append(kwargs.get("order"))
            lerw._exact.eliminate(*args, **kwargs)

        monkeypatch.setattr(lerw.network, "eliminate", spy)
        net = uniform_network(gasket_graph(2), "rational")
        c = corner_indices(gasket_graph(2))
        assert effective_resistance(net, c[0], c[1]) == Fraction(2, 3) * Fraction(5, 3) ** 2
        trace_network(net, c)
        assert len(orders) == 2 and orders == [None, None]

    def test_long_path_closed_forms(self):
        n = 1100
        net = build_network([(f"p{i}", f"p{i+1}", 1) for i in range(n)])
        assert effective_resistance(net, "p0", f"p{n}") == n
        for i in (1, 377, 550, n - 1):
            assert expected_exit_time(net, f"p{i}", {"p0", f"p{n}"}) == i * (n - i)
            assert expected_exit_time(net, f"p{i}", {f"p{n}"}) == n * n - i * i


class TestUnknownVertices:
    @pytest.mark.parametrize("mode", ["rational", "double"])
    def test_value_error_names_the_vertex(self, mode):
        net = build_network([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)], mode)
        calls = [
            lambda: effective_resistance(net, "zz", "a"),
            lambda: effective_resistance(net, "a", "zz"),
            lambda: effective_resistance_to_set(net, "zz", {"a"}),
            lambda: effective_resistance_to_set(net, "a", {"b", "zz"}),
            lambda: expected_exit_time(net, "zz", {"a"}),
            lambda: expected_exit_time(net, "a", {"b", "zz"}),
            lambda: hitting_distribution(net, "zz", {"a", "b"}),
            lambda: hitting_distribution(net, "a", {"b", "zz"}),
            lambda: hitting_distribution(net, "a", {"a", "zz"}),
            lambda: check_hitting_bound(net, "zz", "a", {"c"}),
            lambda: check_hitting_bound(net, "a", "zz", {"c"}),
            lambda: check_hitting_bound(net, "a", "b", {"zz"}),
            lambda: check_hitting_bound(net, "zz", "zz", {"c"}),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="vertex 'zz' is not in the network"):
                call()


class TestResidualCheck:
    def test_every_double_solve_checks_its_residual(self, monkeypatch):
        import scipy.sparse.linalg

        real = scipy.sparse.linalg.splu

        class Skewed:
            """An LU whose solutions are off by one part in a million."""

            def __init__(self, a, **kwargs):
                self.lu = real(a, **kwargs)

            def solve(self, b):
                return self.lu.solve(b) * (1 + 1e-6)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", Skewed)
        net = long_path(50)
        calls = [
            lambda: effective_resistance(net, "p0", "p50"),
            lambda: effective_resistance_to_set(net, "p10", {"p0", "p50"}),
            lambda: harmonic_extension(net, {"p0": 0.0, "p50": 1.0}),
            lambda: expected_exit_time(net, "p10", {"p50"}),
            lambda: hitting_distribution(net, "p10", {"p0", "p50"}),
            lambda: check_hitting_bound(net, "p10", "p20", {"p0", "p50"}),
            lambda: trace_network(net, {"p0", "p50"}),
        ]
        for call in calls:
            with pytest.raises(SingularSystemError, match="residual"):
                call()

    def test_dense_row_sums_in_blocks_equal_the_whole(self, monkeypatch):
        # row blocks of |a| give the same scale bit for bit, also on a
        # strided view like the grounded block of a larger Laplacian
        rng = np.random.default_rng(5)
        big = rng.standard_normal((60, 70)) * np.exp(rng.uniform(-20, 20, (60, 1)))
        monkeypatch.setattr(lerw._exact, "RESIDUAL_ROWS", 7)
        for a in (big, big[:45, :45], big[::2, 3:]):
            assert lerw._exact._max_row_sum(a) == abs(a).sum(axis=1).max()
        a = big[:45, :45] + 50 * np.eye(45) * abs(big[:45, :45]).max()
        x = np.linalg.solve(a, np.ones(45))
        check_residual(a, x, np.ones(45))
        with pytest.raises(SingularSystemError, match="residual"):
            check_residual(a, x * (1 + 1e-6), np.ones(45))

    def test_dense_check_holds_no_copy_of_the_matrix(self):
        n = 1200
        a = np.eye(n) * 4 - np.eye(n, k=1) - np.eye(n, k=-1)
        b = np.ones(n)
        x = np.linalg.solve(a, b)
        tracemalloc.start()
        try:
            check_residual(a, x, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 2


def dense_laplacian(rng, n, path=()):
    """A dense Laplacian on n points: a random spanning tree plus random
    chords, conductances spread over four decades.  The points in path,
    which must be increasing, are left out of it and joined to each other
    alone, in that order, by unit conductances: a component apart whose
    grounded block is singular, with Cholesky pivots 1, ..., 1, 0 exactly."""
    lap = np.zeros((n, n))
    rest = [v for v in rng.permutation(n).tolist() if v not in set(path)]
    pairs = [(rest[i], rest[rng.integers(i)]) for i in range(1, len(rest))]
    pairs += [tuple(rng.choice(rest, 2, replace=False)) for _ in range(rng.integers(len(rest) * 2))]
    edges = [(a, b, 10 ** rng.uniform(-2, 2)) for a, b in pairs]
    edges += [(a, b, 1.0) for a, b in zip(path, path[1:])]
    for a, b, c in edges:
        lap[a, b] -= c
        lap[b, a] -= c
        lap[a, a] += c
        lap[b, b] += c
    return lap


def copy_trace(lap, nf):
    """The dense trace as it was before it worked in place: a Cholesky
    factor of a copy of the front, then `_schur_laplacian` with its scale
    taken from a full |S| temporary."""
    from scipy.linalg import cho_factor, cho_solve

    schur = lap
    if nf:
        a, b = lap[:nf, :nf], lap[:nf, nf:]
        x = cho_solve(cho_factor(a, check_finite=False), b, check_finite=False)
        check_residual(a, x, b)
        schur = lap[nf:, nf:] - b.T @ x
    scale = max(abs(schur).max(), 1.0)
    c = schur + schur.T
    c *= -0.5
    np.fill_diagonal(c, 0.0)
    c[c <= 1e-13 * scale] = 0.0
    c *= -1.0
    np.fill_diagonal(c, -c.sum(1))
    return c


def split(lap, nf):
    return np.asfortranarray(lap[:nf, :nf]), lap[:nf, nf:].copy(), lap[nf:, nf:].copy()


class TestDenseTrace:
    """`network._dense_trace` factors the front in place and restores it."""

    @pytest.mark.parametrize("rows", [7, lerw.network.RESIDUAL_ROWS])
    def test_in_place_trace_equals_the_copy_based_one(self, monkeypatch, rows):
        # rows: the strip width of the front's restore; 7 takes several
        # strips and a ragged last one on every front past 7 points
        monkeypatch.setattr(lerw.network, "RESIDUAL_ROWS", rows)
        rng = np.random.default_rng(27)
        for n in rng.integers(2, 90, 40).tolist():
            lap = dense_laplacian(rng, n)
            nf = int(rng.integers(n))  # 0: no front, as at a level-0 glue
            ff, fk, kk = split(lap, nf)
            got = lerw.network._dense_trace(ff, fk, kk)
            assert np.array_equal(got, copy_trace(lap, nf))
            assert ff.flags.f_contiguous
            assert np.array_equal(ff, lap[:nf, :nf])  # restored
            assert np.array_equal(fk, lap[:nf, nf:])  # left alone

    def test_disconnected_front_component_is_refused(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            n = int(rng.integers(4, 60))
            nf = int(rng.integers(2, n))
            path = sorted(rng.choice(nf, int(rng.integers(2, min(nf, 6) + 1)), replace=False).tolist())
            lap = dense_laplacian(rng, n, path)
            with pytest.raises(SingularSystemError, match="not positive definite"):
                lerw.network._dense_trace(*split(lap, nf))
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                copy_trace(lap, nf)

    def test_residual_is_checked_against_the_front_itself(self, monkeypatch):
        seen = []

        def spy(a, x, b):
            seen.append((a.copy(), b.copy()))
            return check_residual(a, x, b)

        monkeypatch.setattr(lerw.network, "check_residual", spy)
        monkeypatch.setattr(lerw.network, "RESIDUAL_ROWS", 5)
        rng = np.random.default_rng(29)
        for n in (3, 12, 40):
            lap = dense_laplacian(rng, n)
            nf = n - 2
            lerw.network._dense_trace(*split(lap, nf))
            a, b = seen.pop()
            assert np.array_equal(a, lap[:nf, :nf])
            assert np.array_equal(b, lap[:nf, nf:])
        assert not seen
