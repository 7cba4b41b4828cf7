"""Green tables, path-probability products, exact laws, traced kernels."""

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from lerw import _exact, exactlaw
from lerw._exact import SingularSystemError, solve_fraction
from lerw.chain import MarkovChain, build_chain, dense_chain as named_chain, reachability_closure
from lerw.cli import _buggy_ple_step, _nested_pipelines, bundled_chain
from lerw.erasure import fold_step, loop_erase, partial_loop_erase
from lerw.exactlaw import (
    DELTA,
    GuardError,
    PathLaw,
    enumerate_erasure_law,
    enumerate_trajectories,
    f_product,
    green,
    green_diagonal,
    law_from_text,
    law_to_text,
    le_path_probability,
    traced_kernel,
    tv_distance,
)

from _gen import dense_chain, nested_sequences, reversible_chain, sparse_chain


def escape_chain():
    return build_chain(
        "abc",
        [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["0", "0", "1"]],
        "rational",
    )


def cycle_chain():
    # simple random walk on the 4-cycle a-b-c-d
    h = Fraction(1, 2)
    z = Fraction(0)
    rows = (
        (z, h, z, h),
        (h, z, h, z),
        (z, h, z, h),
        (h, z, h, z),
    )
    return build_chain("abcd", rows, "rational")


class TestGreen:
    def test_escape_chain_values(self):
        g = green(escape_chain(), {"a", "b"})
        assert g.value("a", "a") == Fraction(4, 3)
        assert g.value("a", "b") == Fraction(2, 3)
        assert g.value("b", "b") == Fraction(4, 3)
        assert g.value("b", "a") == Fraction(2, 3)

    def test_full_domain_rejected(self):
        with pytest.raises(ValueError, match="strict subset"):
            green(escape_chain(), {"a", "b", "c"})

    def test_trapped_domain_singular(self):
        ch = build_chain(
            "atz",
            [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        with pytest.raises(SingularSystemError, match="almost sure"):
            green(ch, {"a", "t"})

    def test_diagonal_ignores_unreachable_trap(self):
        # t never exits, but a cannot reach t, so G(a,a) is still defined
        ch = build_chain(
            "atc",
            [["1/2", "0", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        assert green_diagonal(ch, {"a", "t"}, "a") == Fraction(2)

    def test_strong_markov_identity(self):
        # G_B(x, y) = P_x(hit y before leaving B) * G_B(y, y)
        rng = Random(42)
        for _ in range(40):
            ch = dense_chain(rng, rng.randint(3, 5))
            states = list(ch.states)
            b = frozenset(rng.sample(states, rng.randint(2, len(states) - 1)))
            g = green(ch, b)
            outside = frozenset(states) - b
            for x in b:
                for y in b:
                    if x == y:
                        continue
                    hit = traced_kernel(ch, {x, y}, outside, "exclude-current").transition(x, y)
                    assert g.value(x, y) == hit * g.value(y, y)

    def test_one_shot_domain(self):
        ch = named_chain(Random(1), 4, 12)
        g = green(ch, iter(["s0", "s1", "s2"]))
        assert g == green(ch, {"s0", "s1", "s2"})
        assert g.states == ("s0", "s1", "s2")
        with pytest.raises(ValueError, match="unknown"):
            green(ch, iter(["s9", "s0"]))

    def test_double_mode_agrees(self):
        g_exact = green(escape_chain(), {"a", "b"})
        g_float = green(escape_chain().as_double(), {"a", "b"})
        for x in "ab":
            for y in "ab":
                assert abs(g_float.value(x, y) - float(g_exact.value(x, y))) < 1e-12


def exact_twin(chain):
    """The rational chain of a double chain's exact entries, each row over its own total."""
    rows = []
    for row in chain.kernel:
        exact = [Fraction(p) for p in row]
        rows.append(tuple(p / sum(exact) for p in exact))
    return MarkovChain(chain.states, tuple(rows), "rational")


class TestDoubleMode:
    def test_double_results_are_rounded_exact_values(self):
        # double mode solves nothing in floating point: Green values and
        # traced kernels are the exact values of the float kernel, rounded once
        rng = Random(31)
        for _ in range(40):
            ch = dense_chain(rng, rng.randint(3, 6)).as_double()
            twin = exact_twin(ch)
            states = list(ch.states)
            b = frozenset(rng.sample(states, rng.randint(1, len(states) - 1)))
            g, g_exact = green(ch, b), green(twin, b)
            assert g.values == tuple(tuple(float(v) for v in row) for row in g_exact.values)
            for x in b:
                assert green_diagonal(ch, b, x) == g.diag(x) == float(g_exact.diag(x))
            outside = frozenset(states) - b
            a = frozenset(rng.sample(sorted(outside), rng.randint(0, len(outside))))
            for variant in ("hitting-set", "exclude-current"):
                if variant == "exclude-current" and len(b) == 1 and not a:
                    continue
                t, t_exact = traced_kernel(ch, b, a, variant), traced_kernel(twin, b, a, variant)
                assert t.mode == "double"
                assert all(type(p) is float for row in t.kernel for p in row)
                assert t.kernel == tuple(tuple(float(p) for p in row) for row in t_exact.kernel)

    def test_large_green_values_pass(self):
        # exit from {a, b} has probability 1e-8 per step, so G is about
        # 5e7; a float solve of I - Q would lose about eight digits
        e = Fraction(1, 10**8)
        ch = build_chain("abc", [[0, 1 - e, e], [1 - e, 0, e], [0, 0, 1]], "rational")
        exact = green(ch, {"a", "b"})
        approx = green(ch.as_double(), {"a", "b"})
        for x in "ab":
            for y in "ab":
                assert exact.value(x, y) > 10**7
                assert abs(approx.value(x, y) / float(exact.value(x, y)) - 1) < 1e-7


class TestFProduct:
    def test_frozen_value(self):
        assert f_product(escape_chain(), {"a", "b"}, ("a", "b")) == Fraction(4, 3)

    def test_permutation_invariance_fuzz(self):
        rng = Random(9)
        for _ in range(60):
            ch = dense_chain(rng, rng.randint(3, 5))
            states = list(ch.states)
            b = frozenset(rng.sample(states, rng.randint(2, len(states) - 1)))
            pts = rng.sample(sorted(map(str, b)), min(3, len(b)))
            vals = {f_product(ch, b, perm) for perm in permutations(pts)}
            assert len(vals) == 1

    def test_shrinking_domain_identity_fuzz(self):
        # the two-point product identity behind the permutation invariance
        rng = Random(10)
        for _ in range(60):
            ch = dense_chain(rng, rng.randint(3, 5))
            states = list(ch.states)
            b = frozenset(rng.sample(states, rng.randint(2, len(states) - 1)))
            x, y = rng.sample(sorted(map(str, b)), 2)
            lhs = green_diagonal(ch, b - {y}, x) * green_diagonal(ch, b, y)
            rhs = green_diagonal(ch, b, x) * green_diagonal(ch, b - {x}, y)
            assert lhs == rhs

    def test_point_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            f_product(escape_chain(), {"a", "b"}, ("a", "a"))
        with pytest.raises(ValueError, match="domain"):
            f_product(escape_chain(), {"a"}, ("a", "b"))


def bad_step(prefix, y, retained):
    """An off-by-one erasure: it keeps the revisited state twice."""
    if retained is None or y in retained:
        for k in range(len(prefix) - 1, -1, -1):
            if prefix[k] == y:
                return prefix[: k + 1] + (y,)
    return prefix + (y,)


def all_simple_absorbed_paths(chain, start, absorbing):
    """Every self-avoiding path from start whose only absorbing state is its end."""
    a = frozenset(absorbing)
    out = []

    def rec(path):
        if path[-1] in a:
            out.append(tuple(path))
            return
        for y in chain.states:
            if y not in path and chain.transition(path[-1], y) > 0:
                rec(path + [y])

    if start in a:
        return [(start,)]
    rec([start])
    return out


class TestLePathProbability:
    def test_frozen_values(self):
        ch = escape_chain()
        assert le_path_probability(ch, {"c"}, ("a", "c")) == Fraction(2, 3)
        assert le_path_probability(ch, {"c"}, ("a", "b", "c")) == Fraction(1, 3)

    def test_validation(self):
        ch = escape_chain()
        with pytest.raises(ValueError, match="self-avoiding"):
            le_path_probability(ch, {"c"}, ("a", "b", "a", "c"))
        with pytest.raises(ValueError, match="end"):
            le_path_probability(ch, {"c"}, ("a", "b"))
        with pytest.raises(ValueError, match="final"):
            le_path_probability(ch, {"b", "c"}, ("a", "b", "c"))

    def test_sums_to_one_fuzz(self):
        rng = Random(17)
        for _ in range(25):
            n = rng.randint(3, 5)
            ch = dense_chain(rng, n)
            a = frozenset(rng.sample(list(ch.states), rng.randint(1, n - 1)))
            start = rng.choice([s for s in ch.states if s not in a])
            total = sum(
                le_path_probability(ch, a, w)
                for w in all_simple_absorbed_paths(ch, start, a)
            )
            assert total == 1

    def test_trivial_start_in_absorbing(self):
        assert le_path_probability(escape_chain(), {"c"}, ("c",)) == 1


class TestEnumerate:
    def test_mass_conservation_exact(self):
        rng = Random(23)
        for _ in range(10):
            ch = dense_chain(rng, rng.randint(2, 4))
            law = enumerate_erasure_law(ch, "a", {ch.states[-1]}, "LE", length_cap=12)
            assert law.total() + law.tail_bound == 1

    def test_matches_naive_enumeration_le(self):
        ch = dense_chain(Random(5), 3)
        cap = 9
        atoms = {}

        def visit(traj, prob):
            key = loop_erase(traj).path
            atoms[key] = atoms.get(key, Fraction(0)) + prob

        tail = enumerate_trajectories(ch, "a", {"c"}, cap, visit)
        law = enumerate_erasure_law(ch, "a", {"c"}, "LE", length_cap=cap)
        assert law.tail_bound == tail
        assert law.atoms == atoms

    def test_matches_naive_enumeration_pipeline(self):
        ch = dense_chain(Random(6), 4)
        cap = 7
        pipeline = [frozenset("ab"), frozenset("abcd")]
        atoms = {}

        def visit(traj, prob):
            key = partial_loop_erase(
                partial_loop_erase(traj, pipeline[0]).path, pipeline[1]
            ).path
            atoms[key] = atoms.get(key, Fraction(0)) + prob

        tail = enumerate_trajectories(ch, "a", {"d"}, cap, visit)
        law = enumerate_erasure_law(ch, "a", {"d"}, pipeline, length_cap=cap)
        assert law.tail_bound == tail
        assert law.atoms == atoms

    def test_matches_closed_form(self):
        rng = Random(31)
        for _ in range(8):
            n = rng.randint(3, 5)
            ch = dense_chain(rng, n)
            a = frozenset(rng.sample(list(ch.states), rng.randint(1, n - 2) if n > 3 else 1))
            start = rng.choice([s for s in ch.states if s not in a])
            law = enumerate_erasure_law(ch, start, a, "LE", tol=Fraction(1, 10**9))
            for w in all_simple_absorbed_paths(ch, start, a):
                exact = le_path_probability(ch, a, w)
                deficit = exact - law.mass(w)
                assert 0 <= deficit <= law.tail_bound

    def test_nested_matches_full_smoke(self):
        ch = dense_chain(Random(41), 4)
        full = frozenset(ch.states)
        tol = Fraction(1, 10**9)
        le = enumerate_erasure_law(ch, "a", {"d"}, "LE", tol=tol)
        for pipeline in ([frozenset("a"), full], [frozenset("b"), frozenset("bc"), full]):
            ref = enumerate_erasure_law(ch, "a", {"d"}, pipeline, tol=tol)
            assert tv_distance(le, ref) <= le.tail_bound + ref.tail_bound

    def test_negative_control_detected(self):
        # an off-by-one erasure keeps the revisited state twice; the laws
        # split.  Heavy absorption keeps the cap-12 tails near 2^-12 while
        # the corruption moves mass at order one; a fixed short cap matters
        # because the corrupted step never truncates, so its state space
        # grows with the horizon and a tol call hits the tower guard
        t = Fraction(1, 12)
        ch = build_chain(
            list("abcd"),
            [
                [t, 2 * t, 3 * t, 6 * t],
                [3 * t, t, 2 * t, 6 * t],
                [2 * t, 3 * t, t, 6 * t],
                [0, 0, 0, 1],
            ],
            "rational",
        )
        full = frozenset(ch.states)
        le = enumerate_erasure_law(ch, "a", {"d"}, "LE", length_cap=12)
        bad = enumerate_erasure_law(
            ch, "a", {"d"}, [frozenset("ab"), full], length_cap=12, step_fn=bad_step
        )
        assert tv_distance(le, bad) > le.tail_bound + bad.tail_bound

    def test_dirac_when_started_absorbed(self):
        law = enumerate_erasure_law(escape_chain(), "c", {"c"}, "LE")
        assert law.atoms == {("c",): 1} and law.tail_bound == 0

    def test_state_guard(self):
        rng = Random(2)
        ch = dense_chain(rng, 8)
        big = build_chain(
            [f"s{i}" for i in range(9)],
            [[Fraction(1, 9)] * 9 for _ in range(9)],
            "rational",
        )
        with pytest.raises(GuardError, match="guarded"):
            enumerate_erasure_law(big, "s0", {"s8"}, "LE")
        # 8 states is inside the guard
        enumerate_erasure_law(ch, "a", {"h"}, "LE", length_cap=4)

    def test_precondition_start(self):
        ch = build_chain(
            "atz",
            [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        with pytest.raises(ValueError, match="almost sure"):
            enumerate_erasure_law(ch, "a", {"t"}, "LE")

    def test_pipeline_validation(self):
        ch = escape_chain()
        with pytest.raises(ValueError, match="nested"):
            enumerate_erasure_law(ch, "a", {"c"}, [frozenset("ab"), frozenset("a")])
        with pytest.raises(ValueError, match="state space"):
            enumerate_erasure_law(ch, "a", {"c"}, [frozenset("aq")])
        with pytest.raises(ValueError, match="unknown pipeline"):
            enumerate_erasure_law(ch, "a", {"c"}, "PLE")

    def test_double_mode_close_to_rational(self):
        ch = dense_chain(Random(8), 4)
        law_r = enumerate_erasure_law(ch, "a", {"d"}, "LE", length_cap=25)
        law_d = enumerate_erasure_law(ch.as_double(), "a", {"d"}, "LE", length_cap=25)
        assert law_d.mode == "double"
        for path, mass in law_r.atoms.items():
            assert abs(law_d.mass(path) - float(mass)) < 1e-12


class TestExactElimination:
    """tol laws of pipelines ending in the full set: tower chain eliminated exactly."""

    def test_exact_laws_fuzz(self):
        rng = Random(61)
        tol = Fraction(1, 10**9)
        checked = 0
        for _ in range(40):
            n = rng.randint(3, 5)
            ch = dense_chain(rng, n)
            states = ch.states
            pipes = list(nested_sequences(states, 2)) + list(nested_sequences(states, 3))
            for r in range(1, n):
                for a in map(frozenset, combinations(states, r)):
                    start = rng.choice([s for s in states if s not in a])
                    le = enumerate_erasure_law(ch, start, a, "LE", tol=tol)
                    assert le.tail_bound == 0 and le.total() == 1
                    assert set(le.atoms) == set(all_simple_absorbed_paths(ch, start, a))
                    for w, mass in le.atoms.items():
                        assert mass == le_path_probability(ch, a, w)
                    sample = rng.sample(pipes, 3)
                    for pipe in sample:
                        law = enumerate_erasure_law(ch, start, a, list(pipe), tol=tol)
                        assert law.tail_bound == 0
                        assert law.atoms == le.atoms, (sorted(a), pipe)
                    double = enumerate_erasure_law(ch.as_double(), start, a, "LE", tol=1e-9)
                    assert double.mode == "double" and double.tail_bound == 0
                    assert set(double.atoms) == set(le.atoms)
                    for w, mass in le.atoms.items():
                        assert abs(double.atoms[w] / float(mass) - 1) <= 1e-12
                    # each double atom is rounded once from the exact law, so
                    # a pipeline law equal in exact arithmetic is equal bit for bit
                    nested = enumerate_erasure_law(ch.as_double(), start, a, list(sample[0]), tol=1e-9)
                    assert nested.atoms == double.atoms and tv_distance(nested, double) == 0
                    checked += 1
        assert checked > 200

    def test_partial_last_stage_still_time_steps(self):
        # the last stage keeps its literal path of unretained states, so
        # the tower space is unbounded and the tail stays certified, not 0
        ch = dense_chain(Random(7), 3)
        law = enumerate_erasure_law(ch, "a", {"c"}, [frozenset({"a"})], tol=1e-3)
        assert 0 < law.tail_bound <= Fraction(1, 1000)
        assert law.total() + law.tail_bound == 1

    def test_dirac_under_tol(self):
        law = enumerate_erasure_law(escape_chain(), "c", {"c"}, "LE", tol=Fraction(1, 10**9))
        assert law.atoms == {("c",): 1} and law.tail_bound == 0

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            enumerate_erasure_law(escape_chain(), "a", {"c"}, "LE", tol=0)

    def test_tower_guard(self, monkeypatch):
        # the broken step never cuts a path short, so its tower chain is
        # infinite; the breadth-first build must stop at the guard (set
        # low here so the test does not build a million towers first)
        monkeypatch.setattr(exactlaw, "TOWER_GUARD", 50)
        ch = dense_chain(Random(5), 4)
        pipe = [frozenset("ab"), frozenset(ch.states)]
        with pytest.raises(GuardError, match="50 towers"):
            enumerate_erasure_law(ch, "a", {"d"}, pipe, tol=Fraction(1, 10**9), step_fn=bad_step)
        # the cap-12 time-stepping of the same broken step interns 91
        # towers: the guard stops it too, and at 91 it returns
        with pytest.raises(GuardError, match="50 towers"):
            enumerate_erasure_law(ch, "a", {"d"}, pipe, length_cap=12, step_fn=bad_step)
        monkeypatch.setattr(exactlaw, "TOWER_GUARD", 91)
        capped = enumerate_erasure_law(ch, "a", {"d"}, pipe, length_cap=12, step_fn=bad_step)
        assert capped.tail_bound > 0

    def test_stepped_route_shares_the_tower_guard(self, monkeypatch):
        # an empty stage keeps every path, so the stepped route's towers
        # double with each step: without the guard this call runs until
        # memory is exhausted; at 20,000 towers it stops in about 0.1 s
        monkeypatch.setattr(exactlaw, "TOWER_GUARD", 20_000)
        ch = build_chain(
            "abc", [["9/10", "1/20", "1/20"], ["1/20", "9/10", "1/20"], ["0", "0", "1"]], "rational"
        )
        with pytest.raises(GuardError, match="20000 towers"):
            enumerate_erasure_law(ch, "a", {"c"}, [frozenset()], tol=Fraction(1, 100))

    def test_stepped_route_guards_the_states_its_towers_hold(self, monkeypatch):
        # the same towers are long paths: the state bound stops the call
        # by name while the tower count is far below its guard, and an
        # eliminated law, whose towers are not counted, is unchanged
        ch = build_chain(
            "abc", [["9/10", "1/20", "1/20"], ["1/20", "9/10", "1/20"], ["0", "0", "1"]], "rational"
        )
        tol = Fraction(1, 100)
        le = enumerate_erasure_law(ch, "a", {"c"}, "LE", tol=tol)
        capped = enumerate_erasure_law(ch, "a", {"c"}, [frozenset()], length_cap=6)
        monkeypatch.setattr(exactlaw, "TOWER_STATE_GUARD", 2_000)
        with pytest.raises(GuardError, match="more than 2000 path states"):
            enumerate_erasure_law(ch, "a", {"c"}, [frozenset()], tol=tol)
        with pytest.raises(GuardError, match="more than 2000 path states"):
            enumerate_erasure_law(ch, "a", {"c"}, [frozenset()], length_cap=12)
        assert enumerate_erasure_law(ch, "a", {"c"}, [frozenset()], length_cap=6) == capped
        monkeypatch.setattr(exactlaw, "TOWER_STATE_GUARD", 0)
        assert enumerate_erasure_law(ch, "a", {"c"}, "LE", tol=tol) == le


def pipeline_shapes(rng: Random, states: tuple, start, absorbing: frozenset) -> list:
    """LE plus one 2- and one 3-stage pipeline with the start inside V1 and
    one of each with it outside, stages drawn at random below the full set."""
    full = frozenset(states)
    others = [s for s in states if s != start and s not in absorbing]
    shapes: list = ["LE"]
    for start_in in (True, False):
        v1 = frozenset(rng.sample(others, rng.randint(0 if start_in else 1, len(others))))
        v1 |= {start} if start_in else set()
        v2 = v1 | frozenset(rng.sample(others, rng.randint(0, len(others))))
        shapes += [[v1, full], [v1, v2, full]]
    return shapes


def heap_eliminate(out, sinks, keep, order=None):
    """`_exact.eliminate` with the order dropped, so the min-degree heap runs."""
    _exact.eliminate(out, sinks, keep)


def record_orders(monkeypatch) -> list:
    """Make exactlaw's `eliminate` log (rows, keep, order) for each call."""
    seen: list = []

    def spy(out, sinks, keep, order=None):
        seen.append((len(out), keep, order))
        _exact.eliminate(out, sinks, keep, order=order)

    monkeypatch.setattr(exactlaw, "eliminate", spy)
    return seen


class TestEliminationOrder:
    """The tower chain goes leaves first; the result must not depend on it."""

    def test_orders_agree_fuzz(self, monkeypatch):
        rng = Random(29)
        cases = []
        for i in range(40):
            ch = dense_chain(rng, 3 + i % 4)
            states = ch.states
            a = frozenset(rng.sample(states, rng.randint(1, len(states) - 2)))
            start = rng.choice([s for s in states if s not in a])
            for pipe in pipeline_shapes(rng, states, start, a):
                cases += [(ch, start, a, pipe), (ch.as_double(), start, a, pipe)]
        laws = [enumerate_erasure_law(ch, x, a, pipe, tol=1e-9) for ch, x, a, pipe in cases]
        monkeypatch.setattr(exactlaw, "eliminate", heap_eliminate)
        for (ch, x, a, pipe), law in zip(cases, laws):
            heap = enumerate_erasure_law(ch, x, a, pipe, tol=1e-9)
            assert law.tail_bound == heap.tail_bound == 0
            # rational: Fraction ==; double: the same floats bit for bit
            assert law.atoms == heap.atoms, (ch.mode, x, sorted(a), pipe)
            assert law_to_text(law) == law_to_text(heap)
        assert {len(ch.states) for ch, *_ in cases} == {3, 4, 5, 6}

    def test_tower_chain_is_eliminated_leaves_first(self, monkeypatch):
        seen = record_orders(monkeypatch)
        ch = dense_chain(Random(3), 4)
        enumerate_erasure_law(ch, "a", {"d"}, [frozenset("b"), frozenset(ch.states)], tol=1e-9)
        ((n, keep, order),) = seen
        assert keep == {0} and list(order) == list(range(n - 1, 0, -1)) and n > 1

    def test_given_order_is_followed(self):
        # a three-row chain 0 -> 1 -> 2 -> sink, keeping row 0
        out = [{1: 1}, {2: 2, 0: 1}, {1: 1}]
        sinks = [{}, {}, {"z": 3}]
        stars: list = []
        _exact.eliminate(out, sinks, {0}, stars=stars, order=[1, 2])
        assert [s for s, *_ in stars] == [1, 2]
        # from 0 the chain returns to 0 with probability 2/5 and ends at z otherwise
        row, dead = out[0], sinks[0]
        assert Fraction(row[0], row[0] + dead["z"]) == Fraction(2, 5)

    @pytest.mark.parametrize(
        "order",
        [[1], [1, 1], [1, 2, 2], [0, 1, 2], [1, 3]],
        ids=["misses", "repeats-in-place", "repeats", "names-kept", "unknown"],
    )
    def test_bad_order_rejected(self, order):
        out = [{1: 1}, {2: 2, 0: 1}, {1: 1}]
        sinks = [{}, {}, {"z": 3}]
        with pytest.raises(ValueError, match="exactly once"):
            _exact.eliminate(out, sinks, {0}, order=order)
        # rejected before any row is touched
        assert out == [{1: 1}, {2: 2, 0: 1}, {1: 1}] and sinks == [{}, {}, {"z": 3}]

    def test_reduce_keeps_the_heap(self, monkeypatch):
        seen = record_orders(monkeypatch)
        traced_kernel(dense_chain(Random(4), 5), "abc", "e")
        assert [order for _, _, order in seen] == [None]


class TestAbsorbingMoves:
    """A move into the absorbing set is fed to the innermost stage only, but
    still through step_fn, so negative controls see every step."""

    @staticmethod
    def marking_step(prefix, y, retained):
        out = fold_step(prefix, y, retained)
        return out + ("!",) if y == "d" else out

    @pytest.mark.parametrize(
        "pipe", ["LE", ["ab", "abcd"], ["b", "abc", "abcd"]], ids=["LE", "two", "three"]
    )
    @pytest.mark.parametrize("solve", [True, False], ids=["eliminated", "stepped"])
    def test_step_fn_sees_absorbing_moves(self, pipe, solve):
        ch = dense_chain(Random(8), 4)
        if pipe != "LE":
            pipe = [frozenset(v) for v in pipe]
        kw = {"tol": 1e-9} if solve else {"length_cap": 8}
        law = enumerate_erasure_law(ch, "a", {"d"}, pipe, step_fn=self.marking_step, **kw)
        plain = enumerate_erasure_law(ch, "a", {"d"}, pipe, **kw)
        assert law.atoms == {p + ("!",): m for p, m in plain.atoms.items()}
        assert law.tail_bound == plain.tail_bound

    def test_buggy_step_sees_absorbing_moves(self):
        # the CLI's negative control keeps a revisited state twice; it must
        # still be called on the moves into the absorbing set, and the
        # refined law must still split from LE beyond the tail bounds
        calls = []

        def spy(prefix, y, retained):
            calls.append(y)
            return _buggy_ple_step(prefix, y, retained)

        ch = bundled_chain()
        pipe = [frozenset("ab"), frozenset(ch.states)]
        le = enumerate_erasure_law(ch, "a", {"d"}, "LE", length_cap=12)
        bad = enumerate_erasure_law(ch, "a", {"d"}, pipe, length_cap=12, step_fn=spy)
        assert "d" in calls
        assert all(p[-1] == "d" for p in bad.atoms)
        assert tv_distance(le, bad) > le.tail_bound + bad.tail_bound


def lazy_chain():
    """A 4-state chain that mostly stays put: each row holds 7/8 or more
    on its diagonal and the rest in 32nds, some of them 0.  Its entries
    are dyadic, so its double twin has the same exact kernel."""
    e = Fraction(1, 32)
    rows = [
        [28 * e, 2 * e, 0, 2 * e],
        [e, 28 * e, 2 * e, e],
        [0, e, 28 * e, 3 * e],
        [e, e, e, 29 * e],
    ]
    return build_chain("abcd", rows, "rational")


class TestStayPutMoves:
    """The eliminated route skips moves that stay put, which map a tower to
    itself, and gives exits their final path without a fold.  Laws must
    not move, and the stepped route and every step_fn still see each move."""

    @pytest.mark.parametrize("mode", ["rational", "double"])
    def test_lazy_chain_laws(self, mode):
        exact = lazy_chain()
        ch = exact if mode == "rational" else exact.as_double()
        tol = Fraction(1, 10**9) if mode == "rational" else 1e-9
        pipes = _nested_pipelines(ch.states)
        checked = 0
        for r in (1, 2, 3):
            for a in map(frozenset, combinations(ch.states, r)):
                for x in (s for s in ch.states if s not in a):
                    le = enumerate_erasure_law(ch, x, a, "LE", tol=tol)
                    assert le.tail_bound == 0
                    assert set(le.atoms) == set(all_simple_absorbed_paths(exact, x, a))
                    for w, mass in le.atoms.items():
                        p = le_path_probability(exact, a, w)
                        # a double atom is the exact value rounded once
                        assert mass == (p if mode == "rational" else float(p))
                    if r == 3:
                        continue
                    for pipe in pipes:
                        law = enumerate_erasure_law(ch, x, a, pipe, tol=tol)
                        assert law.atoms == le.atoms, (x, sorted(a), pipe)
                        checked += 1
        assert checked > 2000

    @pytest.mark.parametrize("solve", [True, False], ids=["eliminated", "stepped"])
    def test_fold_sees_stay_put_moves_only_when_stepped(self, monkeypatch, solve):
        stays, exits = [], []

        def spy(prefix, y, retained):
            stays.append(prefix[-1:] == (y,))
            exits.append(y == "d")
            return fold_step(prefix, y, retained)

        monkeypatch.setattr(exactlaw, "fold_step", spy)
        kw = {"tol": Fraction(1, 10**9)} if solve else {"length_cap": 6}
        enumerate_erasure_law(lazy_chain(), "a", {"d"}, "LE", **kw)
        assert any(stays) != solve
        assert not any(exits)

    @pytest.mark.parametrize("solve", [True, False], ids=["eliminated", "stepped"])
    def test_step_fn_sees_stay_put_moves_and_exits(self, solve):
        stays, exits = [], []

        def spy(prefix, y, retained):
            stays.append(prefix[-1:] == (y,))
            exits.append(y == "d")
            return fold_step(prefix, y, retained)

        kw = {"tol": Fraction(1, 10**9)} if solve else {"length_cap": 6}
        law = enumerate_erasure_law(lazy_chain(), "a", {"d"}, "LE", step_fn=spy, **kw)
        assert any(stays) and any(exits)
        assert law == enumerate_erasure_law(lazy_chain(), "a", {"d"}, "LE", **kw)

    def test_buggy_step_sees_self_loops(self, monkeypatch):
        # the only revisits are self-loops: were they skipped for a step_fn,
        # the broken erasure would go unseen and give LE's law
        ch = build_chain("ab", [["1/2", "1/2"], ["0", "1"]], "rational")
        tol = Fraction(1, 10**9)
        le = enumerate_erasure_law(ch, "a", {"b"}, "LE", tol=tol)
        assert le.atoms == {("a", "b"): 1} and le.tail_bound == 0
        # the broken step keeps every self-loop, so its tower chain is
        # infinite: with tol the elimination stops at the (lowered) guard
        monkeypatch.setattr(exactlaw, "TOWER_GUARD", 50)
        with pytest.raises(GuardError, match="50 towers"):
            enumerate_erasure_law(ch, "a", {"b"}, "LE", tol=tol, step_fn=_buggy_ple_step)
        bad = enumerate_erasure_law(ch, "a", {"b"}, "LE", length_cap=12, step_fn=_buggy_ple_step)
        assert tv_distance(le, bad) > le.tail_bound + bad.tail_bound


def fraction_law(rng: Random, paths: list, tail_share: int) -> PathLaw:
    """A rational law built from Fraction atoms with unrelated denominators."""
    atoms = {p: Fraction(rng.randint(1, 9), rng.randint(1, 40) * 10) for p in paths}
    tail = Fraction(tail_share, 997)
    room = 1 - tail
    scale = sum(atoms.values()) / room if sum(atoms.values()) > room else 1
    return PathLaw({p: m / scale for p, m in atoms.items()}, tail, "rational")


def reference_tv(a: PathLaw, b: PathLaw) -> Fraction:
    """Half the l1 distance, one Fraction per atom."""
    keys = set(a.atoms) | set(b.atoms)
    zero = Fraction(0)
    return sum((abs(a.atoms.get(k, zero) - b.atoms.get(k, zero)) for k in keys), zero) / 2


class TestPathLawType:
    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            PathLaw({("a",): Fraction(3, 4)}, Fraction(1, 2), "rational")
        with pytest.raises(ValueError, match="exceed"):
            PathLaw.from_weights({("a",): 3, ("b",): 2}, 1, 5)

    def test_non_positive_rejected(self):
        for mass in (Fraction(0), Fraction(-1, 3)):
            with pytest.raises(ValueError, match="positive"):
                PathLaw({("a",): mass, ("b",): Fraction(1, 3)}, Fraction(0), "rational")
        for w in (0, -2):
            with pytest.raises(ValueError, match="positive"):
                PathLaw.from_weights({("a",): w, ("b",): 1}, 0, 3)
        with pytest.raises(ValueError, match="non-negative"):
            PathLaw.from_weights({("a",): 1}, -1, 3)

    def test_integer_form_matches_fraction_reference(self):
        rng = Random(13)
        paths = [("a", str(k)) for k in range(12)]
        for trial in range(300):
            left = rng.sample(paths, rng.randint(0, 6))
            kind = trial % 3
            if kind == 0:  # disjoint supports
                right = rng.sample([p for p in paths if p not in left], rng.randint(0, 6))
            else:
                right = rng.sample(paths, rng.randint(0, 6))
            a = fraction_law(rng, left, rng.randint(0, 200))
            b = a if kind == 1 else fraction_law(rng, right, rng.randint(0, 200))
            if kind == 1 and trial % 2:  # the same law, built again
                b = PathLaw(dict(a.atoms), a.tail_bound, "rational")
            for law in (a, b):
                assert law.total() == sum(law.atoms.values(), Fraction(0))
                weights, tail, scale = law.form
                assert Fraction(tail, scale) == law.tail_bound
                for p in paths:
                    assert law.mass(p) == law.atoms.get(p, Fraction(0))
                    assert Fraction(weights.get(p, 0), scale) == law.mass(p)
            tv = tv_distance(a, b)
            assert isinstance(tv, Fraction) and tv == reference_tv(a, b)
            assert tv_distance(b, a) == tv
            if kind == 1:
                assert tv == 0

    def test_enumerated_and_fraction_built_laws_agree(self):
        ch = dense_chain(Random(8), 4)
        full = frozenset(ch.states)
        laws = [
            enumerate_erasure_law(ch, "a", {"d"}, "LE", tol=Fraction(1, 10**9)),
            enumerate_erasure_law(ch, "a", {"d"}, [frozenset("b"), full], length_cap=9),
            enumerate_erasure_law(ch, "d", {"d"}, "LE"),
        ]
        for law in laws:
            again = PathLaw(dict(law.atoms), law.tail_bound, "rational")
            assert again.atoms == law.atoms and again.tail_bound == law.tail_bound
            assert law_to_text(again) == law_to_text(law)
            assert again.total() == law.total()
            assert tv_distance(again, law) == 0
            assert tv_distance(laws[0], again) == tv_distance(laws[0], law)

    def test_text_roundtrip_rational(self):
        law = enumerate_erasure_law(dense_chain(Random(3), 3), "a", {"c"}, "LE", length_cap=15)
        again = law_from_text(law_to_text(law))
        assert again.tail_bound == law.tail_bound
        assert {tuple(map(str, k)): v for k, v in law.atoms.items()} == again.atoms

    def test_text_roundtrip_double(self):
        law = enumerate_erasure_law(
            dense_chain(Random(3), 3).as_double(), "a", {"c"}, "LE", length_cap=15
        )
        again = law_from_text(law_to_text(law))
        assert again.mode == "double"
        assert again.tail_bound == law.tail_bound
        for k, v in law.atoms.items():
            assert again.atoms[tuple(map(str, k))] == v

    def test_text_roundtrip_double_without_decimal_point(self):
        # repr(1e-05) has no "."; the law must still read back as double
        law = PathLaw({("a", "b"): 1e-05, ("a", "c"): 2e-05}, 1e-10, "double")
        again = law_from_text(law_to_text(law))
        assert again.mode == "double"
        assert again.atoms == {("a", "b"): 1e-05, ("a", "c"): 2e-05}
        assert again.tail_bound == 1e-10


class TestTracedKernel:
    def test_exclude_current_frozen(self):
        t = traced_kernel(cycle_chain(), {"a", "c"}, {"d"}, "exclude-current")
        assert t.states == ("a", "c", DELTA)
        assert t.transition("a", "c") == Fraction(1, 3)
        assert t.transition("a", DELTA) == Fraction(2, 3)
        assert t.transition("a", "a") == 0

    def test_hitting_set_frozen(self):
        t = traced_kernel(cycle_chain(), {"a", "c"}, {"d"}, "hitting-set")
        assert t.transition("a", "a") == Fraction(1, 4)
        assert t.transition("a", "c") == Fraction(1, 4)
        assert t.transition("a", DELTA) == Fraction(1, 2)

    def test_rows_stochastic_by_construction(self):
        # MarkovChain validation would have raised otherwise; spot-check anyway
        t = traced_kernel(dense_chain(Random(12), 5), {"a", "c"}, {"e"}, "hitting-set")
        for row in t.kernel:
            assert sum(row) == 1

    def test_tower_property_both_variants(self):
        rng = Random(77)
        for trial in range(100):
            ch = dense_chain(rng, 6)
            states = list(ch.states)
            a = frozenset(rng.sample(states, rng.randint(1, 2)))
            rest = [s for s in states if s not in a]
            v2 = frozenset(rng.sample(rest, rng.randint(2, len(rest))))
            v1 = frozenset(rng.sample(sorted(map(str, v2)), rng.randint(1, len(v2) - 1)))
            for variant in ("hitting-set", "exclude-current"):
                via_v2 = traced_kernel(ch, v2, a, variant)
                towered = traced_kernel(via_v2, v1, {DELTA}, variant)
                direct = traced_kernel(ch, v1, a, variant)
                assert towered == direct, (trial, variant)

    def test_reversibility_preserved(self):
        # hitting-set only: reversing a path keeps its interior outside
        # subset and absorber, so detailed balance survives the trace.
        # exclude-current paths may revisit their source, whose reversal
        # is not an exclude-current path, and balance genuinely fails.
        rng = Random(78)
        for _ in range(40):
            ch, weights = reversible_chain(rng, rng.randint(4, 6))
            states = list(ch.states)
            a = frozenset(rng.sample(states, 1))
            rest = [s for s in states if s not in a]
            sub = frozenset(rng.sample(rest, rng.randint(2, 3)))
            t = traced_kernel(ch, sub, a, "hitting-set")
            for x in sub:
                for y in sub:
                    assert weights[x] * t.transition(x, y) == weights[y] * t.transition(y, x)

    def test_one_shot_subset(self):
        ch = named_chain(Random(1), 4, 12)
        for variant in ("hitting-set", "exclude-current"):
            t = traced_kernel(ch, iter(["s0", "s1", "s2"]), (), variant)
            assert t.states == ("s0", "s1", "s2")
            assert t == traced_kernel(ch, {"s0", "s1", "s2"}, (), variant)
        with pytest.raises(ValueError, match="unknown"):
            traced_kernel(ch, (s for s in ["s9", "s0"]))

    def test_no_killing_variant(self):
        t = traced_kernel(cycle_chain(), {"a", "c"}, (), "exclude-current")
        assert t.states == ("a", "c")
        assert t.transition("a", "c") == 1

    def test_validation(self):
        ch = cycle_chain()
        with pytest.raises(ValueError, match="disjoint"):
            traced_kernel(ch, {"a", "d"}, {"d"})
        with pytest.raises(ValueError, match="non-empty"):
            traced_kernel(ch, set(), {"d"})
        with pytest.raises(ValueError, match="variant"):
            traced_kernel(ch, {"a"}, {"d"}, "median")
        trap = build_chain(
            "atz",
            [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        with pytest.raises(ValueError, match="almost sure|stall"):
            traced_kernel(trap, {"a", "t"}, {"z"}, "exclude-current")


    def test_unreachable_trap_ignored(self):
        # z is a trap the walk from a never reaches
        ch = build_chain(
            "acz",
            [["1/2", "1/2", "0"], ["1/2", "1/2", "0"], ["0", "0", "1"]],
            "rational",
        )
        h = Fraction(1, 2)
        t = traced_kernel(ch, {"a"}, {"c"}, "hitting-set")
        assert t.states == ("a", DELTA)
        assert t.kernel == ((h, h), (0, 1))
        assert traced_kernel(ch, {"a"}, {"c"}, "exclude-current").kernel == ((0, 1), (0, 1))

    def test_reachable_trap_stalls(self):
        trap = build_chain(
            "atz",
            [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
            "rational",
        )
        for variant in ("hitting-set", "exclude-current"):
            with pytest.raises(ValueError, match="stall"):
                traced_kernel(trap, {"a"}, {"z"}, variant)

    def test_matches_dense_solve_on_sparse_chains(self):
        rng = Random(79)
        checked = refused = 0
        for _ in range(300):
            ch = sparse_chain(rng, rng.randint(3, 7))
            states = list(ch.states)
            sub = frozenset(rng.sample(states, rng.randint(1, len(states) - 1)))
            rest = [s for s in states if s not in sub]
            a = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            for variant in ("hitting-set", "exclude-current"):
                want = dense_traced_rows(ch, sub, a, variant)
                if want is None:
                    with pytest.raises(ValueError):
                        traced_kernel(ch, sub, a, variant)
                    refused += 1
                else:
                    assert traced_kernel(ch, sub, a, variant).kernel == want
                    checked += 1
        assert checked > 500 and refused > 10


def dense_traced_rows(chain, subset, absorbing, variant):
    """Reference traced kernel rows by dense solves of (I - Q) h = R.

    The interior is restricted to the states from which the observation
    is almost sure; None when it is not almost sure from the subset.
    """
    sub = [s for s in chain.states if s in subset]
    a = frozenset(absorbing)
    p = chain.transition
    rows = []
    for x in sub:
        targets = frozenset(sub) - {x} if variant == "exclude-current" else frozenset(sub)
        closure = reachability_closure(chain, targets | a)
        interior = [s for s in chain.states if s in closure and s not in targets | a]

        def first_hit(u):
            return [p(u, t) if t in targets else Fraction(0) for t in sub] + [
                sum((p(u, z) for z in a), Fraction(0))
            ]

        lhs = [[int(u == v) - p(u, v) for v in interior] for u in interior]
        h = dict(zip(interior, solve_fraction(lhs, [first_hit(u) for u in interior])))
        if variant == "exclude-current":
            if x not in closure:
                return None
            row = h[x]
        else:
            row = first_hit(x)
            for y in chain.states:
                if p(x, y) and y not in closure:
                    return None
                if y in h:
                    row = [r + p(x, y) * q for r, q in zip(row, h[y])]
        rows.append(tuple(row if a else row[:-1]))
    if a:
        rows.append((Fraction(0),) * len(sub) + (Fraction(1),))
    return tuple(rows)


def skeleton_and_bridges(w, observed, absorbing):
    """Observed subsequence (ending at DELTA) and the bridge segments."""
    obs = [w[0]]
    bridges = []
    cur = [w[0]]
    for t in range(1, len(w)):
        cur.append(w[t])
        if w[t] in observed or w[t] in absorbing:
            obs.append(DELTA if w[t] in absorbing else w[t])
            bridges.append(tuple(cur))
            cur = [w[t]]
    return tuple(obs), tuple(bridges)


def raw_path_probability(chain, w):
    p = Fraction(1)
    for x, y in zip(w, w[1:]):
        p *= chain.transition(x, y)
    return p


class TestBridgeDecomposition:
    """Conditioned on the observed skeleton, bridges factorize."""

    def build(self):
        # heavy absorption column keeps the cap-9 tail around 2^-9
        rows = [
            ["1/12", "2/12", "3/12", "6/12"],
            ["3/12", "1/12", "2/12", "6/12"],
            ["2/12", "2/12", "1/12", "7/12"],
            ["0", "0", "0", "1"],
        ]
        return build_chain("abcd", rows, "rational")

    def test_skeleton_law_is_markov_with_traced_kernel(self):
        ch = self.build()
        observed = frozenset("ab")
        t = traced_kernel(ch, observed, {"d"}, "hitting-set")
        cap = 9
        skel = {}

        def visit(w, p):
            s, _ = skeleton_and_bridges(w, observed, {"d"})
            skel[s] = skel.get(s, Fraction(0)) + p

        tail = enumerate_trajectories(ch, "a", {"d"}, cap, visit)
        assert tail < Fraction(1, 250)
        for s, mass in skel.items():
            expected = Fraction(1)
            for u, v in zip(s, s[1:]):
                expected *= t.transition(u, v)
            deficit = expected - mass
            assert 0 <= deficit <= tail, s

    def test_bridges_factorize_given_skeleton(self):
        ch = self.build()
        observed = frozenset("ab")
        t = traced_kernel(ch, observed, {"d"}, "hitting-set")
        cap = 9
        joint = {}

        def visit(w, p):
            s, bridges = skeleton_and_bridges(w, observed, {"d"})
            if len(bridges) >= 2:
                key = (s, bridges[0], bridges[1])
                joint[key] = joint.get(key, Fraction(0)) + p

        tail = enumerate_trajectories(ch, "a", {"d"}, cap, visit)
        checked = 0
        for (s, b1, b2), mass in joint.items():
            rest = Fraction(1)
            for u, v in zip(s[2:], s[3:]):
                rest *= t.transition(u, v)
            expected = raw_path_probability(ch, b1) * raw_path_probability(ch, b2) * rest
            deficit = expected - mass
            assert 0 <= deficit <= tail, (s, b1, b2)
            checked += 1
        assert checked > 10
