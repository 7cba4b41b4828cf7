"""Chain construction, serialization, reachability, and sampling."""

from bisect import bisect_right
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from lerw.chain import (
    MarkovChain,
    StepCapExceeded,
    _cum_row,
    build_chain,
    chain_from_text,
    chain_to_text,
    reachability_closure,
    sample_until_entry,
    trajectory_stream,
)

from _gen import dense_chain, sparse_chain


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
