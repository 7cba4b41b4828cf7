"""Erasure operations: frozen examples, naive-vs-fast agreement, properties."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lerw.erasure import (
    ErasureResult,
    algorithm_one,
    algorithm_two,
    concat_paths,
    fold_step,
    loop_erase,
    loop_erase_array,
    loop_erase_naive,
    partial_loop_erase,
    partial_loop_erase_array,
    partial_loop_erase_naive,
    refinement_erase,
    reverse_path,
)
from lerw.fractal import carpet_graph, corner_indices, standard_carpet
from lerw.limits import WalkConfig, _graph_walks

W = ("a", "b", "c", "d", "b", "e", "d")


def fold_erase(w, retained):
    """The erased path as a left fold of fold_step over w."""
    return functools.reduce(lambda prefix, y: fold_step(prefix, y, retained), w[1:], (w[0],))


paths = st.lists(st.integers(0, 5), min_size=1, max_size=40).map(tuple)
small_sets = st.frozensets(st.integers(0, 5))


class TestFrozenExample:
    # the worked seven-step walk, all values pinned byte for byte

    def test_loop_erase_path(self):
        assert loop_erase(W).path == ("a", "b", "e", "d")

    def test_loop_erase_indices(self):
        assert loop_erase(W).indices == (0, 1, 5, 6)

    def test_partial_loop_erase(self):
        r = partial_loop_erase(W, {"a", "c", "d", "e"})
        assert r.path == ("a", "b", "c", "d")
        assert r.indices == (0, 1, 2, 3)

    def test_composition_differs_from_full_erasure(self):
        partial = partial_loop_erase(W, {"a", "c", "d", "e"}).path
        composed = loop_erase(partial).path
        assert composed == ("a", "b", "c", "d")
        assert composed != loop_erase(W).path

    def test_naive_matches_on_example(self):
        assert loop_erase_naive(W) == loop_erase(W)
        assert partial_loop_erase_naive(W, {"a", "c", "d", "e"}) == partial_loop_erase(
            W, {"a", "c", "d", "e"}
        )


class TestDefinitionEdges:
    def test_two_state_alternation(self):
        assert loop_erase(("a", "b", "a", "b")).path == ("a", "b")

    def test_single_point(self):
        assert loop_erase(("x",)) == ErasureResult(("x",), (0,))

    def test_immediate_return(self):
        # walk already sits at its final state: nothing survives but the start
        assert loop_erase(("a", "b", "a")).path == ("a",)
        assert loop_erase(("a", "b", "a")).indices == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loop_erase(())

    def test_empty_retained_is_identity(self):
        r = partial_loop_erase(W, frozenset())
        assert r.path == W
        assert r.indices == tuple(range(len(W)))

    def test_full_retained_is_loop_erasure(self):
        assert partial_loop_erase(W, set(W)) == loop_erase(W)


@settings(max_examples=400)
@given(paths)
def test_fast_le_matches_naive(w):
    assert loop_erase(w) == loop_erase_naive(w)


@settings(max_examples=400)
@given(paths, small_sets)
def test_fast_ple_matches_naive(w, retained):
    assert partial_loop_erase(w, retained) == partial_loop_erase_naive(w, retained)


def array_erase(w, erasable):
    """partial_loop_erase_array as an ErasureResult of plain ints."""
    w = np.asarray(w)
    idx = partial_loop_erase_array(w, np.asarray(erasable, dtype=bool))
    return ErasureResult(tuple(w[idx].tolist()), tuple(idx.tolist()))


masks = st.lists(st.booleans(), min_size=6, max_size=6)


@settings(max_examples=400)
@given(paths, masks)
@example((3,), [False] * 6)
@example((3,), [True] * 6)
@example((0, 1, 2, 1), [False, True, False, False, False, False])
@example((0, 1, 0, 2, 0), [True, False, False, False, False, False])
def test_array_erasure_matches_naive(w, mask):
    # one-element paths and an erasable final state are pinned as examples
    retained = {s for s in range(6) if mask[s]}
    assert array_erase(w, mask) == partial_loop_erase_naive(w, retained)
    assert array_erase(w, [True] * 6) == loop_erase_naive(w)
    assert array_erase(w, [False] * 6) == ErasureResult(w, tuple(range(len(w))))


def array_full_erase(w, n_states):
    """loop_erase_array as an ErasureResult of plain ints."""
    w = np.asarray(w)
    idx = loop_erase_array(w, n_states)
    return ErasureResult(tuple(w[idx].tolist()), tuple(idx.tolist()))


@settings(max_examples=400)
@given(paths)
@example((3,))
@example((0, 1, 2, 1))
@example((0, 1, 0))
def test_array_full_erasure_matches_naive(w):
    # a one-element path and a final state visited before are pinned
    assert array_full_erase(w, 6) == loop_erase_naive(w)


def test_array_erasure_rejects_empty_paths():
    with pytest.raises(ValueError, match="non-empty"):
        partial_loop_erase_array(np.array([], dtype=int), np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="non-empty"):
        loop_erase_array(np.array([], dtype=int), 3)


def test_fast_matches_naive_on_long_graph_walks():
    # real carpet walks of hundreds to thousands of steps revisit each
    # state many times, far beyond the fuzzed paths above
    g = carpet_graph(standard_carpet(), 2)
    c = corner_indices(g)
    walks = dict(_graph_walks(WalkConfig(g, 5), c[0], [c[3]], 50))
    lengths = []
    for i in range(50):
        w = walks[i]
        path = tuple(w.tolist())
        lengths.append(len(path))
        assert loop_erase(path) == loop_erase_naive(path), i
        assert array_erase(w, np.ones(g.n, dtype=bool)) == loop_erase_naive(path), i
        assert array_full_erase(w, g.n) == loop_erase_naive(path), i
        for retained in (g.nested[0], g.nested[1]):
            expected = partial_loop_erase_naive(path, retained)
            assert partial_loop_erase(path, retained) == expected, i
            mask = np.zeros(g.n, dtype=bool)
            mask[list(retained)] = True
            assert array_erase(w, mask) == expected, i
    assert min(lengths) < 100 and max(lengths) > 1000


@settings(max_examples=300)
@given(paths, small_sets)
def test_fold_step_reproduces_ple(w, retained):
    assert fold_erase(w, frozenset(retained)) == partial_loop_erase(w, retained).path


@settings(max_examples=300)
@given(paths)
def test_fold_step_reproduces_le(w):
    assert fold_erase(w, None) == loop_erase(w).path


def fold_step_reference(prefix, y, retained):
    """fold_step as a reverse scan for the last copy of y."""
    if retained is None or y in retained:
        for k in range(len(prefix) - 1, -1, -1):
            if prefix[k] == y:
                return prefix[: k + 1]
    return prefix + (y,)


@settings(max_examples=500)
@given(st.lists(st.integers(0, 5), max_size=40).map(tuple), st.integers(0, 5), small_sets)
def test_fold_step_matches_reverse_scan(prefix, y, retained):
    # prefixes are arbitrary tuples, so retained states may repeat
    for r in (None, retained | {y}, retained - {y}):
        assert fold_step(prefix, y, r) == fold_step_reference(prefix, y, r)


@settings(max_examples=300)
@given(paths, small_sets)
def test_index_consistency(w, retained):
    for r in (loop_erase(w), partial_loop_erase(w, retained)):
        assert r.indices[0] == 0
        assert all(a < b for a, b in zip(r.indices, r.indices[1:]))
        assert r.path == tuple(w[n] for n in r.indices)
        assert r.path[0] == w[0]
        assert r.path[-1] == w[-1]


@settings(max_examples=300)
@given(paths)
def test_le_output_simple_and_idempotent(w):
    r = loop_erase(w)
    assert len(set(r.path)) == len(r.path)
    assert loop_erase(r.path).path == r.path


@settings(max_examples=300)
@given(paths, small_sets)
def test_retained_states_appear_once(w, retained):
    p = partial_loop_erase(w, retained).path
    for s in retained:
        assert sum(1 for y in p if y == s) <= 1
    # partial erasure is idempotent as well
    assert partial_loop_erase(p, retained).path == p


@settings(max_examples=300)
@given(paths, small_sets, small_sets)
def test_nested_composition_via_refinement(w, v1, v2):
    lo, hi = v1 & v2, v1 | v2
    stages = refinement_erase(w, [lo, hi])
    assert stages[0] == partial_loop_erase(w, lo)
    assert stages[1] == partial_loop_erase(stages[0].path, hi)


def test_refinement_rejects_non_nested():
    with pytest.raises(ValueError):
        refinement_erase(W, [{"a", "b"}, {"a"}])
    with pytest.raises(ValueError):
        refinement_erase(W, [])


@settings(max_examples=500)
@given(paths, st.integers(0, 5))
def test_algorithms_agree(w, b):
    # the two reconstruction routes produce the same path, not just the same law
    assert algorithm_one(w, b) == algorithm_two(w, b)


@settings(max_examples=200)
@given(paths, st.integers(0, 5))
def test_algorithm_one_endpoints(w, b):
    out = algorithm_one(w, b)
    assert out[0] == w[0] and out[-1] == w[-1]


def test_algorithm_two_validates_retained():
    with pytest.raises(ValueError):
        algorithm_two(W, "b", retained={"a", "b", "c", "d", "e"})
    with pytest.raises(ValueError):
        algorithm_two(W, "b", retained={"a", "c"})


def test_reverse_and_concat():
    assert reverse_path((1, 2, 3)) == (3, 2, 1)
    assert concat_paths((1, 2), (2, 3, 4)) == (1, 2, 3, 4)
    assert concat_paths((1,), (1,)) == (1,)
    with pytest.raises(ValueError):
        concat_paths((1, 2), (3, 4))
