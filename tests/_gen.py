"""Deterministic random instance generators shared across test modules."""

from fractions import Fraction
from random import Random

from lerw.chain import MarkovChain, build_chain
from lerw.fractal import FractalGraph

LETTERS = "abcdefgh"


def composition(rng: Random, n: int, total: int, positive: bool) -> list:
    """n integers summing to total, each >= 1 when positive is set."""
    if positive:
        cuts = sorted(rng.sample(range(1, total), n - 1)) if n > 1 else []
        pts = [0] + cuts + [total]
    else:
        pts = sorted(rng.randrange(total + 1) for _ in range(n - 1))
        pts = [0] + pts + [total]
    return [b - a for a, b in zip(pts, pts[1:])]


def dense_chain(rng: Random, n: int, den: int = 60) -> MarkovChain:
    """Every transition probability is at least 1/den."""
    states = tuple(LETTERS[:n])
    rows = [[Fraction(v, den) for v in composition(rng, n, den, True)] for _ in range(n)]
    return MarkovChain(states, tuple(tuple(r) for r in rows), "rational")


def sparse_chain(rng: Random, n: int, den: int = 60) -> MarkovChain:
    """Zeros allowed; rows can be arbitrarily lopsided."""
    states = tuple(LETTERS[:n])
    rows = [[Fraction(v, den) for v in composition(rng, n, den, False)] for _ in range(n)]
    return MarkovChain(states, tuple(tuple(r) for r in rows), "rational")


def random_network(rng: Random, n: int, extra_edges: int = 2):
    """Random connected network: a spanning tree plus a few chords."""
    from lerw.network import ElectricalNetwork

    states = list(LETTERS[:n]) if n <= len(LETTERS) else [f"v{i}" for i in range(n)]
    edges = {}
    order = states[:]
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges[frozenset((order[i], order[j]))] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    for _ in range(extra_edges):
        u, v = rng.sample(states, 2)
        edges.setdefault(frozenset((u, v)), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return ElectricalNetwork(tuple(states), edges, "rational")


def reversible_chain(rng: Random, n: int, extra_edges: int = 2):
    """Random connected weighted graph and its walk; returns (chain, weights).

    weights maps each state to c_x = sum of incident conductances, so
    c_x * P(x, y) is symmetric by construction.
    """
    from lerw.network import walk_from_network

    net = random_network(rng, n, extra_edges)
    return walk_from_network(net), {s: net.weight(s) for s in net.vertices}


def nested_sequences(states, levels: int):
    """All strictly increasing chains of non-empty subsets ending at the full set."""
    from itertools import combinations

    full = frozenset(states)
    ordered = sorted(states, key=str)
    subsets = [
        frozenset(c) for r in range(1, len(ordered) + 1) for c in combinations(ordered, r)
    ]

    def extend(prefix):
        if len(prefix) == levels:
            if prefix[-1] == full:
                yield tuple(prefix)
            return
        for s in subsets:
            if prefix[-1] < s:
                yield from extend(prefix + [s])

    for s in subsets:
        yield from extend([s])


def path_stub(n, edges=None, kind="carpet") -> FractalGraph:
    """Tiny hand-built graph reusing the fractal plumbing for sampling."""
    verts = tuple((i, 0) for i in range(n))
    if edges is None:
        edges = tuple((i, i + 1) for i in range(n - 1))
    return FractalGraph(kind, 0, 1, verts, tuple(edges), (frozenset(range(n)),))
