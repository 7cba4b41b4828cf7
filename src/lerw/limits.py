"""Set metrics, empirical path-image laws, and scaling experiments.

Sampling is reproducible by construction: trajectory i always uses the
counter-based stream keyed (master_seed, i), so aggregation is
order-independent.  Graph walks run through `chain._walk_many`, which
steps a pool of them in lockstep until the last one ends.  Results are
stored by trajectory index, so the order in which walks finish does not
matter.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chain import STEP_CAP, _walk_many
from .erasure import loop_erase_array, partial_loop_erase_array, refinement_erase
from .fractal import (
    FractalGraph,
    adjacency_arrays,
    carpet_graph,
    carpet_traces,
    corner_indices,
    gasket_graph,
    to_xy,
    uniform_network,
)
from .network import effective_resistance, trace_network


def hausdorff(a, b):
    """Euclidean Hausdorff distance between two non-empty point collections.

    Tests assert the metric axioms: zero on equal sets, symmetry, triangle inequality.
    """
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if not len(xa) or not len(xb):
        raise ValueError("hausdorff needs non-empty sets")
    d2 = ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(-1)
    return float(max(d2.min(1).max(), d2.min(0).max())) ** 0.5


@dataclass(frozen=True)
class EmpiricalSetLaw:
    kind: str  # embedding tag, matches FractalGraph.kind
    grid: int
    atoms: dict  # sorted tuple of integer grid pairs -> sample count
    total: int

    def __post_init__(self):
        for key, count in self.atoms.items():
            if type(count) is not int or count < 1:
                raise ValueError(f"atom count {count!r} of {key} is not a positive int")
        if sum(self.atoms.values()) != self.total:
            raise ValueError("atom counts must sum to the total")


def empirical_tv(a: EmpiricalSetLaw, b: EmpiricalSetLaw) -> float:
    """Total variation distance; tests assert that sampled plain and
    refined erasure laws lie within sampling noise of each other."""
    keys = set(a.atoms) | set(b.atoms)
    return 0.5 * sum(
        abs(a.atoms.get(k, 0) / a.total - b.atoms.get(k, 0) / b.total) for k in keys
    )


def set_law_to_text(law: EmpiricalSetLaw) -> str:
    lines = [f"# {law.kind} {law.grid} {law.total}"]
    for key in sorted(law.atoms):
        pts = " ".join(f"{x},{y}" for x, y in key)
        lines.append(f"{law.atoms[key]}\t{pts}")
    return "\n".join(lines) + "\n"


def set_law_from_text(text: str) -> EmpiricalSetLaw:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing set-law header")
    kind, grid, total = lines[0][1:].split()
    atoms = {}
    for ln in lines[1:]:
        count, pts = ln.split("\t")
        key = tuple(tuple(int(v) for v in p.split(",")) for p in pts.split())
        atoms[key] = int(count)
    return EmpiricalSetLaw(kind, int(grid), atoms, int(total))


@dataclass(frozen=True)
class WalkConfig:
    """Graph, master seed and step cap of a sampling run.

    `workers` is accepted so existing callers keep working, but nothing
    reads it: trajectories run in the calling thread.
    """

    graph: FractalGraph
    master_seed: int
    workers: int = 1
    step_cap: int = STEP_CAP


def _graph_walks(config: WalkConfig, x: int, targets: Iterable, count: int):
    """Trajectories 0..count-1 of the graph walk from x into targets.

    Returns `chain._walk_many`'s generator of (i, np.intp vertex index
    array), in the order the walks finish.  Each vertex steps to one of
    its sorted neighbours with weight 1/deg, as the walk chain of the
    graph's uniform network does.  There is no reachability check: an
    unreachable target set ends in StepCapExceeded.
    """
    g = config.graph
    tset = frozenset(targets)
    if not tset or x in tset:
        raise ValueError("need a non-empty target set not containing the start")
    for role, v in (("start", x), *(("target", t) for t in sorted(tset))):
        if not 0 <= v < g.n:
            raise ValueError(f"{role} vertex {v} is out of range: the graph has vertices 0..{g.n - 1}")
    indptr, nbr = adjacency_arrays(g)
    if indptr[x] == indptr[x + 1]:
        raise ValueError(f"start vertex {x} at {tuple(g.points[x].tolist())} has no neighbours")
    flags = np.zeros(g.n, dtype=bool)
    flags[list(tset)] = True
    return _walk_many(indptr, nbr, x, flags, config.master_seed, count, config.step_cap)


def lerw_set_law(
    config: WalkConfig, x: int, targets: Iterable, num_samples: int, pipeline="LE"
) -> EmpiricalSetLaw:
    """Empirical law of the erased walk's image as a point set.

    The plain "LE" pipeline erases each walk with `loop_erase_array` and
    checks that the output is a simple path from x into exactly one
    target before it is recorded; a list of levels runs through
    `refinement_erase`.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    plain = isinstance(pipeline, str)
    if plain and pipeline != "LE":
        raise ValueError(f"unknown pipeline {pipeline!r}")
    g = config.graph
    tset = frozenset(targets)
    walks = _graph_walks(config, x, tset, num_samples)
    is_target = np.zeros(g.n, dtype=bool)
    is_target[list(tset)] = True
    verts = g.vertices
    keys = [None] * num_samples
    for i, w in walks:
        if plain:
            out = w[loop_erase_array(w, g.n)]
            if len(np.unique(out)) != len(out):
                raise AssertionError(f"erased output not simple on sample {i}")
            if out[0] != x or not is_target[out[-1]] or is_target[out[:-1]].any():
                raise AssertionError(f"bad endpoints on sample {i}")
            out = out.tolist()
        else:
            out = refinement_erase(tuple(w.tolist()), pipeline)[-1].path
        keys[i] = tuple(sorted(verts[v] for v in set(out)))
    # counted in index order, so the atoms keep the serial insertion order
    atoms = Counter(keys)
    return EmpiricalSetLaw(g.kind, g.grid, dict(atoms), num_samples)


def coupled_refinement_distance(
    config: WalkConfig, m: int, x: int, targets: Iterable, num_samples: int
) -> dict:
    """Per-sample Hausdorff gap between the stage-m partial erasure image
    and the full erasure of that same stage output.

    The coupling is pathwise: both images come from one sampled
    trajectory on the configured graph. At m equal to the graph level the
    stage is already the full erasure and every distance is zero.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    g = config.graph
    if not 0 <= m <= g.level:
        raise ValueError("stage level out of range")
    erasable = np.zeros(g.n, dtype=bool)
    erasable[g.level_sets[m]] = True
    walks = _graph_walks(config, x, targets, num_samples)
    xy = to_xy(g)
    dists = np.empty(num_samples)
    steps = np.empty(num_samples, dtype=np.int64)
    stage_points = final_points = 0
    off_final = np.zeros(g.n, dtype=bool)  # all False between samples
    for i, w in walks:
        stage = w[partial_loop_erase_array(w, erasable)]
        final = stage[loop_erase_array(stage, g.n)]
        steps[i] = len(w) - 1
        stage_points += len(stage)
        final_points += len(final)
        # final is a subsequence of stage: only stage points off final
        # can be far from the other set
        off_final[stage] = True
        off_final[final] = False
        off = np.flatnonzero(off_final)
        off_final[off] = False
        if not len(off):
            dists[i] = 0.0
            continue
        pa = xy[off]
        pb = xy[final]
        dx = pa[:, :1] - pb[:, 0]
        dy = pa[:, 1:] - pb[:, 1]
        dx *= dx
        dy *= dy
        dx += dy
        dists[i] = float(dx.min(1).max()) ** 0.5
    qs = np.quantile(dists, [0.5, 0.9])
    return {
        "n": num_samples,
        "median": float(qs[0]),
        "q90": float(qs[1]),
        "mean": float(dists.mean()),
        "max": float(dists.max()),
        "distances": dists,
        "stats": {
            "walk_steps": int(steps.sum()),
            "walk_steps_max": int(steps.max()),
            "stage_points": stage_points,
            "final_points": final_points,
        },
    }


def _family_graph(kind: str, m: int, template=None) -> FractalGraph:
    if kind == "gasket":
        return gasket_graph(m)
    if kind == "carpet":
        return carpet_graph(_carpet_template(template), m)
    raise ValueError(f"unknown graph family {kind!r}")


def _carpet_template(template):
    if template is None:
        raise ValueError("carpet experiments need a template")
    return template


def _check_corner(kind: str, corners: tuple, c: int):
    if not 0 <= c < len(corners):
        raise ValueError(
            f"corner index {c} is out of range: the {kind} has {len(corners)} corners, "
            f"0..{len(corners) - 1}"
        )


def _distinct_levels(levels: Iterable) -> list:
    """The levels sorted; a level given twice raises ValueError."""
    ms = sorted(levels)
    for a, b in zip(ms, ms[1:]):
        if a == b:
            raise ValueError(f"level {a} is repeated")
    return ms


def aitken_limit(seq):
    """Aitken's delta-squared limit from the last three terms of `seq`.

    With d1, d2 the last two differences this is r2 - d2**2 / (d2 - d1),
    exact on Fractions.  A last difference of 0 (a constant tail) gives
    the last term; fewer than three terms, or two equal non-zero
    differences (no Aitken limit), give None.
    """
    if len(seq) < 3:
        return None
    r0, r1, r2 = seq[-3:]
    d1, d2 = r1 - r0, r2 - r1
    if d2 == 0:
        return r2
    if d2 == d1:
        return None
    return r2 - d2 * d2 / (d2 - d1)


def resistance_scaling(
    kind: str,
    m_values: Iterable,
    template=None,
    mode: str = "double",
    pairs=None,
    band=None,
) -> dict:
    """Corner-to-corner effective resistances across levels.

    Produces per-level resistances for each probe pair, successive
    ratios with their differences and `aitken_limit`, the log-ratio
    exponent estimate, and the self-consistency envelope [C1, C2] of
    k^(-m*gamma) * R_m / rho^gamma over all probes.
    A declared band checks ratio stability per pair (max/min - 1 must
    not exceed it); the measured spread and a pass/fail flag are part of
    the result so callers can report the violation instead of crashing.

    Each level is traced once onto its corners; a trace keeps every
    effective resistance among the kept vertices, so each pair is read
    off the small traced network. Double carpet levels come from
    `fractal.carpet_traces`, which glues boundary traces of the level
    below and never builds the graph (so levels past MAX_VERTICES are
    in reach). Gasket levels and rational carpet levels build the graph
    and trace it onto the corners the probes use, so rational values
    are exact. A repeated level, corner indices outside the graph's
    corners, pairs of one corner with itself, a pair given twice (in
    either order), an empty pair list and an unknown mode raise
    ValueError, before any level is built.
    """
    if mode not in ("rational", "double"):
        raise ValueError(f"unknown mode {mode!r}")
    ms = _distinct_levels(m_values)
    if not ms:
        raise ValueError("need at least one level")
    if pairs is not None:
        if not pairs:
            raise ValueError("need at least one probe pair")
        seen = set()
        for ci, cj in pairs:
            if ci == cj:
                raise ValueError(f"probe pair {ci}-{cj} needs two distinct corners")
            key = frozenset((ci, cj))
            if key in seen:
                raise ValueError(f"probe pair {ci}-{cj} is repeated")
            seen.add(key)
    base = 2 if kind == "gasket" else (template.k if template else None)
    count = 3 if kind == "gasket" else 4
    probe = pairs if pairs is not None else [(i, j) for i in range(count) for j in range(i + 1, count)]
    used = sorted({c for pair in probe for c in pair})
    for c in used:
        _check_corner(kind, range(count), c)
    glued = kind == "carpet" and mode == "double"
    if glued:
        carpets = carpet_traces(_carpet_template(template), ms, "corners")
    rows = []
    per_pair: dict = {}
    for m in ms:
        if glued:
            traced = carpets[m]
            corners = traced.vertices
            xy = np.array(corners) / base**m
        else:
            g = _family_graph(kind, m, template)
            corners = corner_indices(g)
            xy = to_xy(g)[list(corners)]
            traced = trace_network(uniform_network(g, mode), [corners[c] for c in used])
        for ci, cj in probe:
            r = effective_resistance(traced, corners[ci], corners[cj])
            rho = float(np.hypot(*(xy[ci] - xy[cj])))
            rows.append({"level": m, "pair": (ci, cj), "resistance": r, "rho": rho})
            per_pair.setdefault((ci, cj), {})[m] = (r, rho)

    ratios: dict = {}
    for pair, table in per_pair.items():
        rs = [table[m][0] for m in ms]
        ratios[pair] = [b / a for a, b in zip(rs, rs[1:])]
    first = ratios[next(iter(ratios))]
    gamma = math.log(float(first[-1])) / math.log(base) if first else float("nan")
    envelope = None
    if not math.isnan(gamma):
        vals = []
        for (ci, cj), table in per_pair.items():
            for m in ms:
                r, rho = table[m]
                vals.append(float(r) * base ** (-m * gamma) / rho**gamma)
        envelope = (min(vals), max(vals))
    spread = {}
    for pair, rs in ratios.items():
        vals = [float(r) for r in rs]
        spread[pair] = max(vals) / min(vals) - 1 if len(vals) > 1 else 0.0
    return {
        "kind": kind,
        "levels": ms,
        "base": base,
        "rows": rows,
        "ratios": ratios,
        "ratio_differences": {pair: [b - a for a, b in zip(rs, rs[1:])] for pair, rs in ratios.items()},
        "aitken_limit": {pair: aitken_limit(rs) for pair, rs in ratios.items()},
        "ratio_spread": spread,
        "band": band,
        "band_ok": None if band is None else all(s <= band for s in spread.values()),
        "gamma_hat": gamma,
        "envelope": envelope,
    }


def kernel_convergence(
    kind: str, m: int, y_corner: int, m_primes: Iterable, template=None
) -> dict:
    """Traced kernels of level-m' walks on the level-m vertex set.

    Rows are exclude-current hitting distributions; the killing corner is
    part of the traced vertex set, so its column is the absorbed mass.
    Entries are keyed by exact coordinates in level-m units, comparable
    across levels; rows and their entries come in key order.

    Each level m' is traced once onto V_m: the walk watched on V_m is
    the walk of the traced network, so row v is c'(v, u) / c'_v for
    every other u in V_m, zeros included. On the carpet with m = 1 the
    traces come from `fractal.carpet_traces`, which keeps V_1 (the
    corners of the level-1 cells) off glued boundary traces and never
    builds a graph above level 1. The gasket, and carpets with m >= 2,
    build each level's graph and trace it. A repeated level, or a
    killing corner index outside the graph's corners, raises ValueError.
    """
    mps = _distinct_levels(m_primes)
    if not mps or mps[0] < m:
        raise ValueError("need levels m' >= m")
    base = _family_graph(kind, m, template)
    corners = corner_indices(base)
    _check_corner(kind, corners, y_corner)
    killed = tuple(base.points[corners[y_corner]].tolist())
    glued = kind == "carpet" and m == 1
    if glued:
        carpets = carpet_traces(template, mps, "cells")
    kernels = []
    for mp in mps:
        if glued:
            traced = carpets[mp]
            vset = traced.vertices
            scale = template.k ** (mp - 1)
            key_of = {v: (v[0] // scale, v[1] // scale) for v in vset}
        else:
            g = _family_graph(kind, mp, template)
            vset = g.level_sets[m].tolist()
            traced = trace_network(uniform_network(g, "double"), vset)
            scale = g.grid // base.grid
            key_of = dict(zip(vset, map(tuple, (g.points[vset] // scale).tolist())))
        vset = sorted(vset, key=key_of.__getitem__)
        rows = {}
        for v in vset:
            if key_of[v] == killed:
                continue
            cv = traced.weight(v)
            rows[key_of[v]] = {key_of[u]: traced.conductance(v, u) / cv for u in vset if u != v}
        kernels.append({"m_prime": mp, "rows": rows})

    diffs = []
    for a, b in zip(kernels, kernels[1:]):
        worst = 0.0
        for rk, row in a["rows"].items():
            for ck, p in row.items():
                worst = max(worst, abs(p - b["rows"][rk].get(ck, 0.0)))
        diffs.append({"pair": (a["m_prime"], b["m_prime"]), "max_diff": worst})
    return {"kind": kind, "m": m, "kernels": kernels, "diffs": diffs}
