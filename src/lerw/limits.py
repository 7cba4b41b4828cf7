"""Set metrics, empirical path-image laws, and scaling experiments.

Sampling is reproducible by construction: trajectory i always uses the
counter-based stream keyed (master_seed, i), so aggregation is
order-independent.  Graph walks run through `chain._walk`, the loop that
also draws chain trajectories, one trajectory after another.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chain import STEP_CAP, _cum_row, _walk, trajectory_stream
from .erasure import loop_erase, partial_loop_erase, refinement_erase
from .fractal import (
    FractalGraph,
    adjacency_arrays,
    carpet_graph,
    corner_indices,
    gasket_graph,
    to_xy,
    uniform_network,
)
from .network import ElectricalNetwork, effective_resistance, hitting_distribution, laplacian


def hausdorff(a, b, metric=None):
    """Hausdorff distance between two non-empty point collections.

    Points are coordinate pairs; the ground metric is Euclidean unless a
    callable metric(p, q) is supplied.
    """
    pa = list(a)
    pb = list(b)
    if not pa or not pb:
        raise ValueError("hausdorff needs non-empty sets")
    if metric is None:
        xa = np.asarray(pa, dtype=float)
        xb = np.asarray(pb, dtype=float)
        d2 = ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(-1)
        return float(max(d2.min(1).max(), d2.min(0).max())) ** 0.5
    best = 0.0
    for src, dst in ((pa, pb), (pb, pa)):
        for p in src:
            best = max(best, min(metric(p, q) for q in dst))
    return best


def resistance_metric(net: ElectricalNetwork):
    """Pairwise effective resistance as a pluggable ground metric.

    Dense pseudo-inverse of the network's Laplacian; intended for small
    graphs.
    """
    idx = {v: i for i, v in enumerate(net.vertices)}
    plus = np.linalg.pinv(laplacian(net).toarray())

    def metric(p, q):
        i, j = idx[p], idx[q]
        return float(plus[i, i] + plus[j, j] - 2 * plus[i, j])

    return metric


@dataclass(frozen=True)
class EmpiricalSetLaw:
    kind: str  # embedding tag, matches FractalGraph.kind
    grid: int
    atoms: dict  # sorted tuple of integer grid pairs -> sample count
    total: int

    def __post_init__(self):
        if sum(self.atoms.values()) != self.total:
            raise ValueError("atom counts must sum to the total")


def atom_points(law: EmpiricalSetLaw, key) -> np.ndarray:
    """Embed one atom's exact grid points into the plane."""
    pts = np.asarray(key, dtype=float) / law.grid
    if law.kind == "gasket":
        return np.column_stack([pts[:, 0] + 0.5 * pts[:, 1], pts[:, 1] * (3.0**0.5 / 2)])
    return pts


def empirical_tv(a: EmpiricalSetLaw, b: EmpiricalSetLaw) -> float:
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


def prokhorov(a: EmpiricalSetLaw, b: EmpiricalSetLaw, tol: float = 1e-6) -> float:
    """Prokhorov distance between finite set-valued laws.

    Bisects on epsilon; each candidate is checked by Strassen's condition,
    decided as a max-flow on the bipartite atom graph with an edge where
    the atoms' Hausdorff distance is below epsilon. Capacities are integer
    sample counts (cross-multiplied), so feasibility is exact.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    ka = sorted(a.atoms)
    kb = sorted(b.atoms)
    pa = [atom_points(a, k) for k in ka]
    pb = [atom_points(b, k) for k in kb]
    d = np.array([[hausdorff(x, y) for y in pb] for x in pa])
    na, nb = len(ka), len(kb)
    total = a.total * b.total
    if total > 2**30:
        raise ValueError("sample totals too large for exact flow capacities")
    src, snk = na + nb, na + nb + 1

    def feasible(eps: float) -> bool:
        rows, cols, caps = [], [], []
        for i, k in enumerate(ka):
            rows.append(src)
            cols.append(i)
            caps.append(a.atoms[k] * b.total)
        for j, k in enumerate(kb):
            rows.append(na + j)
            cols.append(snk)
            caps.append(b.atoms[k] * a.total)
        ii, jj = np.nonzero(d < eps)
        for i, j in zip(ii, jj):
            rows.append(i)
            cols.append(na + j)
            caps.append(total)
        g = csr_matrix(
            (np.array(caps, dtype=np.int64), (rows, cols)), shape=(snk + 1, snk + 1)
        )
        flow = maximum_flow(g.astype(np.int32), src, snk).flow_value
        return total - flow <= eps * total

    hi = 1.0 if not d.size else min(1.0, float(d.max()) + tol)
    if feasible(tol):
        return 0.0
    lo = 0.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class WalkConfig:
    """Graph, master seed and step cap of a sampling run.

    `workers` is accepted so existing callers keep working, but nothing
    reads it: trajectories run serially in the calling thread.
    """

    graph: FractalGraph
    master_seed: int
    workers: int = 1
    step_cap: int = STEP_CAP


def _graph_walker(config: WalkConfig, x: int, targets: Iterable):
    """(walk, is_target): walk(i) is trajectory i's vertex indices from x into targets.

    Each vertex steps to one of its sorted neighbours with weight 1/deg,
    as the walk chain of the graph's uniform network does.  There is no
    reachability check: an unreachable target set ends in StepCapExceeded.
    """
    g = config.graph
    tset = frozenset(targets)
    if not tset or x in tset:
        raise ValueError("need a non-empty target set not containing the start")
    indptr, nbr = adjacency_arrays(g)
    flat, bounds = nbr.tolist(), indptr.tolist()
    nbrs = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    if not nbrs[x]:
        raise ValueError(f"start vertex {x} at {g.vertices[x]} has no neighbours")
    # rows of equal degree share one cumulative list
    shared = {d: _cum_row(np.full(d, 1.0) / d) for d in {len(r) for r in nbrs}}
    cums = [shared[len(r)] for r in nbrs]
    is_target = [False] * g.n
    for t in tset:
        is_target[t] = True

    def walk(i: int) -> list:
        rng = trajectory_stream(config.master_seed, i)
        return _walk(nbrs, cums, x, is_target, rng, config.step_cap)

    return walk, is_target


def _apply_pipeline(path: tuple, pipeline):
    if isinstance(pipeline, str):
        if pipeline != "LE":
            raise ValueError(f"unknown pipeline {pipeline!r}")
        return loop_erase(path).path
    return refinement_erase(path, pipeline)[-1].path


def lerw_set_law(
    config: WalkConfig, x: int, targets: Iterable, num_samples: int, pipeline="LE"
) -> EmpiricalSetLaw:
    """Empirical law of the erased walk's image as a point set.

    For the plain "LE" pipeline every output is checked to be a simple
    path from x into exactly one target before it is recorded.
    """
    g = config.graph
    walk, is_target = _graph_walker(config, x, targets)
    plain = isinstance(pipeline, str)
    verts = g.vertices
    atoms: Counter = Counter()
    for i in range(num_samples):
        out = _apply_pipeline(tuple(walk(i)), pipeline)
        if plain:
            if len(set(out)) != len(out):
                raise AssertionError(f"erased output not simple on sample {i}")
            if out[0] != x or not is_target[out[-1]] or any(is_target[v] for v in out[:-1]):
                raise AssertionError(f"bad endpoints on sample {i}")
        atoms[tuple(sorted(verts[v] for v in set(out)))] += 1
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
    g = config.graph
    if not 0 <= m <= g.level:
        raise ValueError("stage level out of range")
    retained = g.nested[m]
    walk, _ = _graph_walker(config, x, targets)
    xy = to_xy(g)
    dists = np.empty(num_samples)
    for i in range(num_samples):
        stage = partial_loop_erase(walk(i), retained).path
        final = loop_erase(stage).path
        # final is a subsequence of stage: only stage points off final
        # can be far from the other set
        off = set(stage).difference(final)
        if not off:
            dists[i] = 0.0
            continue
        pa = xy[sorted(off)]
        pb = xy[list(final)]
        d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)
        dists[i] = float(d2.min(1).max()) ** 0.5
    qs = np.quantile(dists, [0.5, 0.9])
    return {
        "n": num_samples,
        "median": float(qs[0]),
        "q90": float(qs[1]),
        "mean": float(dists.mean()),
        "max": float(dists.max()),
        "distances": dists,
    }


def _family_graph(kind: str, m: int, template=None) -> FractalGraph:
    if kind == "gasket":
        return gasket_graph(m)
    if kind == "carpet":
        if template is None:
            raise ValueError("carpet experiments need a template")
        return carpet_graph(template, m)
    raise ValueError(f"unknown graph family {kind!r}")


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
    ratios, the log-ratio exponent estimate, and the self-consistency
    envelope [C1, C2] of k^(-m*gamma) * R_m / rho^gamma over all probes.
    A declared band checks ratio stability per pair (max/min - 1 must
    not exceed it); the measured spread and a pass/fail flag are part of
    the result so callers can report the violation instead of crashing.
    """
    ms = sorted(m_values)
    if not ms:
        raise ValueError("need at least one level")
    base = 2 if kind == "gasket" else (template.k if template else None)
    rows = []
    per_pair: dict = {}
    for m in ms:
        g = _family_graph(kind, m, template)
        net = uniform_network(g, mode)
        corners = corner_indices(g)
        xy = to_xy(g)
        probe = pairs if pairs is not None else [
            (i, j) for i in range(len(corners)) for j in range(i + 1, len(corners))
        ]
        for ci, cj in probe:
            r = effective_resistance(net, corners[ci], corners[cj])
            rho = float(np.hypot(*(xy[corners[ci]] - xy[corners[cj]])))
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
    Entries are keyed by exact coordinates, comparable across levels.
    """
    mps = sorted(m_primes)
    if not mps or mps[0] < m:
        raise ValueError("need levels m' >= m")
    base_grid = _family_graph(kind, m, template).grid
    kernels = []
    for mp in mps:
        g = _family_graph(kind, mp, template)
        net = uniform_network(g, "double")
        vset = sorted(g.nested[m])
        coord = {v: g.vertices[v] for v in vset}
        scale = g.grid // base_grid
        key_of = {v: (coord[v][0] // scale, coord[v][1] // scale) for v in vset}
        y = corner_indices(g)[y_corner]
        rows = {}
        for v in vset:
            if v == y:
                continue
            hm = hitting_distribution(net, v, [u for u in vset if u != v])
            rows[key_of[v]] = {key_of[u]: p for u, p in hm.items()}
        kernels.append({"m_prime": mp, "rows": rows})

    diffs = []
    for a, b in zip(kernels, kernels[1:]):
        worst = 0.0
        for rk, row in a["rows"].items():
            for ck, p in row.items():
                worst = max(worst, abs(p - b["rows"][rk].get(ck, 0.0)))
        diffs.append({"pair": (a["m_prime"], b["m_prime"]), "max_diff": worst})
    return {"kind": kind, "m": m, "kernels": kernels, "diffs": diffs}
