"""The four benchmark workloads.

Each workload has `setup(seed, lib)`, which generates every input from the
seed, and `job(state, lib)`, the fixed job that is timed.  `lib` is a
`tracer.Lib`: the library's public functions, traced or not.  A job
returns an `Outcome`: how many ops it attempted and how many failed its
checks, the outputs to digest, and the values compared against
`reference.json`.  An op is one verified law case, one walk, or one solve
or trace check; a raised StepCapExceeded, GuardError or
SingularSystemError counts as a failed op.

Reference values whose key starts with "fixed." do not depend on the
seed and are checked at every seed; the others only at DEFAULT_SEED.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from random import Random

import numpy as np

from lerw._exact import SingularSystemError
from lerw.chain import StepCapExceeded, trajectory_stream
from lerw.exactlaw import GuardError, PathLaw, law_to_text
from lerw.fractal import corner_indices, standard_carpet
from lerw.limits import WalkConfig

FAILURES = (StepCapExceeded, GuardError, SingularSystemError)
DEFAULT_SEED = 1


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # digested after the timed region
    values: dict = field(default_factory=dict)  # compared against reference.json

    def check(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def digest(self) -> str:
        """sha256 of the outputs: laws as law_to_text, bytes as hex, the rest by repr."""
        text = "\n".join(
            law_to_text(o) if isinstance(o, PathLaw) else o.hex() if isinstance(o, bytes) else repr(o)
            for o in self.outputs
        )
        return hashlib.sha256(text.encode()).hexdigest()


# -- exact-verify -----------------------------------------------------------

TOL = Fraction(1, 10**9)
# (states, row denominator, chains, pipeline stride): criterion 1's dense
# chains.  A 5-state chain has 242 nested pipelines per absorbing set and
# takes about 17 s with all of them, so 30 of them are taken, every 8th from
# a seed-drawn offset.  Whole chains (every absorbing set) are kept because
# the time per case varies tenfold between absorbing sets of one chain but
# only by a few percent between the totals of whole chains.
EXACT_MIX = ((3, 12, 2, 1), (4, 8, 2, 1), (5, 8, 2, 8))
GASKET_LEVELS = (1, 2, 3, 4)


def _dense_rows(rng: Random, n: int, den: int) -> list:
    """Rows with every entry at least 1/den, as in criterion 1."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.sample(range(1, den), n - 1))
        pts = [0, *cuts, den]
        rows.append([Fraction(b - a, den) for a, b in zip(pts, pts[1:])])
    return rows


def _nested_pipelines(states) -> list:
    """Every nested 2- and 3-level retained sequence ending in the full set."""
    full = frozenset(states)
    out = []
    for zones in product((0, 1), repeat=len(states)):
        v1 = frozenset(s for s, z in zip(states, zones) if z == 0)
        if v1:
            out.append([v1, full])
    for zones in product((0, 1, 2), repeat=len(states)):
        v1 = frozenset(s for s, z in zip(states, zones) if z == 0)
        if v1:
            v2 = v1 | frozenset(s for s, z in zip(states, zones) if z == 1)
            out.append([v1, v2, full])
    return out


def _trace_cases(lib) -> list:
    """Criterion 6's rational networks with the sets to trace onto."""
    graphs = [lib.gasket_graph(m) for m in (0, 1, 2)]
    graphs += [lib.carpet_graph(standard_carpet(), m) for m in (0, 1)]
    cases = []
    for g in graphs:
        net = lib.uniform_network(g, "rational")
        corners = tuple(corner_indices(g))
        keeps = [corners]
        extra = next((v for v in range(g.n) if v not in corners), None)
        if extra is not None:
            keeps.append(corners + (extra,))
        cases.append((f"{g.kind}_m{g.level}", net, keeps))
    return cases


class ExactVerify:
    name = "exact-verify"

    def setup(self, seed: int, lib):
        rng = Random(seed)
        chains = []
        for n, den, count, stride in EXACT_MIX:
            states = [f"s{i}" for i in range(n)]
            pipelines = _nested_pipelines(states)
            for _ in range(count):
                chain = lib.build_chain(states, _dense_rows(rng, n, den), "rational")
                pipes = pipelines[rng.randrange(stride) :: stride][: len(pipelines) // stride]
                cases = []
                for r in range(1, n):
                    for a in combinations(states, r):
                        start = next(s for s in states if s not in a)
                        cases.append((start, frozenset(a)))
                chains.append((chain, cases, pipes))
        return chains, _trace_cases(lib)

    def job(self, state, lib) -> Outcome:
        chains, trace_cases = state
        out = Outcome()
        cases = {3: 0, 4: 0, 5: 0}
        atoms = 0
        for chain, abs_cases, pipes in chains:
            for start, a in abs_cases:
                cases[chain.n] += len(pipes)
                try:
                    plain = lib.enumerate_erasure_law(chain, start, a, "LE", tol=TOL)
                except FAILURES:
                    out.attempted += len(pipes)
                    out.failed += len(pipes)
                    continue
                out.outputs.append(plain)
                atoms += len(plain.atoms)
                for pipe in pipes:
                    try:
                        refined = lib.enumerate_erasure_law(chain, start, a, pipe, tol=TOL)
                    except FAILURES:
                        out.check(False)
                        continue
                    tv = lib.tv_distance(plain, refined)
                    bound = plain.tail_bound + refined.tail_bound
                    out.check(plain.tail_bound <= TOL and refined.tail_bound <= TOL and tv <= bound)
                    out.outputs.append((tv, refined.tail_bound))
                    atoms += len(refined.atoms)
        for n, c in cases.items():
            out.values[f"cases.n{n}"] = c
        out.values["atoms"] = atoms

        try:
            res = lib.resistance_scaling("gasket", list(GASKET_LEVELS), mode="rational")
        except FAILURES:
            ops = 3 * len(GASKET_LEVELS) + 3 * (len(GASKET_LEVELS) - 1)  # resistances, ratios
            out.attempted += ops
            out.failed += ops
        else:
            for row in res["rows"]:
                r = row["resistance"]
                out.check(isinstance(r, Fraction) and r > 0)
                out.values["fixed.gasket_R.m{}.{}-{}".format(row["level"], *row["pair"])] = str(r)
                out.outputs.append(r)
            for ratios in res["ratios"].values():
                for ratio in ratios:
                    out.check(isinstance(ratio, Fraction) and ratio == Fraction(5, 3))

        for label, net, keeps in trace_cases:
            for keep in keeps:
                try:
                    traced = lib.trace_network(net, keep)
                except FAILURES:
                    out.attempted += math.comb(len(keep), 2)
                    out.failed += math.comb(len(keep), 2)
                    continue
                for u, v in combinations(keep, 2):
                    try:
                        r0 = lib.effective_resistance(net, u, v)
                        r1 = lib.effective_resistance(traced, u, v)
                    except FAILURES:
                        out.check(False)
                        continue
                    out.check(r0 == r1)
                    out.values[f"fixed.trace_R.{label}.k{len(keep)}.{u}-{v}"] = str(r1)
                    out.outputs.append(r1)
        return out


# -- carpet-coupled ---------------------------------------------------------

COUPLED_WALKS = 1800


class CarpetCoupled:
    name = "carpet-coupled"

    def setup(self, seed: int, lib):
        g = lib.carpet_graph(standard_carpet(), 3)
        corners = corner_indices(g)
        return WalkConfig(g, seed, workers=1), corners[0], frozenset({corners[3]})

    def job(self, state, lib) -> Outcome:
        config, start, targets = state
        out = Outcome()
        try:
            stats = lib.coupled_refinement_distance(config, 2, start, targets, COUPLED_WALKS)
        except FAILURES:
            out.attempted = out.failed = COUPLED_WALKS
            return out
        d = np.asarray(stats["distances"], dtype=float)
        if d.shape != (COUPLED_WALKS,):
            out.attempted = out.failed = COUPLED_WALKS
            return out
        # both images lie in the unit square
        good = np.isfinite(d) & (d >= 0) & (d <= math.sqrt(2))
        out.attempted += COUPLED_WALKS
        out.failed += int((~good).sum())
        out.check(stats["n"] == COUPLED_WALKS and stats["median"] <= stats["q90"] <= stats["max"])
        for key in ("median", "q90", "mean", "max"):
            out.values[key] = float(stats[key])
        out.outputs += [d.tobytes(), [float(stats[k]) for k in ("median", "q90", "mean", "max")]]
        return out


# -- corner-walks -----------------------------------------------------------

CORNER_GRAPHS = (("gasket", 3), ("carpet", 2))
CORNER_WALKS = 3000
STEP_CAP = 10**7


class CornerWalks:
    name = "corner-walks"

    def setup(self, seed: int, lib):
        walks = []
        for gi, (kind, level) in enumerate(CORNER_GRAPHS):
            g = lib.gasket_graph(level) if kind == "gasket" else lib.carpet_graph(standard_carpet(), level)
            chain = lib.walk_from_network(lib.uniform_network(g, "double"))
            corners = corner_indices(g)
            walks.append((f"{kind}_m{level}", chain, corners[0], frozenset(corners[1:]), 2 * seed + gi))
        return walks

    def job(self, state, lib) -> Outcome:
        out = Outcome()
        for label, chain, start, targets, master in state:
            steps = steps_max = erased = 0
            for i in range(CORNER_WALKS):
                try:
                    w = lib.sample_until_entry(chain, start, targets, trajectory_stream(master, i), step_cap=STEP_CAP)
                except FAILURES:
                    out.check(False)
                    continue
                path = lib.loop_erase(w).path
                out.check(
                    path[0] == start
                    and path[-1] == w[-1]
                    and path[-1] in targets
                    and not any(v in targets for v in path[:-1])
                    and len(set(path)) == len(path)
                )
                steps += len(w) - 1
                steps_max = max(steps_max, len(w) - 1)
                erased += len(path)
                out.outputs.append((len(w), path))
            out.values[f"{label}.steps"] = steps
            out.values[f"{label}.steps_max"] = steps_max
            out.values[f"{label}.erased"] = erased
        return out


# -- resist-double ----------------------------------------------------------

CARPET_LEVELS = (1, 2, 3, 4, 5)
# corner 0-3 resistance ratios R(m+1)/R(m) for m = 1..4, to 4 decimals
CARPET_03_RATIOS = (1.7005, 1.5495, 1.4534, 1.3939)
KERNEL_LEVELS = (1, 2, 3, 4, 5)
TRACE_LEVELS = (5, 6, 7)


class ResistDouble:
    name = "resist-double"

    def setup(self, seed: int, lib):
        return standard_carpet()  # seed-free: the job builds its own graphs

    def job(self, template, lib) -> Outcome:
        out = Outcome()
        try:
            res = lib.resistance_scaling("carpet", list(CARPET_LEVELS), template=template, mode="double")
        except FAILURES:
            ops = 6 * len(CARPET_LEVELS) + len(CARPET_03_RATIOS) + 1  # resistances, ratios
            out.attempted += ops
            out.failed += ops
        else:
            for row in res["rows"]:
                r = float(row["resistance"])
                out.check(math.isfinite(r) and r > 0)
                out.values["fixed.carpet_R.m{}.{}-{}".format(row["level"], *row["pair"])] = r
                out.outputs.append(r)
            ratios = [float(x) for x in res["ratios"][(0, 3)]]
            for got, want in zip(ratios, CARPET_03_RATIOS):
                out.check(abs(got - want) < 5e-5)
            out.check(len(ratios) == len(CARPET_03_RATIOS))

        try:
            kc = lib.kernel_convergence("carpet", 1, 0, list(KERNEL_LEVELS), template=template)
        except FAILURES:
            ops = 15 * len(KERNEL_LEVELS) + 1  # kernel rows, gap order
            out.attempted += ops
            out.failed += ops
        else:
            for kernel in kc["kernels"]:
                for rk in sorted(kernel["rows"]):
                    row = kernel["rows"][rk]
                    probs = [float(row[c]) for c in sorted(row)]
                    out.check(abs(sum(probs) - 1) <= 1e-9 and all(-1e-12 <= p <= 1 + 1e-12 for p in probs))
                    out.outputs.append((kernel["m_prime"], rk, probs))
            gaps = [float(d["max_diff"]) for d in kc["diffs"]]
            out.check(len(gaps) == len(KERNEL_LEVELS) - 1 and all(b < a for a, b in zip(gaps, gaps[1:])))
            for d, gap in zip(kc["diffs"], gaps):
                out.values["fixed.kernel_gap.{}-{}".format(*d["pair"])] = gap
            out.outputs.append(gaps)

        for m in TRACE_LEVELS:
            g = lib.gasket_graph(m)
            net = lib.uniform_network(g, "double")
            corners = corner_indices(g)
            try:
                traced = lib.trace_network(net, corners)
            except FAILURES:
                out.attempted += 3
                out.failed += 3
                continue
            for u, v in combinations(corners, 2):
                try:
                    r0 = float(lib.effective_resistance(net, u, v))
                    r1 = float(lib.effective_resistance(traced, u, v))
                except FAILURES:
                    out.check(False)
                    continue
                out.check(abs(r1 - r0) <= 1e-10)
                out.values[f"fixed.gasket_R.m{m}.{u}-{v}"] = r0
                out.outputs.append((r0, r1))
        return out


WORKLOADS = {w.name: w for w in (ExactVerify(), CarpetCoupled(), CornerWalks(), ResistDouble())}
