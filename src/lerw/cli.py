"""Command line front end: one subcommand per experiment or verification.

Configuration comes from an optional JSON file plus flags, with flags
winning key by key.  Every run resolves an effective config, hashes it,
and writes a JSON summary embedding the config, its hash, the seed, and
a pass/fail flag per asserted check.  Tables go to CSV next to the
summary (with the config hash on a comment line); paths, laws, and
graphs go to plain text kept byte-parseable by their readers, so those
dumps stay diffable and the summary lists them by name.

Randomized subcommands print the effective seed even when it was
auto-generated, and their outputs are byte-identical for a fixed
config+seed at any worker count.

Exit codes: 0 when every asserted check passed, 1 when a verification
failed (a located counterexample is written beside the summary), 2 for
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import secrets
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
from random import Random

from .chain import STEP_CAP, MarkovChain, StepCapExceeded, _entry_tables, build_chain, chain_from_text, dense_chain
from .erasure import fold_step
from .exactlaw import (
    GuardError,
    enumerate_erasure_law,
    f_product,
    green_diagonal,
    law_to_text,
    tv_distance,
)
from .fractal import (
    corner_indices,
    graph_to_text,
    standard_carpet,
    template_from_text,
    validate_carpet_template,
)
from .limits import (
    WalkConfig,
    _family_graph,
    coupled_refinement_distance,
    kernel_convergence,
    lerw_set_law,
    resistance_scaling,
    set_law_to_text,
)

OUTPUT_DIR_ENV = "LERW_OUTPUT_DIR"


class UsageError(Exception):
    """Bad flags, bad config file, or values the domain code rejects."""


def bundled_chain() -> MarkovChain:
    """Built-in example: three communicating states draining into d.

    Every row gives half its mass to the absorbing target, so exact
    enumerations converge fast and capped tails stay tiny.
    """
    t = Fraction(1, 12)
    return build_chain(
        list("abcd"),
        [
            [t, 2 * t, 3 * t, 6 * t],
            [3 * t, t, 2 * t, 6 * t],
            [2 * t, 3 * t, t, 6 * t],
            [0, 0, 0, 1],
        ],
        "rational",
    )


def _buggy_ple_step(prefix: tuple, y, retained) -> tuple:
    """Negative-control hook: erases to the revisit but keeps it twice."""
    out = fold_step(prefix, y, retained)
    return out if len(out) > len(prefix) else out + (y,)


# ---------------------------------------------------------------------------
# Config plumbing

DEFAULTS = {
    "verify-theorem1": {
        "seed": None,
        "chain": None,
        "chains": 0,
        "states_max": 4,
        "max_cases": 500,
        "tol": 1e-9,
        "length_cap": 12,
        "out": None,
        "inject_ple_bug": False,
    },
    "verify-green": {
        "seed": None,
        "identities": 200,
        "permutations": 30,
        "out": None,
    },
    "graph": {
        "gasket": False,
        "carpet": None,
        "m": None,
        "out": None,
    },
    "resist": {
        "gasket": False,
        "carpet": None,
        "m": None,
        "mode": "double",
        "pair": "corners",
        "band": None,
        "out": None,
    },
    "converge": {
        "what": "kernel",
        "gasket": False,
        "carpet": None,
        "m": None,
        "m_primes": None,
        "corner": 0,
        "pairs": None,
        "start": None,
        "to": None,
        "n": 1000,
        "seed": None,
        "workers": 1,
        "assert_decreasing": False,
        "out": None,
    },
    "simulate": {
        "gasket": False,
        "carpet": None,
        "m": None,
        "start": None,
        "to": None,
        "n": 1000,
        "pipeline": "le",
        "seed": None,
        "workers": 1,
        "step_cap": STEP_CAP,
        "out": None,
    },
    "exact-law": {
        "chain": None,
        "start": None,
        "absorbing": None,
        "pipeline": "le",
        "length_cap": 40,
        "tol": None,
        "out": None,
    },
}


def _load_json_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"config file is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _effective_config(name: str, args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS[name])
    if args.config:
        file_cfg = _load_json_config(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys for {name}: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, val in vars(args).items():
        if key in ("config", "cmd", "subcommand") or val is None:
            continue
        cfg[key] = val
    return cfg


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canon_json(_public_config(cfg)).encode()).hexdigest()[:16]


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_seed(cfg: dict, announce: bool) -> int:
    seed = cfg.get("seed")
    if seed is None:
        seed = secrets.randbits(63)
        cfg["seed"] = seed
    if announce:
        print(f"seed: {seed}")
    return seed


def _csv_text(hash_: str, header: list, rows: list) -> str:
    buf = io.StringIO()
    buf.write(f"# config {hash_}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _num(v) -> str:
    """Deterministic cell/text form for exact and floating values."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(float(v))  # a numpy float64 would repr as np.float64(...)
    return str(v)


def _public_config(cfg: dict) -> dict:
    """The result-defining part of a config.

    Worker count and output location never change what is computed, so
    they stay out of the embedded config and its hash; that keeps
    outputs byte-comparable across worker counts and directories.
    """
    return {k: v for k, v in cfg.items() if k not in ("workers", "out")}


def _finish(
    name: str,
    cfg: dict,
    out: Path,
    results: dict,
    checks: dict,
    files: dict,
    counterexample: dict | None = None,
) -> int:
    stem = name.replace("-", "_")
    passed = all(v is not False for v in checks.values())
    if counterexample is not None:
        fname = "counterexample.json"
        (out / fname).write_text(_canon_json(counterexample))
        files = {**files, "counterexample": fname}
    summary = {
        "subcommand": name,
        "config": _public_config(cfg),
        "config_hash": _config_hash(cfg),
        "seed": cfg.get("seed"),
        "checks": checks,
        "pass": passed,
        "results": results,
        "files": files,
    }
    (out / f"{stem}.json").write_text(_canon_json(summary))
    status = "PASS" if passed else "FAIL"
    detail = "" if passed else " (see counterexample.json)"
    print(f"{name}: {status}{detail}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Graph selection helpers

def _family(cfg: dict) -> tuple:
    """(kind, template) of the graph family chosen by --gasket or --carpet."""
    wants_gasket = bool(cfg.get("gasket"))
    carpet = cfg.get("carpet")
    if wants_gasket == (carpet is not None):
        raise UsageError("choose exactly one of --gasket or --carpet")
    if wants_gasket:
        return "gasket", None
    return "carpet", _template(carpet)


def _template(spec: str):
    if spec == "standard":
        return standard_carpet()
    try:
        text = Path(spec).read_text()
    except OSError as e:
        raise UsageError(f"cannot read template file: {e}")
    template = template_from_text(text)
    problems = validate_carpet_template(template)
    if problems:
        raise UsageError("invalid carpet template: " + "; ".join(problems))
    return template


def _parse_level(cfg: dict) -> int:
    m = cfg.get("m")
    if m is None:
        raise UsageError("a level is required (-m)")
    try:
        return int(m)
    except (TypeError, ValueError):
        raise UsageError(f"level must be an integer, got {m!r}")


def _parse_level_range(text) -> list:
    if text is None:
        raise UsageError("a level range is required")
    if isinstance(text, int):
        return [text]
    if isinstance(text, list):
        return [int(v) for v in text]
    s = str(text)
    try:
        if ".." in s:
            lo, hi = s.split("..")
            return list(range(int(lo), int(hi) + 1))
        if "," in s:
            return sorted({int(v) for v in s.split(",")})
        return [int(s)]
    except ValueError:
        raise UsageError(f"bad level range {text!r}; use forms like 3, 1..4, or 1,2,4")


def _corner_vertex(token, graph) -> int:
    corners = corner_indices(graph)
    s = str(token)
    if s.startswith("q"):
        try:
            k = int(s[1:])
        except ValueError:
            raise UsageError(f"bad corner token {token!r}")
        if not 1 <= k <= len(corners):
            raise UsageError(f"corner {token!r} does not exist on this graph")
        return corners[k - 1]
    try:
        v = int(s)
    except ValueError:
        raise UsageError(f"bad vertex token {token!r}; use q1..q{len(corners)} or an index")
    if not 0 <= v < graph.n:
        raise UsageError(f"vertex index {v} out of range")
    return v


def _target_vertices(spec, graph) -> list:
    if spec is None:
        raise UsageError("target vertices are required (--to)")
    toks = spec if isinstance(spec, list) else str(spec).split(",")
    return [_corner_vertex(t, graph) for t in toks]


def _parse_pipeline_levels(spec, graph):
    """"le" or a comma list of vK tokens naming nested vertex sets."""
    s = str(spec).strip().lower()
    if s == "le":
        return "LE"
    stages = []
    for tok in s.split(","):
        if not tok.startswith("v"):
            raise UsageError(f"bad pipeline stage {tok!r}; use le or v0,v1,...")
        try:
            k = int(tok[1:])
        except ValueError:
            raise UsageError(f"bad pipeline stage {tok!r}")
        if not 0 <= k <= graph.level:
            raise UsageError(f"stage {tok!r} exceeds the graph level {graph.level}")
        stages.append(graph.nested[k])
    if not stages:
        raise UsageError("empty pipeline")
    return stages


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_graph(cfg: dict) -> int:
    out = _out_dir(cfg)
    level = _parse_level(cfg)
    kind, template = _family(cfg)
    graph = _family_graph(kind, level, template)
    vtext, etext = graph_to_text(graph)
    (out / "graph_vertices.txt").write_text(vtext)
    (out / "graph_edges.txt").write_text(etext)
    results = {
        "kind": graph.kind,
        "level": graph.level,
        "grid": graph.grid,
        "vertices": graph.n,
        "edges": len(graph.edges),
        "nested_sizes": [len(s) for s in graph.nested],
        "corners": list(corner_indices(graph)),
    }
    print(f"graph: {graph.kind} level {graph.level}: {graph.n} vertices, {len(graph.edges)} edges")
    return _finish(
        "graph",
        cfg,
        out,
        results,
        checks={},
        files={"vertices": "graph_vertices.txt", "edges": "graph_edges.txt"},
    )


def _parse_pairs(spec) -> list | None:
    if spec is None or str(spec) == "corners":
        return None
    pairs = []
    for tok in str(spec).split(","):
        try:
            i, j = tok.split("-")
            pairs.append((int(i), int(j)))
        except ValueError:
            raise UsageError(f"bad probe pair {tok!r}; use forms like 0-3,1-2")
    return pairs


def _cmd_resist(cfg: dict) -> int:
    out = _out_dir(cfg)
    levels = _parse_level_range(cfg.get("m"))
    kind, template = _family(cfg)
    band = cfg.get("band")
    res = resistance_scaling(
        kind,
        levels,
        template=template,
        mode=cfg["mode"],
        pairs=_parse_pairs(cfg.get("pair")),
        band=band,
    )
    h = _config_hash(cfg)
    rows = [
        [r["level"], f"{r['pair'][0]}-{r['pair'][1]}", _num(r["resistance"]), repr(r["rho"])]
        for r in res["rows"]
    ]
    (out / "resist.csv").write_text(
        _csv_text(h, ["level", "pair", "resistance", "rho"], rows)
    )
    ratio_rows = []
    for pair in sorted(res["ratios"]):
        for (lo, hi), ratio in zip(zip(levels, levels[1:]), res["ratios"][pair]):
            ratio_rows.append([f"{pair[0]}-{pair[1]}", lo, hi, _num(ratio)])
    (out / "resist_ratios.csv").write_text(
        _csv_text(h, ["pair", "level_from", "level_to", "ratio"], ratio_rows)
    )
    spread = {f"{i}-{j}": s for (i, j), s in sorted(res["ratio_spread"].items())}
    results = {
        "kind": kind,
        "levels": levels,
        "mode": cfg["mode"],
        "gamma_hat": res["gamma_hat"],
        "envelope": list(res["envelope"]) if res["envelope"] else None,
        "ratio_spread": spread,
        "band": band,
    }
    checks = {} if band is None else {"ratio_band": res["band_ok"]}
    counterexample = None
    if band is not None and not res["band_ok"]:
        worst = max(res["ratio_spread"], key=res["ratio_spread"].get)
        counterexample = {
            "check": "ratio_band",
            "band": band,
            "pair": f"{worst[0]}-{worst[1]}",
            "levels": levels,
            "ratios": [float(r) for r in res["ratios"][worst]],
            "spread": res["ratio_spread"][worst],
        }
    print(
        f"resist: {kind} levels {levels[0]}..{levels[-1]}"
        f" gamma_hat={res['gamma_hat']:.6f}"
    )
    return _finish(
        "resist",
        cfg,
        out,
        results,
        checks,
        files={"table": "resist.csv", "ratios": "resist_ratios.csv"},
        counterexample=counterexample,
    )


def _cmd_converge(cfg: dict) -> int:
    out = _out_dir(cfg)
    what = cfg.get("what")
    if what == "kernel":
        return _converge_kernel(cfg, out)
    if what == "coupled":
        return _converge_coupled(cfg, out)
    raise UsageError("--what must be kernel or coupled")


def _converge_kernel(cfg: dict, out: Path) -> int:
    m = _parse_level(cfg)
    m_primes = _parse_level_range(cfg.get("m_primes"))
    kind, template = _family(cfg)
    res = kernel_convergence(kind, m, int(cfg["corner"]), m_primes, template=template)
    h = _config_hash(cfg)
    diff_rows = [[d["pair"][0], d["pair"][1], repr(d["max_diff"])] for d in res["diffs"]]
    (out / "converge.csv").write_text(
        _csv_text(h, ["m_prime_from", "m_prime_to", "max_diff"], diff_rows)
    )
    kernel_rows = []
    for entry in res["kernels"]:
        for rk in sorted(entry["rows"]):
            for ck in sorted(entry["rows"][rk]):
                kernel_rows.append(
                    [entry["m_prime"], f"{rk[0]},{rk[1]}", f"{ck[0]},{ck[1]}",
                     repr(entry["rows"][rk][ck])]
                )
    (out / "converge_kernels.csv").write_text(
        _csv_text(h, ["m_prime", "row", "col", "probability"], kernel_rows)
    )
    gaps = [d["max_diff"] for d in res["diffs"]]
    checks = {}
    counterexample = None
    if cfg.get("assert_decreasing"):
        ok = all(b < a for a, b in zip(gaps, gaps[1:]))
        checks["differences_decrease"] = ok
        if not ok:
            bad = next(i for i, (a, b) in enumerate(zip(gaps, gaps[1:])) if b >= a)
            counterexample = {
                "check": "differences_decrease",
                "levels": m_primes,
                "max_diffs": gaps,
                "first_violation_between": [m_primes[bad], m_primes[bad + 1], m_primes[bad + 2]],
            }
    results = {"kind": kind, "m": m, "m_primes": m_primes, "max_diffs": gaps}
    print(f"converge: kernel diffs {['%.3e' % g for g in gaps]}")
    return _finish(
        "converge",
        cfg,
        out,
        results,
        checks,
        files={"diffs": "converge.csv", "kernels": "converge_kernels.csv"},
        counterexample=counterexample,
    )


def _parse_level_pairs(spec) -> list:
    if spec is None:
        raise UsageError("coupled runs need --pairs, e.g. 1:2,2:3")
    pairs = []
    for tok in str(spec).split(","):
        try:
            a, b = tok.split(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise UsageError(f"bad level pair {tok!r}; use stage:level like 1:2")
    return pairs


def _converge_coupled(cfg: dict, out: Path) -> int:
    pairs = _parse_level_pairs(cfg.get("pairs"))
    seed = _resolve_seed(cfg, announce=True)
    n = int(cfg["n"])
    kind, template = _family(cfg)
    rows = []
    medians = []
    for stage, level in pairs:
        graph = _family_graph(kind, level, template)
        x = _corner_vertex(cfg.get("start") or "q1", graph)
        targets = _target_vertices(cfg.get("to") or "q2", graph)
        stats = coupled_refinement_distance(
            WalkConfig(graph, seed), stage, x, targets, n
        )
        rows.append(
            [stage, level, n, repr(stats["median"]), repr(stats["q90"]),
             repr(stats["mean"]), repr(stats["max"])]
        )
        medians.append(stats["median"])
    h = _config_hash(cfg)
    (out / "converge.csv").write_text(
        _csv_text(h, ["stage", "level", "n", "median", "q90", "mean", "max"], rows)
    )
    checks = {}
    counterexample = None
    if cfg.get("assert_decreasing"):
        ok = all(b < a for a, b in zip(medians, medians[1:]))
        checks["medians_decrease"] = ok
        if not ok:
            counterexample = {
                "check": "medians_decrease",
                "pairs": [list(p) for p in pairs],
                "medians": medians,
            }
    results = {"pairs": [list(p) for p in pairs], "n": n, "medians": medians}
    print(f"converge: coupled medians {['%.5f' % v for v in medians]}")
    return _finish(
        "converge",
        cfg,
        out,
        results,
        checks,
        files={"table": "converge.csv"},
        counterexample=counterexample,
    )


def _cmd_simulate(cfg: dict) -> int:
    out = _out_dir(cfg)
    level = _parse_level(cfg)
    kind, template = _family(cfg)
    graph = _family_graph(kind, level, template)
    seed = _resolve_seed(cfg, announce=True)
    x = _corner_vertex(cfg.get("start") or "q1", graph)
    targets = _target_vertices(cfg.get("to"), graph)
    pipeline = _parse_pipeline_levels(cfg.get("pipeline"), graph)
    n = int(cfg["n"])
    config = WalkConfig(graph, seed, step_cap=int(cfg["step_cap"]))
    law = lerw_set_law(config, x, targets, n, pipeline)
    (out / "simulate_law.txt").write_text(set_law_to_text(law))
    top = max(law.atoms.values())
    results = {
        "kind": graph.kind,
        "level": graph.level,
        "samples": law.total,
        "distinct_images": len(law.atoms),
        "mode_count": top,
    }
    print(f"simulate: {law.total} samples, {len(law.atoms)} distinct images")
    return _finish(
        "simulate", cfg, out, results, checks={}, files={"law": "simulate_law.txt"}
    )


def _load_chain(cfg: dict) -> MarkovChain:
    path = cfg.get("chain")
    if path is None:
        return bundled_chain()
    try:
        return chain_from_text(Path(path).read_text())
    except OSError as e:
        raise UsageError(f"cannot read chain file: {e}")
    except ValueError as e:
        raise UsageError(f"bad chain file: {e}")


def _cmd_exact_law(cfg: dict) -> int:
    out = _out_dir(cfg)
    chain = _load_chain(cfg)
    states = set(chain.states)
    start = cfg.get("start") or chain.states[0]
    if start not in states:
        raise UsageError(f"unknown start state {start!r}")
    absorbing = cfg.get("absorbing")
    if absorbing is None:
        absorbing = [chain.states[-1]]
    elif not isinstance(absorbing, list):
        absorbing = str(absorbing).split(",")
    spec = cfg.get("pipeline")
    if str(spec).strip().lower() == "le":
        pipeline = "LE"
    else:
        pipeline = [frozenset(stage.split(",")) for stage in str(spec).split(";")]
    tol = cfg.get("tol")
    if tol is not None:
        tol = Fraction(str(tol)) if chain.mode == "rational" else float(tol)
    law = enumerate_erasure_law(
        chain,
        start,
        absorbing,
        pipeline,
        length_cap=int(cfg["length_cap"]),
        tol=tol,
    )
    (out / "exact_law.txt").write_text(law_to_text(law))
    results = {
        "states": list(map(str, chain.states)),
        "start": str(start),
        "absorbing": sorted(map(str, absorbing)),
        "atoms": len(law.atoms),
        "total_mass": _num(law.total()),
        "tail_bound": _num(law.tail_bound),
    }
    print(f"exact-law: {len(law.atoms)} atoms, tail bound {_num(law.tail_bound)}")
    return _finish(
        "exact-law", cfg, out, results, checks={}, files={"law": "exact_law.txt"}
    )


def _nested_pipelines(states: tuple) -> list:
    """All 2-level and 3-level nested stage sequences ending in the full set."""
    # Unlike the acceptance test's copy, the first stage may be empty; the
    # fuzzed cases follow this list, so sharing one copy would change both
    # the verify-theorem1 outputs and the test's case count.
    full = frozenset(states)
    out = []
    for mask in product((0, 1), repeat=len(states)):
        v1 = frozenset(s for s, keep in zip(states, mask) if keep)
        out.append([v1, full])
    for assign in product((0, 1, 2), repeat=len(states)):
        v1 = frozenset(s for s, a in zip(states, assign) if a == 2)
        v2 = frozenset(s for s, a in zip(states, assign) if a >= 1)
        out.append([v1, v2, full])
    return out


def _equality_cases(chain: MarkovChain, rng: Random, max_cases: int) -> list:
    states = chain.states
    pipelines = _nested_pipelines(states)
    cases = []
    for r in range(1, len(states)):
        for a in combinations(states, r):
            a = frozenset(a)
            closure = _entry_tables(chain, a)[0]
            for x in states:
                if x in a or x not in closure:
                    continue
                for pipeline in pipelines:
                    cases.append((x, a, pipeline))
    rng.shuffle(cases)
    return cases[:max_cases]


def _cmd_verify_theorem1(cfg: dict) -> int:
    out = _out_dir(cfg)
    fuzzing = int(cfg["chains"]) > 0 and cfg.get("chain") is None
    seed = _resolve_seed(cfg, announce=True)
    rng = Random(seed)
    inject = bool(cfg.get("inject_ple_bug"))
    step_fn = _buggy_ple_step if inject else None

    if cfg.get("chain") is not None:
        chains = [_load_chain(cfg)]
    elif fuzzing:
        states_max = int(cfg["states_max"])
        if states_max > 5:
            raise UsageError("fuzz chains are capped at 5 states")
        chains = [dense_chain(rng, rng.randint(3, states_max)) for _ in range(int(cfg["chains"]))]
    else:
        chains = [bundled_chain()]

    # a broken erasure keeps revisited states, so its tower chain is
    # infinite; verification under the injected bug therefore runs at the
    # fixed cap instead of the exact elimination
    tol = None
    if not inject and cfg.get("tol") is not None:
        tol = Fraction(str(cfg["tol"]))
    cap = int(cfg["length_cap"])
    checked = 0
    worst = None
    counterexample = None
    for ci, chain in enumerate(chains):
        cases = _equality_cases(chain, rng, int(cfg["max_cases"]))
        if inject:
            # pin one case known to surface the corruption regardless of
            # which random cases the cap keeps
            pinned_chain = bundled_chain()
            pinned = ("a", frozenset("d"), [frozenset("ab"), frozenset(pinned_chain.states)])
            if chain.states == pinned_chain.states:
                cases = [pinned] + cases[: max(0, len(cases) - 1)]
        le_cache: dict = {}
        for x, a, pipeline in cases:
            key = (x, a)
            if key not in le_cache:
                le_cache[key] = enumerate_erasure_law(
                    chain, x, a, "LE", length_cap=cap, tol=tol
                )
            plain = le_cache[key]
            refined = enumerate_erasure_law(
                chain, x, a, pipeline, length_cap=cap, tol=tol, step_fn=step_fn
            )
            tv = tv_distance(plain, refined)
            bound = plain.tail_bound + refined.tail_bound
            checked += 1
            gap = tv - bound
            if worst is None or gap > worst:
                worst = gap
            if tv > bound:
                counterexample = {
                    "check": "tv_within_tail_bounds",
                    "chain_index": ci,
                    "states": list(map(str, chain.states)),
                    "kernel": [[str(p) for p in row] for row in chain.kernel],
                    "start": str(x),
                    "absorbing": sorted(map(str, a)),
                    "pipeline": [sorted(map(str, v)) for v in pipeline],
                    "tv_distance": str(tv),
                    "tail_bound_sum": str(bound),
                }
                break
        if counterexample:
            break

    checks = {"tv_within_tail_bounds": counterexample is None}
    results = {
        "chains": len(chains),
        "cases_checked": checked,
        "worst_tv_minus_bound": float(worst) if worst is not None else None,
        "injected_bug": inject,
    }
    print(f"verify-theorem1: {checked} cases over {len(chains)} chains")
    return _finish(
        "verify-theorem1", cfg, out, results, checks, files={},
        counterexample=counterexample,
    )


def _cmd_verify_green(cfg: dict) -> int:
    out = _out_dir(cfg)
    seed = _resolve_seed(cfg, announce=True)
    rng = Random(seed)
    counterexample = None

    identity_ok = True
    for i in range(int(cfg["identities"])):
        chain = dense_chain(rng, rng.randint(3, 5))
        states = list(chain.states)
        b = frozenset(rng.sample(states, rng.randint(2, len(states) - 1)))
        x, y = rng.sample(sorted(b), 2)
        lhs = green_diagonal(chain, b - {y}, x) * green_diagonal(chain, b, y)
        rhs = green_diagonal(chain, b, x) * green_diagonal(chain, b - {x}, y)
        if lhs != rhs:
            identity_ok = False
            counterexample = {
                "check": "green_identity",
                "instance": i,
                "states": states,
                "kernel": [[str(p) for p in row] for row in chain.kernel],
                "domain": sorted(b),
                "x": x,
                "y": y,
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
            break

    permutation_ok = True
    if identity_ok:
        for i in range(int(cfg["permutations"])):
            chain = dense_chain(rng, rng.randint(4, 5))
            states = list(chain.states)
            b = frozenset(rng.sample(states, rng.randint(3, len(states) - 1)))
            pts = rng.sample(sorted(b), 3)
            vals = {f_product(chain, b, perm) for perm in permutations(pts)}
            if len(vals) != 1:
                permutation_ok = False
                counterexample = {
                    "check": "product_permutation_invariance",
                    "instance": i,
                    "states": states,
                    "kernel": [[str(p) for p in row] for row in chain.kernel],
                    "domain": sorted(b),
                    "points": pts,
                    "values": sorted(str(v) for v in vals),
                }
                break

    checks = {"green_identity": identity_ok, "product_permutation_invariance": permutation_ok}
    results = {
        "identity_instances": int(cfg["identities"]),
        "permutation_instances": int(cfg["permutations"]),
    }
    print(
        f"verify-green: {cfg['identities']} identity and"
        f" {cfg['permutations']} permutation instances"
    )
    return _finish(
        "verify-green", cfg, out, results, checks, files={},
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# Parser

def _add_common(p: argparse.ArgumentParser, *flags: str):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    if "seed" in flags:
        p.add_argument("--seed", type=int, help="64-bit master seed")
    if "workers" in flags:
        p.add_argument("--workers", type=int,
                       help="accepted for compatibility and ignored: sampling runs serially")
    if "mode" in flags:
        p.add_argument("--mode", choices=["rational", "double"], help="numeric mode")
    if "graph" in flags:
        p.add_argument("--gasket", action="store_true", default=None,
                       help="use the triangular family")
        p.add_argument("--carpet", metavar="TEMPLATE",
                       help='square family: "standard" or a template file')


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lerw",
        description="Loop-erased walk laws: exact verification, sampling, and scaling runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("verify-theorem1",
                       help="exact equality of erased and refined walk laws")
    _add_common(p, "seed")
    p.add_argument("--chain", help="chain text file (default: bundled example)")
    p.add_argument("--chains", type=int, help="number of fuzzed chains instead")
    p.add_argument("--states-max", type=int, dest="states_max", help="fuzz chain size cap")
    p.add_argument("--max-cases", type=int, dest="max_cases",
                   help="cases checked per chain")
    p.add_argument("--tol", type=float, help="any positive value solves each law exactly (tail bound 0)")
    p.add_argument("--length-cap", type=int, dest="length_cap")
    p.set_defaults(cmd=_cmd_verify_theorem1)

    p = sub.add_parser("verify-green", help="visit-count identities, exact rational fuzz")
    _add_common(p, "seed")
    p.add_argument("--identities", type=int, help="identity instances")
    p.add_argument("--permutations", type=int, help="permutation instances")
    p.set_defaults(cmd=_cmd_verify_green)

    p = sub.add_parser("graph", help="export a level graph as text")
    _add_common(p, "graph")
    p.add_argument("-m", "--level", dest="m", help="level")
    p.set_defaults(cmd=_cmd_graph)

    p = sub.add_parser("resist", help="effective resistance scaling across levels")
    _add_common(p, "mode", "graph")
    p.add_argument("-m", "--levels", dest="m", help="level range, e.g. 1..4")
    p.add_argument("--pair", help='probe pairs: "corners" or index pairs like 0-3,1-2')
    p.add_argument("--band", type=float,
                   help="assert successive ratios stay within this relative band")
    p.set_defaults(cmd=_cmd_resist)

    p = sub.add_parser("simulate", help="sample erased walk images into a set law")
    _add_common(p, "seed", "workers", "graph")
    p.add_argument("-m", "--level", dest="m", help="level")
    p.add_argument("--from", dest="start", help="start vertex: q1..q4 or an index")
    p.add_argument("--to", help="target vertices, comma separated")
    p.add_argument("-n", "--samples", dest="n", type=int, help="sample count")
    p.add_argument("--pipeline", help='"le" or nested stages like v0,v2')
    p.add_argument("--step-cap", dest="step_cap", type=int, help="walk length guard")
    p.set_defaults(cmd=_cmd_simulate)

    p = sub.add_parser("converge", help="kernel and coupled-image convergence tables")
    _add_common(p, "seed", "workers", "graph")
    p.add_argument("--what", choices=["kernel", "coupled"])
    p.add_argument("-m", "--level", dest="m", help="traced vertex-set level (kernel)")
    p.add_argument("--m-primes", dest="m_primes", help="walk levels, e.g. 1..4 (kernel)")
    p.add_argument("--corner", type=int, help="killing corner index (kernel)")
    p.add_argument("--pairs", help="stage:level pairs, e.g. 1:2,2:3 (coupled)")
    p.add_argument("--from", dest="start", help="start vertex (coupled)")
    p.add_argument("--to", help="target vertices (coupled)")
    p.add_argument("-n", "--samples", dest="n", type=int, help="samples per pair (coupled)")
    p.add_argument("--assert-decreasing", dest="assert_decreasing",
                   action="store_true", default=None,
                   help="fail unless the tabulated trend strictly decreases")
    p.set_defaults(cmd=_cmd_converge)

    p = sub.add_parser("exact-law", help="enumerate an erased-walk law exactly")
    _add_common(p)
    p.add_argument("--chain", help="chain text file (default: bundled example)")
    p.add_argument("--start", help="start state")
    p.add_argument("--absorbing", help="absorbing states, comma separated")
    p.add_argument("--pipeline", help='"le" or stages like a,c;a,b,c,d')
    p.add_argument("--length-cap", dest="length_cap", type=int)
    p.add_argument(
        "--tol", type=float,
        help="exact law (tail 0) if the last stage is full, else step until the tail meets this",
    )
    p.set_defaults(cmd=_cmd_exact_law)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _effective_config(args.subcommand, args)
        return args.cmd(cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, GuardError, StepCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
