"""Command line front end: one subcommand per experiment or verification.

Configuration comes from an optional JSON file plus flags, with flags
winning key by key.  A config key is its flag's name with "-" as "_"
(`-m` is `m`, `--from` is `start`, `-n` is `n`), and its default is
written once, on the flag's declaration in `_build_parser`.  Every run
resolves an effective config, hashes it, and writes a JSON summary
embedding the config, its hash, the seed, and a pass/fail flag per
asserted check.  Tables go to CSV next to the
summary (with the config hash on a comment line); paths, laws, and
graphs go to plain text kept byte-parseable by their readers, so those
dumps stay diffable and the summary lists them by name.

Subcommands only compute.  `_finish` alone makes `--out` and writes
under it, taking each file once as `{label: (file name, body)}`, so a
run refused or failed before it leaves no directory.  Integer config
keys are read by `_count`, which names the key it refuses.

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
    _drawn_row_note,
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
CONVERGE_TABLE = "converge.csv"  # both --what routes tabulate into it


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


def _effective_config(args: argparse.Namespace) -> dict:
    """The subcommand's defaults, then the config file's keys, then every
    flag given.  The defaults come from the flag declarations; argparse
    parses a flag left out as None."""
    cfg = dict(args.defaults)
    if args.config:
        file_cfg = _load_json_config(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys for {args.subcommand}: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in args.defaults:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _integer(v, key: str) -> int:
    """v as an integer: an int, an integral float or an integer string.
    Any other value, null and bools included, raises UsageError naming
    the config key."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    try:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ValueError
        return int(v)
    except ValueError:
        raise UsageError(f"config key {key} must be an integer, got {json.dumps(v)}")


def _count(cfg: dict, key: str, least: int | None = None) -> int:
    """cfg[key] by `_integer` (a config file's "500" stays a string in the
    summary); one below `least` raises UsageError.  Counts and caps take
    least=1: at 0 a verification passes with nothing checked and a walk
    can take no step."""
    n = _integer(cfg[key], key)
    if least is not None and n < least:
        need = f"be at least {least}" if least else "not be negative"
        raise UsageError(f"--{key.replace('_', '-')} must {need}, got {n}")
    return n


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canon_json(_public_config(cfg)).encode()).hexdigest()[:16]


def _out_dir(cfg: dict) -> Path:
    """The output directory, created; only `_finish` calls it."""
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


def _json_num(v):
    """JSON form of a value: a Fraction as its exact string, else a float."""
    return str(v) if isinstance(v, Fraction) else float(v)


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
    results: dict,
    checks: dict,
    files: dict,
    counterexample: dict | None = None,
    stats: list | None = None,
) -> int:
    """Write a run's files, its counterexample and its summary under
    --out, print the verdict and return the exit code.

    `files` maps each label to (file name, body), the body being the
    file's text or (header, rows) for a CSV stamped with the config
    hash.  The summary maps each label to its file name, a
    counterexample under the label "counterexample".
    """
    stem = name.replace("-", "_")
    passed = all(v is not False for v in checks.values())
    out = _out_dir(cfg)
    h = _config_hash(cfg)
    if counterexample is not None:
        files = {**files, "counterexample": ("counterexample.json", _canon_json(counterexample))}
    for fname, body in files.values():
        (out / fname).write_text(body if isinstance(body, str) else _csv_text(h, *body))
    summary = {
        "subcommand": name,
        "config": _public_config(cfg),
        "config_hash": h,
        "seed": cfg.get("seed"),
        "checks": checks,
        "pass": passed,
        "results": results,
        "files": {label: fname for label, (fname, _) in files.items()},
    }
    if stats is not None:
        summary["stats"] = stats
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
        raise UsageError("invalid carpet template: " + "; ".join(problems) + _drawn_row_note(text))
    return template


def _parse_level(cfg: dict) -> int:
    if cfg.get("m") is None:
        raise UsageError("a level is required (-m)")
    return _count(cfg, "m")


def _parse_level_range(cfg: dict, key: str) -> list:
    """cfg[key] as sorted distinct levels: one level by `_integer`, a list
    of them, or a string such as 3, 1..4 or 1,2,4."""
    spec = cfg.get(key)
    if spec is None:
        raise UsageError("a level range is required")
    if isinstance(spec, list):
        return sorted({_integer(v, key) for v in spec})
    if not isinstance(spec, str):
        return [_integer(spec, key)]
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            return list(range(int(lo), int(hi) + 1))
        return sorted({int(v) for v in spec.split(",")})
    except ValueError:
        raise UsageError(f"bad level range {spec!r}; use forms like 3, 1..4, or 1,2,4")


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
    level = _parse_level(cfg)
    kind, template = _family(cfg)
    graph = _family_graph(kind, level, template)
    vtext, etext = graph_to_text(graph)
    results = {
        "kind": graph.kind,
        "level": graph.level,
        "grid": graph.grid,
        "vertices": graph.n,
        "edges": len(graph.ends),
        "nested_sizes": [len(s) for s in graph.level_sets],
        "corners": list(corner_indices(graph)),
    }
    print(f"graph: {graph.kind} level {graph.level}: {graph.n} vertices, {len(graph.ends)} edges")
    return _finish(
        "graph", cfg, results, checks={},
        files={"vertices": ("graph_vertices.txt", vtext), "edges": ("graph_edges.txt", etext)},
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
    levels = _parse_level_range(cfg, "m")
    kind, template = _family(cfg)
    band = cfg.get("band")
    res = resistance_scaling(
        kind, levels, template=template, mode=cfg["mode"], pairs=_parse_pairs(cfg.get("pair")), band=band
    )
    rows = [
        [r["level"], f"{r['pair'][0]}-{r['pair'][1]}", _num(r["resistance"]), repr(r["rho"])]
        for r in res["rows"]
    ]
    ratio_rows = []
    for pair in sorted(res["ratios"]):
        for (lo, hi), ratio in zip(zip(levels, levels[1:]), res["ratios"][pair]):
            ratio_rows.append([f"{pair[0]}-{pair[1]}", lo, hi, _num(ratio)])
    spread = {f"{i}-{j}": s for (i, j), s in sorted(res["ratio_spread"].items())}
    results = {
        "kind": kind,
        "levels": levels,
        "mode": cfg["mode"],
        "gamma_hat": res["gamma_hat"],
        "envelope": list(res["envelope"]) if res["envelope"] else None,
        "ratio_spread": spread,
        "ratio_differences": {
            f"{i}-{j}": [_json_num(d) for d in ds]
            for (i, j), ds in sorted(res["ratio_differences"].items())
        },
        "aitken_limit": {
            f"{i}-{j}": None if a is None else _json_num(a)
            for (i, j), a in sorted(res["aitken_limit"].items())
        },
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
        "resist", cfg, results, checks,
        files={
            "table": ("resist.csv", (["level", "pair", "resistance", "rho"], rows)),
            "ratios": ("resist_ratios.csv", (["pair", "level_from", "level_to", "ratio"], ratio_rows)),
        },
        counterexample=counterexample,
    )


def _cmd_converge(cfg: dict) -> int:
    what = cfg.get("what")
    if what == "kernel":
        return _converge_kernel(cfg)
    if what == "coupled":
        return _converge_coupled(cfg)
    raise UsageError("--what must be kernel or coupled")


def _check_trend(cfg: dict, points: int, what: str):
    """Refuse --assert-decreasing on fewer than two points: it would pass
    with nothing compared."""
    if cfg.get("assert_decreasing") and points < 2:
        raise UsageError(f"--assert-decreasing compares {what}: it needs at least two, got {points}")


def _trend_verdict(cfg: dict, check: str, values: list, located) -> tuple:
    """(checks, counterexample) of --assert-decreasing: `check` passes when
    `values` strictly decrease; at the first i with values[i + 1] >= values[i]
    the counterexample is {"check": check, **located(i)}."""
    if not cfg.get("assert_decreasing"):
        return {}, None
    bad = next((i for i, (a, b) in enumerate(zip(values, values[1:])) if b >= a), None)
    if bad is None:
        return {check: True}, None
    return {check: False}, {"check": check, **located(bad)}


def _converge_kernel(cfg: dict) -> int:
    m = _parse_level(cfg)
    m_primes = _parse_level_range(cfg, "m_primes")
    _check_trend(cfg, max(len(m_primes) - 1, 0), "kernel differences of successive m' levels")
    corner = _count(cfg, "corner")
    kind, template = _family(cfg)
    res = kernel_convergence(kind, m, corner, m_primes, template=template)
    diff_rows = [[d["pair"][0], d["pair"][1], repr(d["max_diff"])] for d in res["diffs"]]
    kernel_rows = [
        [e["m_prime"], f"{rk[0]},{rk[1]}", f"{ck[0]},{ck[1]}", repr(e["rows"][rk][ck])]
        for e in res["kernels"] for rk in sorted(e["rows"]) for ck in sorted(e["rows"][rk])
    ]
    gaps = [d["max_diff"] for d in res["diffs"]]
    checks, counterexample = _trend_verdict(
        cfg, "differences_decrease", gaps,
        lambda i: {"levels": m_primes, "max_diffs": gaps, "first_violation_between": m_primes[i:i + 3]},
    )
    results = {"kind": kind, "m": m, "m_primes": m_primes, "max_diffs": gaps}
    print(f"converge: kernel diffs {['%.3e' % g for g in gaps]}")
    return _finish(
        "converge", cfg, results, checks,
        files={
            "diffs": (CONVERGE_TABLE, (["m_prime_from", "m_prime_to", "max_diff"], diff_rows)),
            "kernels": ("converge_kernels.csv", (["m_prime", "row", "col", "probability"], kernel_rows)),
        },
        counterexample=counterexample,
    )


def _parse_level_pairs(spec) -> list:
    """The stage:level pairs of --pairs; a stage outside 0..level or a
    pair given twice raises UsageError."""
    if spec is None:
        raise UsageError("coupled runs need --pairs, e.g. 1:2,2:3")
    pairs = []
    for tok in str(spec).split(","):
        try:
            a, b = tok.split(":")
            stage, level = int(a), int(b)
        except ValueError:
            raise UsageError(f"bad level pair {tok!r}; use stage:level like 1:2")
        if not 0 <= stage <= level:
            raise UsageError(f"level pair {stage}:{level} needs 0 <= stage <= level")
        if (stage, level) in pairs:
            raise UsageError(f"level pair {stage}:{level} is repeated")
        pairs.append((stage, level))
    return pairs


def _converge_coupled(cfg: dict) -> int:
    pairs = _parse_level_pairs(cfg.get("pairs"))
    n = _count(cfg, "n")
    if n < 1:
        raise UsageError(f"num_samples must be positive, got -n {n}")
    _check_trend(cfg, len(pairs), "the medians of level pairs")
    kind, template = _family(cfg)
    seed = _resolve_seed(cfg, announce=True)
    rows, medians, counters = [], [], []
    for stage, level in pairs:
        graph = _family_graph(kind, level, template)
        x = _corner_vertex(cfg.get("start") or "q1", graph)
        targets = _target_vertices(cfg.get("to") or "q2", graph)
        stats = coupled_refinement_distance(WalkConfig(graph, seed), stage, x, targets, n)
        rows.append(
            [stage, level, n, repr(stats["median"]), repr(stats["q90"]),
             repr(stats["mean"]), repr(stats["max"])]
        )
        medians.append(stats["median"])
        counters.append({"stage": stage, "level": level, **stats["stats"]})
    pair_list = [list(p) for p in pairs]
    checks, counterexample = _trend_verdict(
        cfg, "medians_decrease", medians, lambda i: {"pairs": pair_list, "medians": medians}
    )
    results = {"pairs": pair_list, "n": n, "medians": medians}
    print(f"converge: coupled medians {['%.5f' % v for v in medians]}")
    return _finish(
        "converge", cfg, results, checks,
        files={"table": (CONVERGE_TABLE, (["stage", "level", "n", "median", "q90", "mean", "max"], rows))},
        counterexample=counterexample,
        stats=counters,
    )


def _cmd_simulate(cfg: dict) -> int:
    n = _count(cfg, "n")
    step_cap = _count(cfg, "step_cap", least=1)
    level = _parse_level(cfg)
    kind, template = _family(cfg)
    graph = _family_graph(kind, level, template)
    seed = _resolve_seed(cfg, announce=True)
    x = _corner_vertex(cfg.get("start") or "q1", graph)
    targets = _target_vertices(cfg.get("to"), graph)
    pipeline = _parse_pipeline_levels(cfg.get("pipeline"), graph)
    config = WalkConfig(graph, seed, step_cap=step_cap)
    law = lerw_set_law(config, x, targets, n, pipeline)
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
        "simulate", cfg, results, checks={},
        files={"law": ("simulate_law.txt", set_law_to_text(law))},
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
    cap = _count(cfg, "length_cap", least=1)
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
    law = enumerate_erasure_law(chain, start, absorbing, pipeline, length_cap=cap, tol=tol)
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
        "exact-law", cfg, results, checks={}, files={"law": ("exact_law.txt", law_to_text(law))}
    )


def _nested_pipelines(states: tuple) -> list:
    """All 2-level and 3-level nested stage sequences ending in the full set."""
    # The first stage may be empty; criterion 1 in the acceptance tests
    # filters those out of this one list.
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
    n_chains = _count(cfg, "chains", least=0)
    fuzzing = n_chains > 0
    if fuzzing and cfg.get("chain") is not None:
        raise UsageError("--chain and --chains exclude each other: check one chain file or fuzz chains")
    max_cases = _count(cfg, "max_cases", least=1)
    cap = _count(cfg, "length_cap", least=1)
    states_max = _count(cfg, "states_max")
    if fuzzing and not 3 <= states_max <= 5:
        raise UsageError(f"--states-max must lie in 3..5 (fuzz chain sizes), got {states_max}")
    seed = _resolve_seed(cfg, announce=True)
    rng = Random(seed)
    inject = bool(cfg.get("inject_ple_bug"))
    step_fn = _buggy_ple_step if inject else None

    if fuzzing:
        chains = [dense_chain(rng, rng.randint(3, states_max)) for _ in range(n_chains)]
    else:
        chains = [_load_chain(cfg)]

    # a broken erasure keeps revisited states, so its tower chain is
    # infinite; verification under the injected bug therefore runs at the
    # fixed cap instead of the exact elimination
    tol = None
    if not inject and cfg.get("tol") is not None:
        tol = Fraction(str(cfg["tol"]))
    checked = 0
    worst = None
    counterexample = None
    for ci, chain in enumerate(chains):
        cases = _equality_cases(chain, rng, max_cases)
        if inject and chain.states == bundled_chain().states:
            # pin one case known to surface the corruption regardless of
            # which random cases the cap keeps
            cases = [("a", frozenset("d"), [frozenset("ab"), frozenset("abcd")])] + cases[:-1]
        le_cache: dict = {}
        for x, a, pipeline in cases:
            if (x, a) not in le_cache:
                le_cache[x, a] = enumerate_erasure_law(chain, x, a, "LE", length_cap=cap, tol=tol)
            plain = le_cache[x, a]
            refined = enumerate_erasure_law(chain, x, a, pipeline, length_cap=cap, tol=tol, step_fn=step_fn)
            tv = tv_distance(plain, refined)
            bound = plain.tail_bound + refined.tail_bound
            checked += 1
            worst = tv - bound if worst is None else max(worst, tv - bound)
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
    return _finish("verify-theorem1", cfg, results, checks, files={}, counterexample=counterexample)


def _cmd_verify_green(cfg: dict) -> int:
    identities, perms = _count(cfg, "identities", least=0), _count(cfg, "permutations", least=0)
    if identities == perms == 0:
        raise UsageError("--identities and --permutations are both 0: nothing to check")
    seed = _resolve_seed(cfg, announce=True)
    rng = Random(seed)
    counterexample = None

    identity_ok = True
    for i in range(identities):
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
        for i in range(perms):
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
    results = {"identity_instances": identities, "permutation_instances": perms}
    print(f"verify-green: {identities} identity and {perms} permutation instances")
    return _finish("verify-green", cfg, results, checks, files={}, counterexample=counterexample)


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    """The lerw parser.  Each option's default is written once, on its
    flag, and recorded per subcommand as the parsed `defaults` dict;
    argparse itself gets default None, so _effective_config can tell a
    flag given from one left out."""
    parser = argparse.ArgumentParser(
        prog="lerw",
        description="Loop-erased walk laws: exact verification, sampling, and scaling runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def command(name: str, cmd, help: str, *common: str):
        """Add a subcommand with --config, --out and the shared flags named
        in common; return its option(*flags, default=..., **kw)."""
        p = sub.add_parser(name, help=help)
        defaults: dict = {}
        p.set_defaults(cmd=cmd, defaults=defaults)

        def option(*flags, default=None, **kw):
            defaults[p.add_argument(*flags, default=None, **kw).dest] = default

        p.add_argument("--config", help="JSON config file; flags override its keys")
        option("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        if "seed" in common:
            option("--seed", type=int, help="64-bit master seed")
        if "workers" in common:
            option("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored: sampling runs in one thread")
        if "mode" in common:
            option("--mode", choices=["rational", "double"], default="double", help="numeric mode")
        if "graph" in common:
            option("--gasket", action="store_true", default=False,
                   help="use the triangular family")
            option("--carpet", metavar="TEMPLATE",
                   help='square family: "standard" or a template file')
        return option

    option = command("verify-theorem1", _cmd_verify_theorem1,
                     "exact equality of erased and refined walk laws", "seed")
    option("--chain", help="chain text file (default: bundled example)")
    option("--chains", type=int, default=0, help="number of fuzzed chains instead")
    option("--states-max", type=int, default=4, help="fuzz chain size cap")
    option("--max-cases", type=int, default=500, help="cases checked per chain")
    option("--tol", type=float, default=1e-9,
           help="any positive value solves each law exactly (tail bound 0)")
    option("--length-cap", type=int, default=12)
    option("--inject-ple-bug", action="store_true", default=False,
           help="negative control: refine with a broken erasure step, expect FAIL")

    option = command("verify-green", _cmd_verify_green,
                     "visit-count identities, exact rational fuzz", "seed")
    option("--identities", type=int, default=200, help="identity instances")
    option("--permutations", type=int, default=30, help="permutation instances")

    option = command("graph", _cmd_graph, "export a level graph as text", "graph")
    option("-m", "--level", dest="m", help="level")

    option = command("resist", _cmd_resist, "effective resistance scaling across levels",
                     "mode", "graph")
    option("-m", "--levels", dest="m", help="level range, e.g. 1..4")
    option("--pair", default="corners", help='probe pairs: "corners" or index pairs like 0-3,1-2')
    option("--band", type=float,
           help="assert successive ratios stay within this relative band")

    option = command("simulate", _cmd_simulate, "sample erased walk images into a set law",
                     "seed", "workers", "graph")
    option("-m", "--level", dest="m", help="level")
    option("--from", dest="start", help="start vertex: q1..q4 or an index")
    option("--to", help="target vertices, comma separated")
    option("-n", "--samples", dest="n", type=int, default=1000, help="sample count")
    option("--pipeline", default="le", help='"le" or nested stages like v0,v2')
    option("--step-cap", type=int, default=STEP_CAP, help="walk length guard")

    option = command("converge", _cmd_converge, "kernel and coupled-image convergence tables",
                     "seed", "workers", "graph")
    option("--what", choices=["kernel", "coupled"], default="kernel")
    option("-m", "--level", dest="m", help="traced vertex-set level (kernel)")
    option("--m-primes", help="walk levels, e.g. 1..4 (kernel)")
    option("--corner", type=int, default=0, help="killing corner index (kernel)")
    option("--pairs", help="stage:level pairs, e.g. 1:2,2:3 (coupled)")
    option("--from", dest="start", help="start vertex (coupled)")
    option("--to", help="target vertices (coupled)")
    option("-n", "--samples", dest="n", type=int, default=1000,
           help="samples per pair (coupled)")
    option("--assert-decreasing", action="store_true", default=False,
           help="fail unless the tabulated trend strictly decreases")

    option = command("exact-law", _cmd_exact_law, "enumerate an erased-walk law exactly")
    option("--chain", help="chain text file (default: bundled example)")
    option("--start", help="start state")
    option("--absorbing", help="absorbing states, comma separated")
    option("--pipeline", default="le", help='"le" or stages like a,c;a,b,c,d')
    option("--length-cap", type=int, default=40)
    option(
        "--tol", type=float,
        help="exact law (tail 0) if the last stage is full, else step until the tail meets this",
    )

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
        cfg = _effective_config(args)
        return args.cmd(cfg)
    except (UsageError, ValueError, GuardError, StepCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
