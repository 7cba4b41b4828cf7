"""lerw benchmark: one command, four workloads, end to end or traced.

    python3 bench/run.py --workload exact-verify --seed 1 --seconds 25 --trace 0

It imports `src/lerw` from the checkout it sits in, and exits with code 2,
printing no result, when that is missing.  Every invocation starts fresh
child processes with one BLAS thread and a fixed hash seed, so memory and
set-up time belong to the workload:

- with --trace 0, six set-up-only children and one measuring child.  The
  measuring child repeats the workload's fixed job (same inputs each time)
  while another rep still fits in --seconds, at least once, and samples
  the host's speed during each rep (hostspeed.py);
- with --trace 1, one child alternating untraced and traced reps.  Spans
  from the traced reps give the per-layer metrics (tracer.py) and the
  tracing overhead.

The last line of standard output is the JSON result.  A summary with the
output digest, deterministic counts and machine facts goes to standard
error, and the full record (plus the spans, when traced) to `.bench_out/`
in the checkout.

End-to-end metrics:
  scaled_wall_s  median time of one fixed job, after set-up, each rep's
                 wall time scaled by the host speed sampled during it
  setup_s        median over the children of the time from process start,
                 through imports and input generation, to the first timed call
  peak_rss_mb    peak resident memory of the measuring child
  ok_frac        ops that passed their checks over ops attempted; its
                 complement is printed as fail_frac in the summary
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("exact-verify", "carpet-coupled", "corner-walks", "resist-double")
SETUP_CHILDREN = 6  # set-up-only children besides the measuring one
RUN_LIMIT_S = 170.0  # a child still running past this is killed and the run fails
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
E2E_UNITS = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def parse(argv):
    p = argparse.ArgumentParser(description="lerw benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write this workload's reference values (needs the default seed)")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def monotonic() -> float:
    # system-wide clock, so parent and child readings can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- child ------------------------------------------------------------------


def _same(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= 1e-9 * abs(want)
    return got == want


def _reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def _rep(w, state, lib, run_id: str, traced: bool) -> dict:
    """One timed job; its outputs are digested after the clock stops.

    Untraced reps sample the host's speed while they run; their wall time
    excludes the probes.
    """
    gc.collect()
    host = None if traced else hostspeed.Sampler()
    with host or contextlib.nullcontext():
        t0 = time.perf_counter()
        outcome = w.job(state, lib)
        wall = time.perf_counter() - t0
    rep = {"run": run_id, "traced": traced, "wall_s": wall, "attempted": outcome.attempted,
           "failed": outcome.failed, "values": outcome.values, "digest": outcome.digest()}
    if host:
        rep["wall_s"], rep["scaled_s"] = host.scale(wall)
        rep["probes"] = len(host.samples)
    return rep


def child(args) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    import lerw

    if Path(lerw.__file__).resolve().parent != SRC / "lerw":
        raise SystemExit(f"bench: lerw imported from {lerw.__file__}, not {SRC}")
    import tracer as tr
    import workloads

    w = workloads.WORKLOADS[args.workload]
    tracer = tr.Tracer() if args.trace else None
    raw = tr.Lib()
    lib = tr.Lib(tracer) if tracer else raw
    if tracer:
        with tr.patched(tracer):
            state = w.setup(args.seed, lib)
    else:
        state = w.setup(args.seed, raw)
    ready = monotonic()
    if args.child == "setup":
        return {"ready": ready}

    deadline = time.perf_counter() + args.seconds
    modes = (False, True) if tracer else (False,)
    reps = []
    while True:
        for traced in modes:
            run_id = f"rep{len(reps)}"
            if traced:
                tracer.run = run_id
                with tr.patched(tracer):
                    reps.append(_rep(w, state, lib, run_id, True))
            else:
                reps.append(_rep(w, state, raw, run_id, False))
        next_round = sum(median(r["wall_s"] for r in reps if r["traced"] == t) for t in modes)
        if time.perf_counter() + next_round > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # every rep ran the same inputs, so its outputs must be byte-identical
    digest = reps[0]["digest"]
    failed += sum(r["attempted"] for r in reps if r["digest"] != digest)
    values = reps[0]["values"]
    ref = _reference()
    if args.record:
        if args.seed != workloads.DEFAULT_SEED:
            raise SystemExit(f"bench: --record needs --seed {workloads.DEFAULT_SEED}")
        ref[args.workload] = values
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    want = ref.get(args.workload, {})
    keys = [k for k in want if k.startswith("fixed.") or args.seed == workloads.DEFAULT_SEED]
    mismatched = [k for k in keys if not _same(values.get(k), want[k])]
    attempted += len(keys)
    failed += len(mismatched)

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    result = {
        "ready": ready,
        "walls": untraced,
        "scaled": [r["scaled_s"] for r in reps if not r["traced"]],
        "probes": [r["probes"] for r in reps if not r["traced"]],
        "attempted": attempted,
        "failed": failed,
        "ops_per_job": reps[0]["attempted"],
        "digest": digest,
        "digests_agree": all(r["digest"] == digest for r in reps),
        "reference_checked": len(keys),
        "reference_mismatches": mismatched,
        "values": values,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(),
                     **{m: importlib.metadata.version(m) for m in ("numpy", "scipy")}},
    }
    if tracer:
        traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["wall_s"])
        mid = traced[len(traced) // 2]
        layer = tr.layer_metrics(tracer.spans, {"setup", mid["run"]})
        base = median(untraced)
        layer["trace.overhead_frac"] = (median(r["wall_s"] for r in traced) - base) / base
        counts = [{k: tr.layer_metrics(tracer.spans, {r["run"]})[k] for k in tr.COUNTS} for r in traced]
        result["counts"] = counts[0]
        result["counts_agree"] = all(c == counts[0] for c in counts)
        if not result["counts_agree"]:
            failed += 1
            result["failed"] = failed
        units = {name: unit for name, unit, _ in tr.PER_LAYER}
        result["layer"] = {k: {"value": layer[k], "unit": units[k]} for k in units}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        spans_file.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "run", "attrs"], "spans": tracer.spans}
        ))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    return result


# -- parent -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(kind: str, args, end: float) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--child", kind, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record:
        argv.append("--record")
    t0 = monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                          stdout=subprocess.PIPE, timeout=max(1.0, end - t0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child exited with code {proc.returncode}")
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    return res


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "lerw" / "__init__.py").is_file():
        print(f"bench: no lerw sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0

    facts = {
        "loadavg_start": os.getloadavg(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": int(CHILD_ENV["OMP_NUM_THREADS"]),
        "workers": 1,
    }
    end = monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace and not args.record:
            setups = [_spawn("setup", args, end)["setup_s"] for _ in range(SETUP_CHILDREN)]
        res = _spawn("measure", args, end)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    facts.update(res.pop("versions"))

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res.pop("layer")
    else:
        values = {
            "scaled_wall_s": median(res["scaled"]),
            "setup_s": median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    correct = failed == 0 and res["digests_agree"] and res.get("counts_agree", True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "setups_s": setups, **res,
              "correct": correct, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(
        f"{args.workload} seed={args.seed} reps={len(res['walls'])} "
        f"walls_s={[round(x, 3) for x in res['walls']]} scaled_s={[round(x, 3) for x in res['scaled']]} "
        f"probes={res['probes']} setups_s={[round(x, 3) for x in setups]}\n"
        f"  ops_per_job={res['ops_per_job']} attempted={attempted} failed={failed} "
        f"fail_frac={failed / attempted:.3g} correct={correct}\n"
        f"  output_digest={res['digest']} reference_checked={res['reference_checked']} "
        f"mismatches={res['reference_mismatches']}\n"
        f"  values={json.dumps(res['values'])[:400]}\n"
        + (f"  counts={json.dumps(res['counts'])}\n" if "counts" in res else "")
        + f"  machine={json.dumps(facts)}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
