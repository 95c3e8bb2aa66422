"""The factoridiv benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload scan|certify|verify|all --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --record-manifest

One closed-loop client runs the workload's ops one after another, each
in a fresh interpreter (bench/child.py), in passes over the op list until
the time is used up.  Every op's exit code and output sha256 are checked
against bench/manifest.json.  With --trace 1 the passes alternate between
untraced and traced (bench/layers.py), and the per-layer table is reported
with the tracing overhead.  The last line of stdout is one JSON object
with correct, attempted, failed and metrics; README.md lists the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
MANIFEST = os.path.join(BENCH, "manifest.json")
# the metrics of the last stdout line, their units and the run length
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

sys.path.insert(0, BENCH)
from ops import VARIANTS, WORKLOADS, fixture_dir, ops_for, variant_of  # noqa: E402
from speed import REF_NOMINAL_S  # noqa: E402

OP_TIMEOUT_S = 120
MIB = 1024.0

# what each workload reports besides the end-to-end metrics of BENCHMARK.json
KIND_METRICS = {
    "scan": ("scan_values_per_s", "scan_jobs2_values_per_s"),
    "certify": ("construct_s", "construct_exhausted_s", "table_s"),
    "verify": ("verify_s", "verify_reject_s"),
}
RATE_KINDS = {"scan_values_per_s": "scan_jobs1",
              "scan_jobs2_values_per_s": "scan_jobs2"}


def _layer(names: str, fields: str) -> list[str]:
    return [f"{n}.{f}" for n in names.split() for f in fields.split()]


# the per-layer table always holds these, 0 where a workload never
# reaches the layer; other wrapped functions appear when they run
NAMED_LAYERS = (
    _layer("scan.scan_range", "self_s")
    + ["scan.examined", "scan.hits", "numtheory.sieve_primes.total_s",
       "scan.scan_parallel.total_s", "scan.chunk_imbalance",
       "scan.parallel_idle_s", "construct.certs_emitted",
       "construct.max_n_digits"]
    + _layer(" ".join(f"construct.construct_{f}" for f in (
        "quadratic cubic quartic_cubic_linear quartic_biquadratic "
        "binomial_power cyclotomic chebyshev").split()), "self_s")
    + _layer("pell.fundamental_solution", "calls total_s max_digits budget_errors")
    + _layer("pell.indices_with_s_divisible pell.pair_at", "total_s")
    + _layer("intpoly.IntPoly.compose intpoly.IntPoly.exact_divide "
             "intpoly.IntPoly.multiply", "calls total_s")
    + ["intpoly.IntPoly.exact_divide.exact_ratio"]
    + _layer("specialpoly.cyclotomic specialpoly.psi specialpoly.chebyshev_t "
             "specialpoly.chebyshev_factor_values", "calls total_s self_s")
    + ["specialpoly.cyclotomic.max_degree"]
    + _layer("numtheory.is_probable_prime numtheory.next_prime "
             "numtheory.euler_phi numtheory.nu_p_factorial", "calls total_s")
    + _layer("numtheory.factorize", "calls total_s max_bits budget_errors")
    + _layer("numtheory.decimal_log_ratio", "calls total_s max_digits")
    + _layer("cli.cert_from_dict cli.cert_to_dict", "total_s")
    + ["cli.main.self_s"]
    + _layer("verify.verify verify.verify_distinct verify.verify_legendre",
             "calls total_s")
)


# -- small helpers ---------------------------------------------------------


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # the budget variable would change what verify does
    env.pop("FACTORIDIV_BUDGET", None)
    return env


def tail(samples: list[float], higher_is_better: bool):
    """(percentile, value): the worst value that still has at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples, reverse=higher_is_better)
    rank = n - 10
    return round(100.0 * rank / n, 1), ordered[rank - 1]


def git_head() -> str:
    # read .git by hand: the checkout may not be a repository, and git
    # itself would look for one in the directories above it
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def metadata() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_head": git_head(),
        "src_lines": src_lines(),
    }


# -- running ops -------------------------------------------------------------


def run_child(argv, env, stdout, stderr) -> int:
    """Run a child to completion; kill it after OP_TIMEOUT_S.

    A timer thread enforces the timeout so that the wait itself blocks:
    Popen.wait(timeout=...) polls with sleeps of up to 50 ms, which would
    quantize the set-up times measured around it."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def run_op(op, op_id: str, env, trace_dir: str | None) -> dict:
    os.makedirs(os.path.join(WORK, "ops"), exist_ok=True)
    base = os.path.join(WORK, "ops", op.name)
    result_path = base + ".result.json"
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(BENCH, "child.py"), result_path,
            trace_dir or "-", op_id, *op.argv]
    with open(base + ".stdout", "wb") as out, open(base + ".stderr", "wb") as err:
        spawned = time.monotonic()
        rc = run_child(argv, env, out, err)
    res = {"rc": None, "crashed": True, "elapsed_s": None, "peak_rss_kib": 0}
    if rc == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            res = json.load(fh)
        # interpreter start until the import of factoridiv.cli completed
        res["setup_s"] = res["imported_at"] - spawned
    res["sha256"] = sha256_file(base + ".stdout")
    return res


def check_op(op, key: str, res: dict, manifest: dict, expected_exit) -> str | None:
    """None when the op matched the manifest, else why not."""
    if res["crashed"] or res["elapsed_s"] is None:
        return "crashed"
    want = manifest["ops"].get(key)
    if want is None:
        return "not in manifest"
    if list(op.argv) != want["argv"]:
        return "argv differs from manifest"
    if res["rc"] != want["exit"] or res["rc"] != expected_exit:
        return f"exit {res['rc']}, expected {want['exit']}"
    if res["sha256"] != want["sha256"]:
        return "output sha256 differs from manifest"
    return None


def prepare_fixtures(v: int, env) -> dict:
    """Write the verify fixtures of variant v; returns name -> exit code."""
    if run_child([sys.executable, os.path.join(BENCH, "fixtures.py"), str(v)],
                 env, None, None):
        raise RuntimeError(f"writing the verify fixtures of variant {v} failed")
    with open(os.path.join(ROOT, fixture_dir(v), "expected.json")) as fh:
        return json.load(fh)


def expected_exits(workload: str, v: int, env) -> tuple[dict, dict]:
    """(op name -> declared exit code, fixture name -> sha256)."""
    ops = ops_for(workload, v)
    if workload != "verify":
        return {op.name: op.exit for op in ops}, {}
    exits = prepare_fixtures(v, env)
    hashes = {name: sha256_file(os.path.join(ROOT, fixture_dir(v), name + ".json"))
              for name in exits}
    return exits, hashes


# -- one workload --------------------------------------------------------------


def scaled(res: dict, key: str = "elapsed_s") -> float:
    """A time of the op at the reference speed: scaled by the reference
    kernel timed in the same interpreter before and after the op."""
    return res[key] * REF_NOMINAL_S / statistics.mean(res["ref_s"])


def pass_sums(ops, results: list[dict]) -> dict:
    """One pass: scaled op time summed per kind and in all, peak memory."""
    sums = {"wall_s": 0.0,
            "peak_rss_mb": max(r["peak_rss_kib"] for r in results) / MIB}
    for op, r in zip(ops, results):
        t = scaled(r) if r["elapsed_s"] is not None else 0.0
        sums["wall_s"] += t
        sums[op.kind] = sums.get(op.kind, 0.0) + t
    return sums


def time_metrics(workload: str, ops, op_medians: dict, passes: list[dict]):
    """name -> (value, unit, per-pass samples, higher is better)."""
    out = {"wall_s": (sum(op_medians.values()), "s",
                      [s["wall_s"] for s in passes], False)}
    for name in KIND_METRICS[workload]:
        if name in RATE_KINDS:
            kind = RATE_KINDS[name]
            values = sum(op.values for op in ops if op.kind == kind)
            secs = sum(op_medians[op.name] for op in ops if op.kind == kind)
            out[name] = (values / secs if secs else 0.0, "1/s",
                         [values / s[kind] for s in passes if s[kind]], True)
        else:
            kind = name[: -len("_s")]
            out[name] = (sum(op_medians[op.name] for op in ops if op.kind == kind),
                         "s", [s[kind] for s in passes], False)
    return out


def median(xs) -> float:
    # no sample means every op failed; the run is already incorrect
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def medians(samples: dict) -> dict:
    return {k: median(v) for k, v in samples.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 manifest: dict, env) -> dict:
    v = variant_of(seed)
    ops = ops_for(workload, v)
    exits, fixture_hashes = expected_exits(workload, v, env)
    stale = {name for name, h in fixture_hashes.items()
             if manifest["fixtures"].get(f"{name}@v{v}") != h}
    load_before = os.getloadavg()
    # fill the bytecode cache, so that no op pays for compiling
    run_child([sys.executable, "-c", "import factoridiv.cli"], env,
              subprocess.DEVNULL, None)

    setup: list[float] = []
    raw_setup: list[float] = []
    ref: list[float] = []
    samples = {op.name: [] for op in ops}
    raw_samples = {op.name: [] for op in ops}
    untraced, traced_passes = [], []
    failures: list[str] = []
    attempted = 0
    trace_root = os.path.join(WORK, "trace")
    last_run: dict[str, float] = {}
    results, paths = [], []
    start = time.perf_counter()
    i = 0
    # ops run in list order, round after round (a pass), while the next
    # op still fits in the time by its previous run; with tracing the
    # passes alternate untraced / traced, and each kind runs once in full
    while True:
        p, k = divmod(i, len(ops))
        op = ops[k]
        if (i >= len(ops) * (2 if trace else 1)
                and time.perf_counter() - start + last_run[op.name] > seconds):
            break
        traced = trace and p % 2 == 1
        trace_dir = os.path.join(trace_root, f"p{p}", op.name) if traced else None
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
            paths.append(os.path.join(trace_dir, "trace.json"))
        t_op = time.perf_counter()
        res = run_op(op, f"p{p}:{op.name}", env, trace_dir)
        last_run[op.name] = time.perf_counter() - t_op
        why = check_op(op, f"{workload}/{op.name}@v{v}", res, manifest,
                       exits[op.name])
        if why is None and op.name in stale:
            why = "fixture sha256 differs from manifest"
        attempted += 1
        if why:
            failures.append(f"pass {p} {op.name}: {why}")
        results.append(res)
        if res["elapsed_s"] is not None:
            ref.extend(res["ref_s"])
            setup.append(scaled(res, "setup_s"))
            raw_setup.append(res["setup_s"])
            if not traced:
                samples[op.name].append(scaled(res))
                raw_samples[op.name].append(res["elapsed_s"])
        i += 1
        if k < len(ops) - 1:
            continue
        # a pass is complete
        if workload == "scan":
            attempted += 1
            by_name = {o.name: r for o, r in zip(ops, results)}
            if by_name["quad-j1"]["sha256"] != by_name["quad-j2"]["sha256"]:
                failures.append(f"pass {p}: --jobs 1 and --jobs 2 outputs differ")
        if traced:
            traced_passes.append((pass_sums(ops, results), paths))
        else:
            untraced.append(pass_sums(ops, results))
        results, paths = [], []
    load_after = os.getloadavg()

    metrics = {"setup_s": {"value": median(setup), "unit": "s",
                           "raw": median(raw_setup),
                           "samples": len(setup), "tail": tail(setup, False)}}
    raw = time_metrics(workload, ops, medians(raw_samples), [])
    for name, (value, unit, per_pass, higher) in time_metrics(
            workload, ops, medians(samples), untraced).items():
        metrics[name] = {"value": value, "unit": unit, "raw": raw[name][0],
                         "samples": len(per_pass), "tail": tail(per_pass, higher)}
    rss = [s["peak_rss_mb"] for s in untraced]
    metrics["peak_rss_mb"] = {"value": median(rss), "unit": "MB",
                              "samples": len(rss), "tail": tail(rss, False)}
    metrics["failed_ops"] = {"value": len(failures), "unit": "count"}
    speed = median(ref) / REF_NOMINAL_S

    out = {
        "workload": workload, "seed": seed, "variant": v, "seconds": seconds,
        "trace": int(trace),
        "meta": dict(metadata(), load_before=load_before, load_after=load_after,
                     speed=speed),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "passes": len(untraced), "traced_passes": len(traced_passes),
        "op_samples_s": samples, "op_raw_samples_s": raw_samples,
        "metrics": metrics, "layers": {},
    }
    if trace:
        out["layers"] = layer_table(traced_passes, untraced, workload, seed)
    return out


# -- per-layer table -------------------------------------------------------------


def layer_values(paths: list[str]) -> dict:
    """Flatten the traces of one pass into metric -> value."""
    from layers import merge_count

    out: dict[str, float] = {}
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            rec = json.load(fh)
        for name, (calls, total, self_s) in rec["layers"].items():
            merge_count(out, f"{name}.calls", calls)
            merge_count(out, f"{name}.total_s", total)
            merge_count(out, f"{name}.self_s", self_s)
        for k, v in rec["counts"].items():
            if k == "scan.chunk_imbalance":
                out[k] = max(out.get(k, 0.0), v)
            else:
                merge_count(out, k, v)
    calls = out.get("intpoly.IntPoly.exact_divide.calls", 0)
    out["intpoly.IntPoly.exact_divide.exact_ratio"] = (
        out.pop("intpoly.IntPoly.exact_divide.exact", 0) / calls if calls else 0.0)
    return out


def layer_table(traced_passes, untraced, workload: str, seed: int) -> dict:
    per_pass = [layer_values(paths) for _, paths in traced_passes]
    names = sorted(set(NAMED_LAYERS).union(*per_pass))
    table = {n: statistics.median(p.get(n, 0) for p in per_pass) for n in names}
    table["trace.overhead_s"] = (
        statistics.median(s["wall_s"] for s, _ in traced_passes)
        - statistics.median(s["wall_s"] for s in untraced))
    # keep every span of the traced passes in one file
    merged = []
    for _, paths in traced_passes:
        for path in paths:
            if os.path.exists(path):
                with open(path) as fh:
                    merged.append(json.load(fh))
    with open(os.path.join(WORK, f"trace-{workload}-s{seed}.json"), "w") as fh:
        json.dump(merged, fh)
    shutil.rmtree(os.path.join(WORK, "trace"), ignore_errors=True)
    return table


# -- reporting -------------------------------------------------------------------


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(out: dict) -> None:
    w = out["workload"]
    m = out["meta"]
    print(f"# workload {w}  seed {out['seed']} (variant {out['variant']})  "
          f"passes {out['passes']} untraced + {out['traced_passes']} traced")
    print(f"# python {m['python']}  nproc {m['nproc']}  head {m['git_head']}  "
          f"src_lines {m['src_lines']}  load {m['load_before']} -> "
          f"{m['load_after']}  speed {m['speed']:.4f}")
    for name, e in out["metrics"].items():
        line = f"{w}.{name} = {fmt(e['value'])} {e['unit']}"
        if "raw" in e:
            line += f" (raw {fmt(e['raw'])})"
        if "samples" in e:
            t = e["tail"]
            line += (f"  median; p{t[0]} = {fmt(t[1])}, n = {e['samples']}" if t
                     else f"  median; n = {e['samples']}, too few for a tail")
        if name == "failed_ops":
            line += f" of {out['attempted']} attempted"
        print(line)
    for why in out["failures"]:
        print(f"# FAILED {why}")
    for name, value in out["layers"].items():
        print(f"{w}.layer.{name} = {fmt(value)}")


def final_metrics(out: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": out["layers"].get(m["name"], 0),
                            "unit": m["unit"]} for m in SPEC["per_layer"]}
    return {m["name"]: {"value": out["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in SPEC["end_to_end"]}


def save(out: dict) -> None:
    path = os.path.join(WORK, f"results-{out['workload']}-s{out['seed']}"
                        f"-t{out['trace']}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)


# -- manifest ----------------------------------------------------------------------


def record_manifest(env) -> int:
    """Run every op of every variant once and store exit codes and hashes."""
    manifest = {"head": git_head(), "python": sys.version.split()[0],
                "ops": {}, "fixtures": {}}
    for workload in WORKLOADS:
        for v in range(VARIANTS):
            exits, hashes = expected_exits(workload, v, env)
            for name, h in hashes.items():
                manifest["fixtures"][f"{name}@v{v}"] = h
            for op in ops_for(workload, v):
                res = run_op(op, op.name, env, None)
                if res["crashed"] or res["rc"] != exits[op.name]:
                    print(f"{workload}/{op.name}@v{v}: exit {res['rc']}, "
                          f"declared {exits[op.name]}", file=sys.stderr)
                    return 1
                manifest["ops"][f"{workload}/{op.name}@v{v}"] = {
                    "argv": list(op.argv), "exit": res["rc"],
                    "sha256": res["sha256"]}
                print(f"{workload}/{op.name}@v{v}: exit {res['rc']} "
                      f"{res['elapsed_s']:.3f} s", file=sys.stderr)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-manifest", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "factoridiv", "cli.py")):
        print(f"bench: no factoridiv sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    if args.record_manifest:
        return record_manifest(env)
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = []
    for w in workloads:
        out = run_workload(w, args.seed, args.seconds, bool(args.trace),
                           manifest, env)
        save(out)
        report(out)
        outs.append(out)
    if len(outs) == 1:
        metrics = final_metrics(outs[0], bool(args.trace))
    else:
        metrics = {f"{o['workload']}.{n}": e for o in outs
                   for n, e in final_metrics(o, bool(args.trace)).items()}
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
