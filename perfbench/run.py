"""opmeans benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload pair-solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The workload's ops run one at a time from a single caller
(no threads), every output is checked against an independent oracle, and
the last line of stdout is one JSON object (`--workload all` runs every
workload in its own interpreter and merges their results, prefixing each
metric with the workload's name):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times a fixed number of fresh passes of ops, about --seconds on
the reference host, and reports the end-to-end metrics (END_TO_END), with
times scaled to a reference host speed (speed.py).
--trace 1 runs the seed's first 1000 or so ops pass by pass, untraced and
then with every public package function wrapped (tracer.py), and reports
the per-layer metrics (per_layer_names).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = 7   # fresh interpreters per run for setup_s; the median is reported
MIN_OPS = 1000    # ops timed per run at least: 10 samples lie beyond op_p99_ms
REPEAT_OPS = 200  # ops run twice in an untraced run, to check bit-for-bit determinism
# scaled seconds one pass of each workload takes on the reference host (the
# medians of seeds 1 to 10); a run times about --seconds / PASS_S passes
PASS_S = {"pair-solve": 0.62, "sampled-checks": 0.28, "density-cli": 0.98}
WALL_CAP = 3      # stop timing once the passes took this many times --seconds

END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
              ("ok_frac", "ratio"), ("worst_digits", "digits"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))
LAYER_COUNTERS = {
    "spd": ("calls", "self_s", "decompositions", "decomp_mean_us", "errors"),
    "hdensity": ("calls", "points", "self_s", "us_per_point", "errors"),
    "means": ("calls", "evals", "self_s", "errors"),
    "orders": ("calls", "phi_profiles", "self_s", "errors"),
    "monocheck": ("calls", "loewner_matrices", "trials_run", "self_s", "errors"),
    "solvers": ("calls", "inversions", "self_s", "errors"),
    "cli": ("calls", "self_s", "errors"),
    "funcexpr": ("calls", "self_s"),
    "jsonio": ("calls", "self_s"),
}
KIND_METRICS = (("p50_ms", "ms"), ("count", "count"), ("fails", "count"),
                ("worst_digits", "digits"), ("decomp_per_op", "count"))
_UNITS = {"self_s": "s", "decomp_mean_us": "us", "us_per_point": "us"}


def per_layer_names(kinds) -> list:
    names = [(f"{layer}.{c}", _UNITS.get(c, "count"))
             for layer, counters in LAYER_COUNTERS.items() for c in counters]
    names += [(f"op.{k}.{m}", u) for k in kinds for m, u in KIND_METRICS]
    return names + [("bench.self_s", "s"), ("trace.overhead_frac", "ratio")]


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_package():
    """Import opmeans from this checkout's src/, never from elsewhere."""
    if not (SRC / "opmeans" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC / 'opmeans'}")
    sys.path.insert(0, str(SRC))
    import opmeans
    if Path(opmeans.__file__).resolve().parent != (SRC / "opmeans").resolve():
        raise ImportError(f"opmeans imported from {opmeans.__file__}, not {SRC}")
    return opmeans


def run_record(workload: str, seed: int, trace: int) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "commit": git_commit()}


def blas_threads():
    """OpenBLAS thread count, read through the library numpy has loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def setup_seconds(workload: str, seed: int, workdir: str, starts: int) -> tuple:
    """Cold starts in fresh interpreters: (scaled seconds, raw seconds) of each.

    Each start is scaled by the host speed that the probe of speed.py
    measured in the same interpreter, right after the timed part.
    """
    import speed
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(starts):
        proc = subprocess.run([sys.executable, str(HERE / "cold.py"), "--workload", workload,
                               "--seed", str(seed), "--workdir", workdir],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(got["setup_s"])
        scaled.append(got["setup_s"] * speed.reference_s(workload) / got["probe_s"])
    return scaled, raw


def check_pass(ops, outputs) -> list:
    import checks
    return [checks.check(op, out) for op, out in zip(ops, outputs)]


def cli_digest(ops, outputs, h=None) -> str:
    """sha256 over the stdout of the CLI ops in order; h carries it on across passes."""
    import hashlib
    h = h or hashlib.sha256()
    for op, out in zip(ops, outputs):
        if op.cli and not (isinstance(out, tuple) and out[0] == "exception"):
            h.update(out[1].encode())
    return h.hexdigest()


def summary(verdicts) -> dict:
    import checks
    fails = sum(not v.ok for v in verdicts)
    digits = [v.digits for v in verdicts if v.digits is not None]
    unexplained = [v.reason for v in verdicts if not v.ok and v.reason != checks.UNSOUND]
    return {"fails": fails, "fail_frac": fails / len(verdicts),
            "worst_digits": min(digits) if digits else 16.0, "unexplained": unexplained}


def warm_up(name, om, seed, workdir) -> None:
    """One untimed op of each kind, on inputs no timed op uses, pays for lazy
    state and first-call caches."""
    import loop
    import workloads
    warm = workloads.build(name, om, seed, workloads.WARMUP_PASS, workdir)
    loop.run_ops(loop.first_of_each_kind(warm))


def reference_passes(name) -> int:
    """Passes that make up the first MIN_OPS ops: every run times them, and the
    traced run traces them."""
    import workloads
    return -(-MIN_OPS // workloads.PATTERN_LEN[name])


def timed_passes(name, seconds) -> int:
    """Passes an untraced run times: about `seconds` on the reference host, and
    at least the reference passes.

    The count depends on the workload and `seconds` alone, never on the
    speed of the run, so two runs with one seed time the same ops and meet
    the same failures.
    """
    return max(reference_passes(name), round(seconds / PASS_S[name]))


def end_to_end(name, om, seed, seconds, workdir, passes=None, cold_starts=COLD_STARTS):
    """Time `passes` fresh passes (timed_passes by default); check every op.

    Times are scaled to the reference host speed by probes run between the
    passes (speed.py). Each pass is checked, and its inputs and outputs
    dropped, before the next is built, so memory does not grow with the
    number of passes. Only a package so slow that the passes take WALL_CAP
    times `seconds` stops early, after the reference passes, so that the
    run still ends in time.
    """
    import hashlib
    import numpy as np
    import loop
    import speed
    import workloads
    passes = passes or timed_passes(name, seconds)
    min_passes = min(passes, reference_passes(name))
    ops = workloads.build(name, om, seed, 0, workdir)
    setups, setups_raw = setup_seconds(name, seed, workdir, cold_starts)
    warm_up(name, om, seed, workdir)
    probes, latency, elapsed, verdicts, kinds = [speed.probe(name)], [], [], [], []
    kept, kept_digests, cli = [], [], hashlib.sha256()
    while len(elapsed) < passes:
        if len(elapsed) >= min_passes and sum(elapsed) > WALL_CAP * seconds:
            break
        if elapsed:
            ops = workloads.build(name, om, seed, len(elapsed), workdir)
        part = loop.run_ops(ops)
        probes.append(speed.probe(name))
        latency.append(np.asarray(part.latency))
        elapsed.append(part.elapsed)
        verdicts += check_pass(ops, part.outputs)
        kinds += [op.kind for op in ops]
        kept_digests += part.digests[:REPEAT_OPS - len(kept_digests)]
        if len(elapsed) <= min_passes:
            cli_digest(ops, part.outputs, cli)
        if len(kept) < REPEAT_OPS:
            kept += ops[:REPEAT_OPS - len(kept)]
    # a second run of the first REPEAT_OPS ops must reproduce them bit for bit
    repeat = loop.run_ops(kept)
    mismatched = sum(a != b for a, b in zip(repeat.digests, kept_digests))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = speed.scale_factors(probes, name)
    lat_ms = np.concatenate([lat * f for lat, f in zip(latency, factors)]) * 1e3
    scaled_s = sum(e * f for e, f in zip(elapsed, factors))
    ref = min_passes * workloads.PATTERN_LEN[name]
    s, s_ref = summary(verdicts), summary(verdicts[:ref])
    metrics = {"ops_per_s": len(lat_ms) / scaled_s,
               "op_p50_ms": float(np.median(lat_ms)),
               "op_p99_ms": float(np.percentile(lat_ms, 99)),
               "ok_frac": 1.0 - s["fail_frac"],
               "worst_digits": s["worst_digits"],
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb}
    raw_ms = np.concatenate(latency) * 1e3
    info = {"ops_timed": len(lat_ms), "passes": len(elapsed), "passes_planned": passes,
            "timed_s": sum(elapsed),
            "p99_samples_beyond": int(np.sum(lat_ms > metrics["op_p99_ms"])),
            "unscaled": {"ops_per_s": len(raw_ms) / sum(elapsed),
                         "op_p50_ms": float(np.median(raw_ms)),
                         "op_p99_ms": float(np.percentile(raw_ms, 99)),
                         "setup_s": statistics.median(setups_raw)},
            "host_speed": {"probe_median_s": float(np.median(probes)),
                           "probe_min_s": min(probes), "probe_max_s": max(probes)},
            "fail_frac": s["fail_frac"], "setup_samples_s": setups,
            "reference": {"ops": ref, "fail_frac": s_ref["fail_frac"],
                          "worst_digits": s_ref["worst_digits"], "cli_digest": cli.hexdigest()},
            "mismatched_repeats": mismatched, "failures": failure_table(kinds, verdicts)}
    correct = not s["unexplained"] and not mismatched
    return metrics, END_TO_END, info, len(lat_ms), s["fails"] + mismatched, correct, kept


def per_layer(name, om, seed, workdir, passes=None) -> tuple:
    """The reference passes untraced, then traced; per-layer and per-kind numbers.

    Each pass runs untraced and then at once traced, so the two executions
    of a pass meet the same spell of host speed.
    """
    import numpy as np
    import loop
    import tracer as tracing
    import workloads
    warm_up(name, om, seed, workdir)
    ops, plain_parts, traced_parts = [], [], []
    tr = tracing.Tracer()
    for p in range(passes or reference_passes(name)):
        chunk = workloads.build(name, om, seed, p, workdir)
        plain_parts.append(loop.run_ops(chunk))   # first executions: per-kind latency
        tr.install(om)
        try:
            traced_parts.append(loop.run_ops(chunk, tracer=tr, first_index=len(ops)))
        finally:
            tr.uninstall()
        ops += chunk
    plain, traced = loop.concat(plain_parts), loop.concat(traced_parts)
    verdicts = check_pass(ops, traced.outputs)
    s = summary(verdicts)
    kinds = [op.kind for op in ops]
    spans = tr.arrays()
    tot = tracing.summarize(spans, tr.names, kinds)
    metrics = {}
    for layer, counters in LAYER_COUNTERS.items():
        got = tot["layers"][layer]
        for c in counters:
            if c == "decomp_mean_us":
                v = 1e6 * got["self_s"] / got["decompositions"] if got["decompositions"] else 0.0
            elif c == "us_per_point":
                v = 1e6 * got["self_s"] / got["points"] if got["points"] else 0.0
            else:
                v = got[c]
            metrics[f"{layer}.{c}"] = v
    lat = np.asarray(plain.latency)
    for kind in workloads.KINDS:
        idx = [k for k, name in enumerate(kinds) if name == kind]
        vs = [verdicts[k] for k in idx]
        digits = [v.digits for v in vs if v.digits is not None]
        metrics[f"op.{kind}.p50_ms"] = float(np.median(lat[idx]) * 1e3) if idx else 0.0
        metrics[f"op.{kind}.count"] = len(idx)
        metrics[f"op.{kind}.fails"] = sum(not v.ok for v in vs)
        metrics[f"op.{kind}.worst_digits"] = min(digits) if digits else 0.0
        metrics[f"op.{kind}.decomp_per_op"] = tot["decompositions_per_op"].get(kind, 0.0)
    layer_self = sum(tot["layers"][layer]["self_s"] for layer in LAYER_COUNTERS)
    metrics["bench.self_s"] = traced.elapsed - layer_self
    metrics["trace.overhead_frac"] = 1.0 - plain.elapsed / traced.elapsed
    differs = sum(a != b for a, b in zip(plain.digests, traced.digests))
    info = {"ops_traced": len(ops), "untraced_s": plain.elapsed, "traced_s": traced.elapsed,
            "spans": len(spans["id"]), "fail_frac": s["fail_frac"],
            "reference": {"ops": len(ops), "fail_frac": s["fail_frac"],
                          "worst_digits": s["worst_digits"],
                          "cli_digest": cli_digest(ops, traced.outputs)},
            "traced_untraced_mismatch": differs, "failures": failure_table(kinds, verdicts)}
    correct = not s["unexplained"] and not differs
    names = per_layer_names(workloads.KINDS)
    return metrics, names, info, len(ops), s["fails"] + differs, correct, ops


def failure_table(kinds, verdicts) -> dict:
    table: dict = {}
    for kind, v in zip(kinds, verdicts):
        if not v.ok:
            key = f"{kind}:{v.reason}"
            table[key] = table.get(key, 0) + 1
    return table


def oracle_self_check(ops) -> float:
    """Closed-form density representations against quadrature, on the densities used."""
    import checks
    seen, densities = set(), []
    for op in ops:
        for key in ("density", "f", "g"):
            d = op.spec.get(key)
            if isinstance(d, dict) and id(d) not in seen and len(densities) < 24:
                seen.add(id(d))
                densities.append(d)
    return checks.cross_check_densities(densities) if densities else 0.0


def merge(results: dict) -> dict:
    """One result out of per-workload results, each metric prefixed with its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def run_all(args, names) -> int:
    """Run each workload in its own interpreter; print their reports and one merged result."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print(f"== {name}", *report, sep="\n")
        results[name] = json.loads(last)
    print(json.dumps(merge(results)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected 'all' or one of "
                    f"{workloads.WORKLOADS}")
    try:
        om = import_package()
        if args.workload == "density-cli":
            import opmeans.cli  # noqa: F401  (ops reach it as om.cli)
    except ImportError as exc:
        return fail(f"cannot import the package: {exc}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            measured = per_layer(args.workload, om, args.seed, workdir)
        else:
            measured = end_to_end(args.workload, om, args.seed, args.seconds, workdir)
        metrics, names, info, attempted, failed, correct, ops = measured
        oracle_gap = oracle_self_check(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if oracle_gap > 1e-10:
        correct = False
    info["oracle_quad_gap"] = oracle_gap

    print("run " + json.dumps(run_record(args.workload, args.seed, args.trace)))
    print("info " + json.dumps(info))
    for name, unit in [*names, ("fail_frac", "ratio")]:
        value = metrics[name] if name in metrics else info["fail_frac"]
        print(f"  {name:<34} {value:>16.6g} {unit}")
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
