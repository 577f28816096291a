"""Cold set-up of one workload, in a fresh interpreter.

Times `import opmeans` (plus `opmeans.cli` for the CLI workload) and the
first op of each kind in pass 0. Then times the host-speed probe of
speed.py, and prints {"setup_s": seconds, "probe_s": median probe seconds}
as JSON. Input generation is not timed; the input files of pass 0 must
already exist in --workdir. Exits with code 1 if one of the timed ops raises.

    PYTHONPATH=src python3 perfbench/cold.py --workload pair-solve --seed 1 --workdir DIR
"""
from __future__ import annotations

import argparse
import importlib
import json
import time

PROBES = 5   # speed probes right after the timed part; their median is reported


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    om = importlib.import_module("opmeans")
    if args.workload == "density-cli":
        importlib.import_module("opmeans.cli")
    total = time.perf_counter() - t0

    import loop
    import workloads
    ops = workloads.build(args.workload, om, args.seed, 0, args.workdir, write=False)
    for op in loop.first_of_each_kind(ops):
        t = time.perf_counter()
        op.run()   # an exception fails the cold start, so a broken path cannot read as fast
        total += time.perf_counter() - t
    import speed
    probes = sorted(speed.probe(args.workload) for _ in range(PROBES))
    print(json.dumps({"setup_s": total, "probe_s": probes[PROBES // 2]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
