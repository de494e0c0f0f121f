"""Run one gvgkit benchmark workload and print its result.

    python3 perfbench/run.py --workload train-sparse --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; gvgkit is imported from
``src/``, nothing needs installing. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``). The line before it is a JSON
record of the environment, the input sizes, every timing sample and every
failed operation.
"""

import os

# numpy links a threaded OpenBLAS that reads these once, when it loads:
# pin it to one thread before anything imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def _print_summary(result: dict) -> None:
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["record"]["failures"]:
        print(f"  FAILED {failure}")
    wall_clock = result["record"].get("wall_clock_metrics", {})
    for name, metric in result["metrics"].items():
        wall = f"   (wall clock {wall_clock[name]:.6g})" if name in wall_clock else ""
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{wall}")
    for d, fingerprint in enumerate(result["record"]["fingerprints"]):
        quality = fingerprint["test"]
        print(f"  dataset {d} test split: Top-1 {quality['top1']} %, "
              f"Neg-Acc {quality['neg_acc']} %")
    table = result["record"].get("layer_self_s_per_round")
    if table:
        phases = list(table)
        print("per-layer self time per traced round, s (share of the phase):")
        print(f"  {'layer':<14}" + "".join(f"{p.split('.')[-1]:>20}" for p in phases))
        totals = {p: sum(table[p].values()) for p in phases}
        for layer in next(iter(table.values())):
            cells = [f"{table[p][layer]:9.3f} ({100 * table[p][layer] / totals[p]:5.1f}%)"
                     if totals[p] else f"{0:9.3f} (  -  )" for p in phases]
            print(f"  {layer:<14}" + "".join(f"{c:>20}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gvgkit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a gvgkit source checkout (needs src/gvgkit "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), ROOT,
                          per_layer_names=[m["name"] for m in spec["per_layer"]])
    measured = result["metrics"]
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                         for m in declared}
    _print_summary(result)
    print(json.dumps(result.pop("record"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
