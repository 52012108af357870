"""The repo benchmark: six seeded workloads, one command.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace 0|1] [--traced] [--smoke]
                                    [--repeat N] [--out FILE]

Builds each workload's inputs from the seed, runs it closed-loop, checks
every answer, and prints every metric by name with its unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  End-to-end metrics come from
an untraced run (``--trace 0``, the default); ``--trace 1`` runs the
traced variant and reports the per-layer metrics instead; ``--traced``
does both, one after the other.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
if SUITE_DIR not in sys.path:
    sys.path.insert(0, SUITE_DIR)

import harness  # noqa: E402

WORKLOADS = (
    "wire_oltp_serial",
    "wire_oltp_pipelined",
    "embedded_oltp",
    "embedded_write",
    "olap_tpch_row",
    "olap_tpch_col",
)


def run_workload(name: str, cfg: harness.Config) -> harness.Outcome:
    import olap
    import oltp

    if name == "wire_oltp_serial":
        return oltp.run_wire(cfg, name, pipelined=False)
    if name == "wire_oltp_pipelined":
        return oltp.run_wire(cfg, name, pipelined=True)
    if name == "embedded_oltp":
        return oltp.run_embedded(cfg, name, write_only=False)
    if name == "embedded_write":
        return oltp.run_embedded(cfg, name, write_only=True)
    if name == "olap_tpch_row":
        return olap.run_olap(cfg, name, engine="volcano", layout="row", workers=0)
    if name == "olap_tpch_col":
        return olap.run_olap(cfg, name, engine="vectorized", layout="column",
                             workers=cfg.conns)
    raise SystemExit(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics instead of end-to-end")
    parser.add_argument("--traced", action="store_true",
                        help="after each untraced run, also make the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s windows, sf 0.05, 2 000 kv rows: whole suite < 30 s")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    return parser


def config(args, trace: bool, workdir: str) -> harness.Config:
    if args.smoke:
        return harness.Config(
            seed=args.seed, seconds=args.seconds or 1.0, trace=trace, workdir=workdir,
            warmup=0.25, setup_repeats=1, scale_factor=0.05, buffer_pages=16, kv_rows=2_000,
            oltp_pass=100)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            seconds = json.load(handle)["run_seconds"]
    return harness.Config(seed=args.seed, seconds=seconds, trace=trace, workdir=workdir)


def report(outcome: harness.Outcome, metrics, seed: int) -> dict:
    """Print one run for a reader and return it as a record for --out."""
    name = outcome.workload
    for metric, (value, unit) in metrics.items():
        print(f"{name}.{metric} = {value:.6g} {unit}")
    ratio = outcome.failed / max(1, outcome.attempted)
    print(f"{name}.fail_ratio = {ratio:.6g} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for key, value in outcome.detail.items():
        print(f"  {name} {key}: {value}")
    for message in outcome.failures:
        print(f"  {name} FAILED: {message}")
    return {
        "workload": name,
        "seed": seed,
        "traced": bool(outcome.per_layer),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": outcome.detail,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"run.py: no program to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    cleared = harness.make_hermetic()

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [False, True] if args.traced else [bool(args.trace)]
    workdir = os.path.join(harness.OUT, f"tmp-{os.getpid()}")
    records = []
    meta = {}
    try:
        for repeat in range(args.repeat):
            for name in names:
                for trace in modes:
                    run_dir = os.path.join(workdir, f"{name}-{repeat}-{int(trace)}")
                    os.makedirs(run_dir)
                    cfg = config(args, trace, run_dir)
                    meta = cfg.metadata()
                    meta["cleared_env"] = cleared
                    outcome = run_workload(name, cfg)
                    metrics = outcome.per_layer if trace else outcome.end_to_end
                    records.append(report(outcome, metrics, cfg.seed))
                    shutil.rmtree(run_dir, ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in meta.items():
        print(f"  meta {key}: {value}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "runs": records}, handle, indent=1)

    # The last line: one JSON object.  A single run prints its metrics
    # under their own names; several runs prefix each with its workload.
    single = len(records) == 1
    merged = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            merged[metric if single else f"{record['workload']}.{metric}"] = entry
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same seed, same inputs - and the same str-hash layout, so set
        # iteration order (hence plan choice among ties) cannot differ
        # from one run to the next.  The server inherits it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
