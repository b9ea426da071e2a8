"""Command line of the ledger.

``run``      every workload, each in its own subprocess; ``--trace`` is the
             separate traced run (per-layer metrics + one Chrome trace each)
``compare``  apply the bounds to two ledgers
(no command) the contract form ``--workload W --seed N --seconds S --trace 0|1``:
             one workload, result as one JSON object on the last line
``worker``   what the harness runs inside each subprocess
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.perf import compare, harness
from benchmarks.perf.workloads import WORKLOADS, workload_by_name

SCHEMA = 1


def _manifest_seconds() -> float:
    return float(json.loads(compare.MANIFEST.read_text())["run_seconds"])


def print_metrics(record: dict) -> None:
    """Every metric of one record by name, with its unit."""
    kind = "traced" if record["trace"] else "untraced"
    print(
        f"[{record['workload']}] {kind}: {record['attempted']} attempted, "
        f"{record['failed']} failed, correct={record['correct']}, "
        f"max |q - q_ref| = {record.get('max_abs_diff', float('nan')):.3e}, "
        f"{record.get('elapsed_s', 0.0):.1f} s"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<44}{m['value']:>16.6g} {m['unit']}")
    wall = record.get("samples", {}).get("wall_s")
    if wall:
        high = wall.get("p_high")
        tail = f", p{high['percent']} {high['value']:.4f} s" if high else ""
        print(
            f"  sample wall: S={wall['count']}, p50 {wall['p50']:.4f} s, "
            f"quartiles [{wall['q1']:.4f}, {wall['q3']:.4f}] s{tail}, "
            f"drift {wall['drift']:.3f}"
        )
    for err in record["errors"]:
        print(f"  ! {err}")
    for name in record["leaked_segments"]:
        print(f"  ! leaked shared-memory segment {name}")


def headline(ledger: dict) -> list[str]:
    """What the ledger says about ROADMAP's headline, computed, never edited."""
    lines = []
    def last_run(key: str) -> dict:
        runs = (ledger.get(key) or {}).get("runs", [])
        return runs[-1]["workloads"] if runs else {}

    untraced, traced = last_run("untraced"), last_run("traced")
    for name, record in untraced.items():
        m = record.get("metrics", {}).get("vs_baseline")
        if m:
            verb = "beats" if m["value"] > 1 else "loses to"
            rival = "ReferenceAirfoil" if name.startswith("seq_") else "seq"
            lines.append(
                f"{name} {verb} {rival} on the same mesh: vs_baseline = {m['value']:.3f}"
            )
    for name, shape in (("forkjoin_2w", "forkjoin"), ("dataflow_2w", "dataflow")):
        m = traced.get(name, {}).get("metrics", {})
        key = f"hpx.pool.{shape}.speedup_2w_over_1w"
        if key in m:
            lines.append(f"{name}: {key} = {m[key]['value']:.3f}")
    m = traced.get("seq_large", {}).get("metrics", {})
    if "backends.alloc.mmap_churn_ratio" in m:
        lines.append(
            "seq_large: the seq step takes "
            f"{m['backends.alloc.mmap_churn_ratio']['value']:.2f}x what it takes with the "
            "allocator pinned so that no temporary is a fresh mapping"
        )
    m = traced.get("dataflow_2w", {}).get("metrics", {})
    if "ledger.over_seq_ms_per_step" in m:
        over = m["ledger.over_seq_ms_per_step"]["value"]
        submit = m["backends.scheduling.submit_ms_per_step"]["value"]
        drain = m["backends.scheduling.drain_ms_per_step"]["value"]
        lines.append(
            f"dataflow_2w: {over:.1f} ms/step over seq; orchestrator submit "
            f"{submit:.1f} ms/step ({submit / over:.0%} of it), drain {drain:.1f} ms/step, "
            f"residual {m['ledger.residual_ms_per_step']['value']:.1f} ms/step"
        )
    return lines


def cmd_run(args) -> int:
    seconds = _manifest_seconds()
    seeds = list(range(args.seed, args.seed + args.repeat))
    section = harness.run_all(seeds, seconds, args.trace, progress=print_metrics)
    key = "traced" if args.trace else "untraced"
    ledger = {"schema": SCHEMA, "claim": None, "host": harness.host_facts()}
    out = Path(args.out) if args.out else None
    if out is not None and out.is_file():
        # The untraced and the traced run are separate commands that fill
        # the two sections of one ledger file.
        previous = json.loads(out.read_text())
        if previous.get("schema") == SCHEMA:
            ledger.update({k: previous.get(k) for k in ("untraced", "traced")})
    ledger[key] = section
    ledger["headline"] = headline(ledger)
    records = [r for run in section["runs"] for r in run["workloads"].values()]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(
        f"total wall {section['wall_s']:.1f} s for {len(seeds)} run(s) "
        f"({'within' if section['within_cap'] else 'OVER'} the "
        f"{harness.TOTAL_CAP_S:.0f} s cap per run); "
        f"fail_ratio {failed}/{attempted}"
    )
    for line in ledger["headline"]:
        print(f"headline: {line}")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if all(r["correct"] for r in records) else 1


def cmd_worker(args) -> int:
    # Imported here: only the worker needs the program under test.
    from benchmarks.perf.layers import run_traced
    from benchmarks.perf.measure import run_untraced

    workload = workload_by_name(args.workload)
    if args.trace:
        record = run_traced(workload, args.seed, args.seconds, harness.OUT_DIR)
    else:
        record = run_untraced(workload, args.seed, args.seconds)
    print(json.dumps(record))
    return 0


def cmd_contract(args) -> int:
    record = harness.run_workload(
        workload_by_name(args.workload), args.seed, args.seconds, bool(args.trace)
    )
    print_metrics(record)
    if not record["metrics"]:
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("--") and argv[0] not in ("-h", "--help"):
        argv.insert(0, "contract")

    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeat", type=int, default=1,
                     help="full runs, with seeds SEED, SEED+1, ... (compare pairs them)")
    run.add_argument("--trace", action="store_true", help="the traced run instead")
    run.add_argument("--out", help="ledger file to write (its other section is kept)")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="apply the bounds to two ledgers")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    cmp_.set_defaults(func=lambda a: compare.main(a.parent, a.change))

    contract = sub.add_parser("contract", help="one workload, result on the last line")
    _add_workload_flags(contract)
    contract.set_defaults(func=cmd_contract)

    worker = sub.add_parser("worker", help="internal: measure in this process")
    _add_workload_flags(worker)
    worker.set_defaults(func=cmd_worker)

    args = parser.parse_args(argv)
    return args.func(args)
