"""``compare A.json B.json``: apply the benchmark's bounds to two ledgers.

A is the parent (the base of every ratio), B the change. One row per
(workload, end-to-end metric); a series holds one value per run of the
ledger (``run --repeat N``), paired in order. Samples inside one run share
that run's machine weather and are not used as pairs. The rules are those
of the ``choosing-metrics`` guide, sections 6 to 8:

- *better* only when B wins at least nine tenths of at least ten pairs
  (ties count for neither) and the medians differ by more than A's own
  interquartile distance;
- *worse* when B's median is worse than A's by more than the bound;
- *unresolved* when A's own spread is wider than the bound and the two
  series are not strictly separated: the benchmark cannot tell;
- *same* otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.perf.stats import median, quartiles

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: absolute slack under which a metric never counts as worse, in its own unit.
ABSOLUTE_FLOOR = {"setup_s": 0.020}
MIN_PAIRS_FOR_GAIN = 10


def load_bounds() -> dict[str, dict]:
    manifest = json.loads(MANIFEST.read_text())
    return {m["name"]: m for m in manifest["end_to_end"]}


def judge(
    parent: list[float],
    change: list[float],
    *,
    better: str,
    bound: float,
    floor: float = 0.0,
) -> dict:
    """Medians, quartiles, ratio (base: parent) and verdict of two series."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = median(parent), median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    allowed = max(bound, floor / abs(mp))
    gain = sign * (mc - mp) / abs(mp)
    spread = (p_q3 - p_q1) / abs(mp)

    # Oriented so that larger is better on both sides.
    p_up = [sign * x for x in parent]
    c_up = [sign * x for x in change]
    pairs = list(zip(p_up, c_up))
    wins = sum(1 for p, c in pairs if c > p)
    all_better = min(c_up) > max(p_up)
    all_worse = max(c_up) < min(p_up)
    gained = (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and gain > 0
        and abs(mc - mp) > (p_q3 - p_q1)
    )
    if spread > allowed and not (all_better or all_worse):
        verdict = "unresolved"
    elif gain < -allowed:
        verdict = "worse"
    elif gained:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "parent": {"median": mp, "q1": p_q1, "q3": p_q3, "n": len(parent)},
        "change": {"median": mc, "q1": c_q1, "q3": c_q3, "n": len(change)},
        "ratio": mc / mp,
        "wins": wins,
        "pairs": len(pairs),
        "bound": bound,
        "verdict": verdict,
    }


def _runs(ledger: dict) -> list[dict]:
    return (ledger.get("untraced") or {}).get("runs", [])


def _series(runs: list[dict], workload: str, metric_name: str) -> list[float]:
    """One value per run that measured ``metric_name`` on ``workload``."""
    values = []
    for run in runs:
        m = run["workloads"].get(workload, {}).get("metrics", {}).get(metric_name)
        if m is not None:
            values.append(m["value"])
    return values


def _fail_ratio(runs: list[dict], workload: str) -> tuple[float, int]:
    records = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / max(1, attempted), attempted


def compare_ledgers(parent: dict, change: dict, bounds: dict[str, dict]) -> list[dict]:
    """Rows for every (workload, end-to-end metric) both ledgers measured."""
    rows = []
    a_runs, b_runs = _runs(parent), _runs(change)
    if not a_runs or not b_runs:
        raise ValueError(
            "a ledger has no untraced run to compare (end-to-end metrics never "
            "come from the traced run): fill it with `run --out FILE` first"
        )
    names = [n for n in a_runs[0]["workloads"] if n in b_runs[0]["workloads"]]
    for name in names:
        for metric_name, spec in bounds.items():
            a_series = _series(a_runs, name, metric_name)
            b_series = _series(b_runs, name, metric_name)
            if not a_series or not b_series:
                continue
            row = judge(
                a_series,
                b_series,
                better=spec["better"],
                bound=spec["bound"],
                floor=ABSOLUTE_FLOOR.get(metric_name, 0.0),
            )
            row.update(workload=name, metric=metric_name, unit=spec["unit"])
            rows.append(row)
        (fa, na), (fb, nb) = _fail_ratio(a_runs, name), _fail_ratio(b_runs, name)
        rows.append({
            "workload": name,
            "metric": "fail_ratio",
            "unit": "ratio",
            "parent": {"median": fa, "q1": fa, "q3": fa, "n": na},
            "change": {"median": fb, "q1": fb, "q3": fb, "n": nb},
            "ratio": None,
            "bound": 0.0,
            "verdict": "worse" if fb > fa else "same",
        })
    return rows


def render(rows: list[dict], parent_path: str, change_path: str) -> str:
    def cell(side: dict) -> str:
        return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}] n={side['n']}"

    table = [(
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "change/parent", "bound", "verdict",
    )]
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.4f}"
        table.append((
            r["workload"], r["metric"], r["unit"], cell(r["parent"]), cell(r["change"]),
            ratio, f"{r['bound']:.2f}", r["verdict"],
        ))
    widths = [max(len(row[i]) for row in table) + 2 for i in range(len(table[0]))]
    lines = [f"parent (base of every ratio): {parent_path}", f"change: {change_path}"]
    lines += ["".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines)


def main(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    try:
        rows = compare_ledgers(parent, change, load_bounds())
    except ValueError as exc:
        print(f"compare: {exc}")
        return 2
    print(render(rows, parent_path, change_path))
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(
        f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved, "
        f"{sum(r['verdict'] == 'better' for r in rows)} better"
    )
    return 1 if worse else 0
