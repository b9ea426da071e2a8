"""Process-level harness: one subprocess per workload, hard timeouts, host facts.

Every workload is measured in its own interpreter, one at a time, so a
crash or a hang (ROADMAP 5a: ``run_procs`` can wedge on large halo
messages) costs that workload's result and nothing else. A hung child is
killed with its whole process group, counted as a failed sample, and the
shared-memory segments it left behind are named and removed.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from benchmarks.perf.workloads import WORKLOADS, Workload, usable_cores

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
#: Chrome traces and scratch files; listed in the root .gitignore.
OUT_DIR = PERF_DIR / "out"
#: one workload's subprocess may take this long, inside the contract's 180 s.
CHILD_TIMEOUT_S = 170.0
#: ``run`` keeps the wall time of each full run under this and says so when it cannot.
TOTAL_CAP_S = 900.0
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_"


def run_child(cmd: list[str], timeout: float, env: dict | None = None) -> dict:
    """Run ``cmd`` in its own process group; kill the group on timeout.

    Returns ``{"status": "ok" | "crash" | "timeout", "returncode", "stdout",
    "stderr", "elapsed_s"}``. Never raises for what the child does.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        status = "ok" if proc.returncode == 0 else "crash"
    except subprocess.TimeoutExpired:
        # Rank processes are the child's children: kill the whole group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, stderr = proc.communicate()
        status = "timeout"
    return {
        "status": status,
        "returncode": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        "elapsed_s": perf_counter() - t0,
    }


def shm_segments() -> set[str]:
    """Names of this program's shared-memory segments currently in the OS."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.glob(f"{SHM_PREFIX}*")}


def mapped_segments() -> set[str]:
    """Segments some live process still has mapped (``/proc/<pid>/maps``)."""
    marker = f"{SHM_DIR}/{SHM_PREFIX}"
    mapped: set[str] = set()
    for maps in Path("/proc").glob("[0-9]*/maps"):
        try:
            text = maps.read_text()
        except OSError:  # exited meanwhile, or another user's process
            continue
        for line in text.splitlines():
            at = line.find(marker)
            if at >= 0:
                mapped.add(line[at + len(str(SHM_DIR)) + 1:].split()[0])
    return mapped


def reclaim_segments(before: set[str]) -> list[str]:
    """Unlink the segments a dead child left behind, and name them.

    Called after the child's process group has ended. A segment that
    appeared since ``before`` and that no live process has mapped is the
    child's leak; one that is mapped belongs to another run of the program
    on this host (a tier-1 ``tests/procs`` run, say) and is left alone.
    """
    leaked = sorted(shm_segments() - before - mapped_segments())
    for name in leaked:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    return leaked


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def failed_record(workload: str, seed: int, trace: bool, reason: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": False,
        "attempted": 1,
        "failed": 1,
        "fail_ratio": 1.0,
        "errors": [reason],
        "leaked_segments": [],
        "metrics": {},
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    timeout: float = CHILD_TIMEOUT_S,
) -> dict:
    """Measure one workload in a fresh interpreter; always returns a record."""
    cmd = [
        sys.executable, str(PERF_DIR / "run.py"), "worker",
        "--workload", workload.name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    before = shm_segments()
    child = run_child(cmd, timeout, env=child_env())
    record = None
    if child["status"] == "ok":
        lines = child["stdout"].strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            child["status"] = "crash"
    if record is None:
        tail = child["stderr"].strip().splitlines()[-5:]
        record = failed_record(
            workload.name, seed, trace,
            f"{child['status']} after {child['elapsed_s']:.1f} s "
            f"(exit {child['returncode']}): " + " | ".join(tail),
        )
    leaked = reclaim_segments(before)
    if leaked:
        record["leaked_segments"] = sorted(set(record["leaked_segments"]) | set(leaked))
        record["correct"] = False
    record["elapsed_s"] = child["elapsed_s"]
    return record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l2_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:])
    return int(text[:-1]) * scale if scale else int(text)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_facts() -> dict:
    import numpy

    from repro.procs import default_spawn_method

    return {
        "hostname": platform.node(),
        "usable_cores": usable_cores(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _l2_bytes(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "start_method": default_spawn_method(),
    }


def run_all(seeds: list[int], seconds: float, trace: bool, progress=None) -> dict:
    """One run per seed: every workload, one subprocess each, one at a time."""
    t0 = perf_counter()
    runs = []
    for seed in seeds:
        records = {}
        for workload in WORKLOADS:
            records[workload.name] = run_workload(workload, seed, seconds, trace)
            if progress is not None:
                progress(records[workload.name])
        runs.append({"seed": seed, "workloads": records})
    wall = perf_counter() - t0
    return {
        "seconds": seconds,
        "wall_s": wall,
        "within_cap": wall <= TOTAL_CAP_S * len(seeds),
        "runs": runs,
    }
