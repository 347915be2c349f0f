"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload: a timed and a traced run must print every metric that
``BENCHMARK.json`` names, with its unit, and pass their checks; and a
deliberately wrong reference must drive ``fail_share`` above 0.  Exits
nonzero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict, workload: str, trace: int) -> None:
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    res = _result(workload, trace)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != expected:
        raise AssertionError(
            f"{workload} trace={trace}: metric names/units differ: "
            f"missing {sorted(set(expected) - set(got))}, extra "
            f"{sorted(set(got) - set(expected))}, units "
            f"{ {k: (got[k], expected[k]) for k in got.keys() & expected.keys() if got[k] != expected[k]} }")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] > 0):
        raise AssertionError(f"{workload} trace={trace}: checks failed: "
                             f"{res['attempted']} attempted, "
                             f"{res['failed']} failed")


def check_mutation(workload: str, work: Path) -> float:
    """Run the workload in-process against a wrong reference; returns
    its fail share."""
    import workloads

    wl = workloads.make(workload, 3, True, work)
    try:
        wl.setup()
        if workload == "fleet":
            loops = [wl.open_loop(1.0, "m")]
            checks = wl.verify(loops, mutate=True)
        else:
            wl.measure(0.2)
            checks = wl.verify(mutate=True)
    finally:
        wl.teardown()
    return checks.failed / checks.attempted


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        for w in spec["workloads"]:
            name = w["name"]
            for trace in (0, 1):
                check_metrics(spec, name, trace)
            share = check_mutation(name, work)
            if not share > 0:
                raise AssertionError(
                    f"{name}: a wrong reference left fail_share at 0")
            print(f"ok  {name}: metrics print with units; wrong reference "
                  f"gives fail_share {share:.3f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
