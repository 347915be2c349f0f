"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload replicates --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes a separate traced run that reports the per-layer metrics (see
``layers.py``) and its own tracing overhead.  The last line of standard
output is the result object; the line before it holds the sample counts,
correctness detail and the environment fingerprint.  ``README.md`` in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
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
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working space for stores, journals and span dumps (git-ignored).
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
IMPORT_PROBES = 3
HEALTH_PROBES = 50
#: Tails stop at p90: rarer percentiles rest on a handful of stalls and
#: say more about the machine than about the program.
TAIL_Q_MAX = 0.9

IMPORT_PACKAGES = (
    "analysis", "cache", "checkpoint", "core", "endpoint", "experiments",
    "faults", "gridftp", "net", "obs", "service", "sim",
)
CAMPAIGN_UNITS = ("fig1", "fig5-7", "tacc", "fig8", "fig9", "fig10", "fig11")


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: tiny inputs, one set-up probe")
    # The child-process mode that set-up probes run.
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile up to p90 with at least ten samples beyond
    it, as ``(q, value)``; with twenty samples or fewer that is the
    median."""
    n = len(values)
    q = min(TAIL_Q_MAX, 1.0 - 10.0 / n) if n > 20 else 0.5
    if q == 0.5:
        return q, statistics.median(values)
    xs = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return q, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: list[float]) -> dict:
    q, t = tail(values)
    return {"n": len(values), "p50": statistics.median(values),
            "tail_q": round(q, 4), "tail": t}


# -- environment -----------------------------------------------------------------


def fingerprint() -> dict:
    import numpy

    sha = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=False).stdout.strip().partition("\n")
        # Only this checkout's own history counts, not an enclosing one.
        if top and Path(top).resolve() == ROOT:
            sha = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def cpu_steal_s() -> float | None:
    """Seconds of CPU the hypervisor gave to others, summed over CPUs
    (Linux ``/proc/stat``); ``None`` where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child probes ----------------------------------------------------------------


def setup_times(args: argparse.Namespace) -> list[float]:
    """Fresh interpreter to ready-for-first-operation, once per probe."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return times


def import_times() -> dict[str, float]:
    """``-X importtime`` of ``import repro`` in fresh interpreters:
    median seconds for the whole package, the self time of each
    subpackage's own modules, and everything outside ``repro``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs: list[dict[str, float]] = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
            check=True)
        own = {f"import.{p}_s": 0.0 for p in IMPORT_PACKAGES}
        own["import.modules_s"] = 0.0
        total = repro_self = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            self_s = int(fields[0]) / 1e6
            name = fields[2].strip()
            if name == "repro":
                total = int(fields[1]) / 1e6
            if name != "repro" and not name.startswith("repro."):
                continue
            repro_self += self_s
            parts = name.split(".")
            key = f"import.{parts[1]}_s" if len(parts) > 1 else ""
            if key in own and (SRC / "repro" / parts[1]).is_dir():
                own[key] += self_s
            else:
                own["import.modules_s"] += self_s
        own["import.repro_s"] = total
        own["import.external_s"] = total - repro_self
        runs.append(own)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- metrics -----------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup: list[float], wall_s: float, submit_s: float,
               done_s: float) -> dict:
    """The gated figures.  Tails go to the detail record only: on a
    two-vCPU virtual machine with steal time they swing more between
    runs than any bound a gate may use."""
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(wall_s, "s"),
        "submit_ms": _metric(submit_s * 1e3, "ms"),
        "done_s": _metric(done_s, "s"),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def per_layer(totals: dict, extra: dict, passes: int) -> dict:
    """Per-layer metrics from span totals plus the layers' own counters.

    Times and counts are per pass (the fleet runs one pass: its traced
    open loop); ``*_us``/``*_ns`` figures are self time per unit of
    work, except the fleet's pump and submit, which are inclusive
    because the server lock is held for all of them.
    """
    def calls(name):
        return totals[name]["calls"]

    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names)

    def count(name, key):
        return totals[name]["counts"].get(key, 0)

    m: dict[str, dict] = {}
    for key, value in extra["imports"].items():
        m[key] = _metric(value, "s")

    batch = extra["batch"]
    lane_steps = count("sim.batch.run", "lane_steps")
    lane_epochs = count("sim.batch.run", "lane_epochs")
    for key in ("span", "close", "dispatch"):
        m[f"sim.batch.{key}_s"] = _metric(batch[key] / passes, "s")
    m["sim.batch.lane_steps"] = _metric(lane_steps / passes, "count")
    m["sim.batch.span_ns_per_lane_step"] = _metric(
        _ratio(batch["span"], lane_steps, 1e9), "ns")
    m["sim.batch.close_dispatch_us_per_lane_epoch"] = _metric(
        _ratio(batch["close"] + batch["dispatch"], lane_epochs, 1e6), "us")
    m["sim.batch.population_share"] = _metric(_ratio(
        batch["population"], batch["population"] + batch["ladder"]), "share")
    m["sim.batch.fallback_share"] = _metric(
        _ratio(batch["fallback"], batch["simulated"]), "share")
    m["sim.batch.other_s"] = _metric((
        totals["sim.batch.run"]["total_s"]
        - batch["span"] - batch["close"] - batch["dispatch"]) / passes, "s")

    steps = count("sim.engine.run", "steps")
    m["sim.engine.runs"] = _metric(calls("sim.engine.run") / passes, "count")
    m["sim.engine.steps"] = _metric(steps / passes, "count")
    m["sim.engine.us_per_step"] = _metric(
        _ratio(self_s("sim.engine.run"), steps, 1e6), "us")

    for metric, entry in (
        ("net.fairshare", "net.fairshare.max_min_fair_allocation"),
        ("endpoint.cpu", "endpoint.cpu.fair_shares"),
    ):
        m[f"{metric}.calls"] = _metric(calls(entry) / passes, "count")
        m[f"{metric}.us_per_call"] = _metric(
            _ratio(self_s(entry), calls(entry), 1e6), "us")

    pops = [n for n in totals if n.startswith("core.population.")]
    proposals = sum(count(n, "proposals") for n in pops)
    scalar = calls("core.scalar.observe")
    m["core.tuner.proposals.population"] = _metric(proposals / passes,
                                                   "count")
    m["core.tuner.proposals.scalar"] = _metric(scalar / passes, "count")
    m["core.tuner.us_per_proposal.population"] = _metric(
        _ratio(self_s(*pops), proposals, 1e6), "us")
    m["core.tuner.us_per_proposal.scalar"] = _metric(
        _ratio(self_s("core.scalar.observe"), scalar, 1e6), "us")

    m["sim.trace.step_records"] = _metric((
        lane_steps + steps + count("cache.get_traces_many", "steps")
        + count("cache.get_traces", "steps")) / passes, "count")

    keys = ("cache.keys.run_key", "cache.keys.single_run_components",
            "cache.keys.pair_run_components")
    gets = ("cache.get_traces_many", "cache.get_traces")
    m["cache.key_us_per_run"] = _metric(
        _ratio(self_s(*keys), calls("cache.keys.run_key"), 1e6), "us")
    m["cache.get_us_per_trace"] = _metric(_ratio(
        self_s(*gets), sum(count(n, "traces") for n in gets), 1e6), "us")
    m["cache.put_us_per_trace"] = _metric(_ratio(
        self_s("cache.put_traces"), count("cache.put_traces", "traces"),
        1e6), "us")
    for op in ("get", "put"):
        name = f"cache.backend.{op}"
        m[f"{name}_us"] = _metric(
            _ratio(self_s(name), calls(name), 1e6), "us")
    cache = extra["cache"]
    m["cache.bytes_read"] = _metric(cache["bytes_read"] / passes, "bytes")
    m["cache.bytes_written"] = _metric(cache["bytes_written"] / passes,
                                       "bytes")
    m["cache.hit_share"] = _metric(
        _ratio(cache["hits"], cache["hits"] + cache["misses"]), "share")

    journal = "checkpoint.journal.write"
    m["checkpoint.journal.appends"] = _metric(calls(journal) / passes,
                                              "count")
    m["checkpoint.journal.append_us"] = _metric(
        _ratio(self_s(journal), calls(journal), 1e6), "us")
    m["checkpoint.journal.bytes"] = _metric(extra["journal_bytes"] / passes,
                                            "bytes")

    svc = extra["service"]
    m["service.pump_rounds"] = _metric(calls("service.pump"), "count")
    m["service.pump_ms_per_round"] = _metric(_ratio(
        totals["service.pump"]["total_s"], calls("service.pump"), 1e3), "ms")
    m["service.submit_us"] = _metric(_ratio(
        totals["service.submit"]["total_s"], calls("service.submit"), 1e6),
        "us")
    m["service.fused_share"] = _metric(
        _ratio(svc["fused_epochs"], svc["epochs"]), "share")
    m["service.shed"] = _metric(svc["shed"], "count")
    m["service.queue_depth_max"] = _metric(
        count("service.pump", "queued_max"), "count")
    for key in ("span", "close", "dispatch"):
        m[f"service.phase.{key}_s"] = _metric(svc["phase_s"][key], "s")
    m["service.http.health_rtt_ms"] = _metric(svc["health_rtt_ms"], "ms")

    for unit in CAMPAIGN_UNITS:
        m[f"experiments.campaign.unit_s.{unit}"] = _metric(
            extra["unit_s"].get(unit, 0.0), "s")
    m["trace.overhead_s"] = _metric(extra["overhead_s"], "s")
    m["trace.spans"] = _metric(extra["spans"] / passes, "count")
    return m


# -- the workloads ------------------------------------------------------------------


def _batch_counters() -> dict:
    from repro.experiments.batch import dispatch_timings, occupancy

    t, o = dispatch_timings(), occupancy()
    return {"span": t["phase_s"]["span"], "close": t["phase_s"]["close"],
            "dispatch": t["phase_s"]["dispatch"],
            "population": t["population_lanes"],
            "ladder": t["ladder_lanes"],
            "fallback": o.fallback, "simulated": o.simulated}


def _fleet_counters(status: dict) -> dict:
    shards = status["batch"].values()
    phase = dict(status["fusion"]["phase_s"])
    for shard in shards:
        for key in phase:
            phase[key] += shard["phase_s"][key]
    return {
        "fused_epochs": status["fusion"]["epochs"],
        "epochs": sum(s["occupancy"]["batched"] + s["occupancy"]["fallback"]
                      for s in shards),
        **{f"phase_{k}": v for k, v in phase.items()},
    }


def _no_service() -> dict:
    return {"fused_epochs": 0, "epochs": 0, "shed": 0, "health_rtt_ms": 0.0,
            "phase_s": {"span": 0.0, "close": 0.0, "dispatch": 0.0}}


def run_passes(wl, args, setup: list[float]):
    """A library workload: closed-loop passes, timed or traced."""
    from layers import Tracer

    wl.setup()
    if not args.trace:
        walls = wl.measure(args.seconds)
        # The mean, not the median: on a shared virtual machine the
        # host's speed can switch between a fast and a slow state, and
        # the median of a run's passes jumps between the two as their
        # mix crosses one half, where the mean (the inverse of the
        # closed loop's throughput) moves with it.
        mean = statistics.fmean(walls)
        return end_to_end(setup, mean, mean, mean), {
            "wall": {**summary(walls), "mean": mean},
            "walls_ms": [round(w * 1e3, 2) for w in walls]}, None
    # Untraced and traced passes alternate, so a drift in machine speed
    # does not read as tracing overhead.
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    info: list[dict] = []
    batch = dict.fromkeys(_batch_counters(), 0)
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        untraced += wl.measure(0)
        before = _batch_counters()
        with tracer:
            traced += wl.measure(0)
        for key, value in _delta(_batch_counters(), before).items():
            batch[key] += value
        info.append(wl.info[-1])
    cache = {k: sum(p.get(k, 0) for p in info)
             for k in ("hits", "misses", "bytes_read", "bytes_written")}
    unit_s = {u: statistics.median(p["unit_s"][u] for p in info)
              for u in CAMPAIGN_UNITS if all("unit_s" in p for p in info)}
    extra = {
        "imports": import_times(),
        "batch": batch,
        "cache": cache, "unit_s": unit_s,
        "journal_bytes": sum(p.get("journal_bytes", 0) for p in info),
        "service": _no_service(),
        "overhead_s": (statistics.median(traced)
                       - statistics.median(untraced)),
        "spans": len(tracer.spans),
    }
    return per_layer(tracer.totals(), extra, len(traced)), {
        "untraced_wall": summary(untraced), "traced_wall": summary(traced),
    }, tracer


def run_fleet(wl, args, setup: list[float]):
    """The fleet: one open loop, timed or (after an untraced one) traced."""
    from layers import Tracer

    wl.setup()
    loops = []
    if not args.trace:
        loop = wl.open_loop(args.seconds, "t")
        loops.append(loop)
        result = end_to_end(setup, loop.makespan_s,
                            statistics.median(loop.submit_s),
                            statistics.median(loop.done_s))
        tracer = None
    else:
        untraced = wl.open_loop(args.seconds / 2, "u")
        status0 = wl.client.status()
        size0 = wl.journal.stat().st_size
        with Tracer() as tracer:
            loop = wl.open_loop(args.seconds / 2, "t")
        status1 = wl.client.status()
        rtts = []
        for _ in range(HEALTH_PROBES):
            t0 = perf_counter()
            wl.client.health()
            rtts.append(perf_counter() - t0)
        loops += [untraced, loop]
        d = _delta(_fleet_counters(status1), _fleet_counters(status0))
        service = {
            "fused_epochs": d["fused_epochs"], "epochs": d["epochs"],
            "shed": loop.refused,
            "health_rtt_ms": statistics.median(rtts) * 1e3,
            "phase_s": {k: d[f"phase_{k}"]
                        for k in ("span", "close", "dispatch")},
        }
        extra = {
            "imports": import_times(),
            "batch": dict.fromkeys(_batch_counters(), 0),
            "cache": {"hits": 0, "misses": 0, "bytes_read": 0,
                      "bytes_written": 0},
            "unit_s": {},
            "journal_bytes": wl.journal.stat().st_size - size0,
            "service": service,
            "overhead_s": loop.makespan_s - untraced.makespan_s,
            "spans": len(tracer.spans),
        }
        result = per_layer(tracer.totals(), extra, 1)
    # Behind by more than one arrival interval, the generator was not
    # offering the scheduled load.
    late, bound = max(x for lp in loops for x in lp.late_s), 1 / wl.rate
    detail = {
        "submit": summary(loop.submit_s), "done": summary(loop.done_s),
        "makespan_s": loop.makespan_s,
        "tenants": len(loop.tenants),
        "generator": {"max_late_ms": late * 1e3,
                      "bound_ms": bound * 1e3,
                      "valid": late <= bound},
    }
    return result, detail, tracer, loops


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return _main(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _main(args: argparse.Namespace, work: Path) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        wl = workloads.make(args.workload, args.seed, args.tiny, work)
        wl.setup()
        print("ready", flush=True)
        wl.teardown()
        return 0

    env = fingerprint()
    steal0 = cpu_steal_s()
    setup = [] if args.trace else setup_times(args)
    wl = workloads.make(args.workload, args.seed, args.tiny, work)
    try:
        if args.workload == "fleet":
            metrics, detail, tracer, loops = run_fleet(wl, args, setup)
            rss = peak_rss_mb()
            checks = wl.verify(loops, mutate=False)
        else:
            metrics, detail, tracer = run_passes(wl, args, setup)
            rss = peak_rss_mb()
            checks = wl.verify(mutate=False)
    finally:
        wl.teardown()
    if not args.trace:
        metrics["peak_rss_mb"] = _metric(rss, "MB")
        detail["setup"] = summary(setup)
    correct = checks.failed == 0
    if tracer is not None:
        uncovered = tracer.uncovered(args.workload)
        detail["uncovered"] = uncovered
        detail["calls"] = {n: t["calls"] for n, t in tracer.totals().items()}
        correct = correct and not uncovered
        spans = OUT / f"spans-{args.workload}.json"
        spans.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "spans": tracer.dump()}))
        detail["spans_file"] = str(spans.relative_to(ROOT))
    if detail.get("generator", {}).get("valid") is False:
        print("perfbench: the fleet load generator fell behind its "
              "schedule; this run's latencies are not comparable",
              file=sys.stderr)
    if steal0 is not None:
        env["steal_s"] = cpu_steal_s() - steal0
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  checks=checks.detail, env=env)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
