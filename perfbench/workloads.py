"""The three benchmark workloads.

Each workload builds its inputs from the seed alone, gets ready for its
first operation in :meth:`setup`, and then either runs closed-loop
passes (the two library workloads: the caller waits for each result)
or an open-loop schedule of submits (``fleet``: tenants are independent
users).  Correctness checks run outside the timed region, against
references computed once per invocation after the measurement, so the
process's peak memory is the workload's own.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from repro.cache import RunCache
from repro.checkpoint.journal import read_journal
from repro.core.registry import make_tuner
from repro.experiments import batch as exp_batch
from repro.experiments import campaign as exp_campaign
from repro.experiments.batch import SingleRunSpec
from repro.experiments.campaign import CampaignScale
from repro.experiments.parallel import replicate_seeds
from repro.experiments.runner import run_single
from repro.experiments.scenarios import SCENARIOS
from repro.service import (
    COMPLETED,
    TERMINAL_STATES,
    FleetApiError,
    FleetClient,
    FleetServer,
    FleetService,
)

WORKLOADS = ("replicates", "campaign", "fleet")

#: Lane width of every batched call (the CLI's bare ``--batch``).
BATCH = 64


def campaign_scale(seed: int, tiny: bool) -> CampaignScale:
    """The paper's full campaign, or for the self-test every unit at
    four epochs per transfer."""
    if tiny:
        return CampaignScale(duration_s=120.0, fig1_duration_s=90.0,
                             fig1_reps=1, seed=seed)
    return CampaignScale.full(seed=seed)


def same_trace(a, b) -> bool:
    return a.epochs == b.epochs and a.steps == b.steps


@dataclass
class Checks:
    """Operations checked and how many failed, by check name."""

    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)

    def add(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        self.detail[name] = {"attempted": attempted, "failed": failed}


class PassWorkload:
    """A closed loop of passes; subclasses define one pass."""

    name = ""

    def __init__(self, seed: int, tiny: bool, work: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work = work
        #: Per-pass facts read outside the timer (cache stats, unit
        #: seconds, journal bytes), one dict per pass.
        self.info: list[dict] = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_pass(self) -> None:
        """Untimed per-pass preparation (fresh directories)."""

    def run_pass(self):
        raise NotImplementedError

    def after_pass(self, out) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> list[float]:
        """Run passes until ``seconds`` have gone by; returns each
        pass's wall time (at least one pass, so ``measure(0)`` runs
        exactly one)."""
        walls: list[float] = []
        deadline = perf_counter() + seconds
        while not walls or perf_counter() < deadline:
            self.prepare_pass()
            gc.collect()
            t0 = perf_counter()
            out = self.run_pass()
            walls.append(perf_counter() - t0)
            self.after_pass(out)
        return walls

    def teardown(self) -> None:
        pass


class Replicates(PassWorkload):
    """64 cd-tuner seed replicates on anl-uc in one ``run_batch`` call."""

    name = "replicates"

    def setup(self) -> None:
        self.lanes = 8 if self.tiny else 64
        self.duration_s = 120.0 if self.tiny else 900.0
        scenario = SCENARIOS["anl-uc"]
        self.specs = [
            SingleRunSpec(scenario, make_tuner("cd", s),
                          duration_s=self.duration_s, seed=s)
            for s in replicate_seeds(self.seed, self.lanes)
        ]
        self.first = None
        #: Per pass, which lanes equal the first pass's lane.
        self.same_as_first: list[list[bool]] = []

    def run_pass(self):
        return exp_batch.run_batch(self.specs, batch=BATCH, cache=False)

    def after_pass(self, out) -> None:
        if self.first is None:
            self.first = out
        self.same_as_first.append(
            [same_trace(a, b) for a, b in zip(out, self.first)])
        self.info.append({})

    def verify(self, mutate: bool = False) -> Checks:
        refs = [
            run_single(s.scenario, make_tuner("cd", s.seed),
                       duration_s=s.duration_s, seed=s.seed, cache=False)
            for s in self.specs
        ]
        if mutate:
            refs[0] = refs[-1]
        wrong = [not same_trace(t, r) for t, r in zip(self.first, refs)]
        # A seeded sample of lanes against the reference engine too.
        sample = random.Random(self.seed).sample(
            range(self.lanes), min(4, self.lanes))
        for i in sample:
            s = self.specs[i]
            ref = run_single(s.scenario, make_tuner("cd", s.seed),
                             duration_s=s.duration_s, seed=s.seed,
                             cache=False, fast_path=False)
            wrong[i] = wrong[i] or not same_trace(self.first[i], ref)
        checks = Checks()
        checks.add(
            "lanes",
            len(self.same_as_first) * self.lanes,
            sum(wrong[i] or not same
                for row in self.same_as_first for i, same in enumerate(row)),
        )
        checks.detail["reference_engine_lanes"] = sorted(sample)
        return checks


class Campaign(PassWorkload):
    """The paper campaign, batched, with a unit journal and a cold
    directory cache per pass."""

    name = "campaign"

    def setup(self) -> None:
        self.scale = campaign_scale(self.seed, self.tiny)
        self._pass_dir: Path | None = None
        self.prepare_pass()
        self.docs: list[str] = []

    def prepare_pass(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
            # Flush the last pass's write-back now, not during the next.
            os.sync()
        self._pass_dir = Path(tempfile.mkdtemp(dir=self.work))
        self.store = RunCache(self._pass_dir / "cache")
        self.journal = self._pass_dir / "units.jsonl"

    def run_pass(self):
        return exp_campaign.run_campaign(
            self.scale, batch=BATCH, jobs=1, cache=self.store,
            journal_path=self.journal)

    def after_pass(self, out) -> None:
        stats = self.store.stats()
        self.docs.append(out.document())
        self.info.append({
            "hits": stats.hits, "misses": stats.misses,
            "bytes_read": stats.read_bytes,
            "bytes_written": stats.written_bytes,
            "journal_bytes": self.journal.stat().st_size,
            "unit_s": dict(out.unit_seconds),
        })

    def reference(self) -> str:
        return exp_campaign.run_campaign(
            self.scale, batch=0, cache=False).document()

    def verify(self, mutate: bool = False) -> Checks:
        ref = self.reference()
        if mutate:
            ref += "\nmutated"
        checks = Checks()
        checks.add("documents", len(self.docs),
                   sum(doc != ref for doc in self.docs))
        return checks

    def teardown(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)


# -- fleet --------------------------------------------------------------------

#: Tenants cycle through the tuners in a fixed order, each tuner taking
#: both shards in turn: seeds change the tenants' tuner seeds, not the
#: mix, so every seed offers the same work.
FLEET_TUNERS = ("cd", "cs", "gss", "nm")
FLEET_SCENARIOS = ("anl-uc", "anl-tacc")
#: The client polls the oldest unfinished tenant every ``POLL_S``, but
#: never when the next submit is due within ``POLL_MARGIN_S``.  Every
#: poll is a request the server handles on its own thread under the
#: server lock: polling every 2 ms slowed the pump enough to raise the
#: median done time by 10-25%.
POLL_S = 0.005
POLL_MARGIN_S = 0.003


@dataclass
class LoopResult:
    """One open-loop schedule: per-submit and per-tenant timings."""

    submit_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)
    makespan_s: float = 0.0
    tenants: list[str] = field(default_factory=list)
    refused: int = 0


class Fleet:
    """An in-process fleet server driven by one open-loop client."""

    name = "fleet"

    def __init__(self, seed: int, tiny: bool, work: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work = work
        #: Users per second; each submits one tenant per shard.
        self.rate = 10.0
        self.epochs = 4 if tiny else 30
        self.rng = random.Random(seed)
        self.statuses: dict[str, dict] = {}
        self.server: FleetServer | None = None

    def setup(self) -> None:
        self.journal = Path(tempfile.mkdtemp(dir=self.work)) / "fleet.jsonl"
        self.fleet = FleetService(
            {n: SCENARIOS[n] for n in FLEET_SCENARIOS},
            capacity=64, queue_limit=128, seed=self.seed,
            journal_path=self.journal, batch=True, fusion=True,
        )
        self.server = FleetServer(self.fleet).start()
        self.client = FleetClient(self.server.url, timeout_s=5.0)
        self.client.health()

    def _spec(self, name: str, i: int) -> dict:
        return {
            "tenant": name,
            "scenario": FLEET_SCENARIOS[i % 2],
            "tuner": FLEET_TUNERS[(i + i // 4) % 4],
            "seed": self.rng.randrange(1 << 30),
            "epochs": self.epochs,
        }

    def open_loop(self, seconds: float, prefix: str) -> LoopResult:
        """Let ``rate`` users a second arrive for ``seconds``, then poll
        until every tenant is terminal.

        Each user submits a transfer pair, one tenant per scenario shard
        (the paper's simultaneous transfers), so the shards run side by
        side and cross-shard fusion has work.  One thread, one
        connection at a time.  Submits have priority: the head of the
        unfinished queue is polled only while the next submit is more
        than ``POLL_MARGIN_S`` away.  Tenants share one
        epoch budget and advance one epoch per round, so they finish in
        admission order and polling the oldest one suffices.

        Users arrive at seeded gaps drawn uniformly between half and one
        and a half arrival intervals.  On an exact grid every arrival
        met the idle pump loop (which looks for work every 20 ms) at
        nearly the same phase, so each run's done times carried their
        own 0-20 ms offset, set by how long a tenant took.
        """
        n = 2 * max(1, round(self.rate * seconds))
        interval = 1.0 / self.rate
        names = [f"{prefix}{i:05d}" for i in range(n)]
        specs = [self._spec(name, i) for i, name in enumerate(names)]
        offsets = [0.0]
        for _ in range(n // 2 - 1):
            offsets.append(offsets[-1]
                           + interval * self.rng.uniform(0.5, 1.5))
        res = LoopResult(tenants=names)
        t0 = perf_counter() + 0.01
        due = [t0 + offsets[i // 2] for i in range(n)]
        give_up = t0 + seconds + 60.0
        pending: deque[int] = deque()
        last_done = t0
        i = 0
        while i < n or pending:
            now = perf_counter()
            if now > give_up:  # the rest count as failed tenants
                break
            if i < n and now >= due[i]:
                res.late_s.append(now - due[i])
                try:
                    doc = self.client.submit(specs[i])
                    ok = bool(doc.get("admitted") or doc.get("queued"))
                except (FleetApiError, OSError):
                    ok = False
                res.submit_s.append(perf_counter() - due[i])
                if ok:
                    pending.append(i)
                else:
                    res.refused += 1
                i += 1
                continue
            wait = due[i] - now if i < n else interval
            if pending and wait > POLL_MARGIN_S:
                j = pending[0]
                try:
                    doc = self.client.observe(names[j])
                except (FleetApiError, OSError):
                    doc = {"state": ""}
                if doc.get("state") in TERMINAL_STATES:
                    last_done = perf_counter()
                    res.done_s.append(last_done - due[j])
                    self.statuses[names[j]] = doc
                    pending.popleft()
                    continue
                wait = min(wait - POLL_MARGIN_S, POLL_S)
            sleep(max(wait, 0.0))
        res.makespan_s = last_done - t0
        return res

    def stop(self) -> None:
        if self.server is not None:
            self.server.drain_and_stop()
            self.server = None

    def verify(self, loops: list[LoopResult], mutate: bool = False) -> Checks:
        """Every submit accepted, every tenant COMPLETED with its full
        budget, and the journal holding one epoch record per
        tenant-epoch."""
        self.stop()
        budget = self.epochs + (1 if mutate else 0)
        journal = read_journal(self.journal)
        epochs: dict[str, list[int]] = {}
        for e in journal.epochs:
            epochs.setdefault(e.session, []).append(e.record.index)
        checks = Checks()
        checks.add("submits", sum(len(r.submit_s) for r in loops),
                   sum(r.refused for r in loops))
        names = [name for r in loops for name in r.tenants]
        bad = 0
        for name in names:
            doc = self.statuses.get(name, {})
            bad += not (
                doc.get("state") == COMPLETED
                and doc.get("epochs_done") == budget
                and sorted(epochs.get(name, ())) == list(range(budget))
            )
        checks.add("tenants", len(names), bad)
        return checks

    def teardown(self) -> None:
        self.stop()


def make(name: str, seed: int, tiny: bool, work: Path):
    if name == "replicates":
        return Replicates(seed, tiny, work)
    if name == "campaign":
        return Campaign(seed, tiny, work)
    if name == "fleet":
        return Fleet(seed, tiny, work)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
