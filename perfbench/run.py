"""End-to-end benchmark of a PlanetP community over real TCP.

Runs a 25-peer community on 127.0.0.1 as two processes: the 24 serving
peers share one asyncio loop in a child process (``community.py``), and
the querying peer 0 shares this process with the load generator.  Nodes
are in memory and gossip every 0.25 s.  The benchmark drives only public
entry points: ``QueryScheduler.ranked``, ``ContentClient.fetch``, the
``PublishRequest`` RPC, ``NetworkPeer.replica_of`` and the node registries.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 32 --trace 0

Each workload is a fixed set of phases; its own phases take most of the
run and short phases of the others supply every end-to-end metric.  The
search and fetch phases run interleaved in ROUNDS rounds, and each of
their metrics is the median over the run's slices of that phase, so a
slow spell of the shared host that hits one slice does not move it.  A
phase that publishes leaves gossip busy for a while, so it runs last:

``cold_open``      distinct ranked queries, open loop at COLD_RATE q/s
``cold_closed``    distinct ranked queries, CLOSED_CALLERS callers
``fetch_large``    whole 2 MiB documents, FETCH_INFLIGHT fetches in flight
``fetch_small``    whole 4 KiB documents, FETCH_INFLIGHT fetches in flight
``publish``        PublishRequests at PUBLISH_RATE/s to random serving peers
``publish_search`` ``publish`` plus repeated queries at POOL_RATE q/s

Every search result is compared with ``InProcessCommunity.ranked_search``
on the same corpus, every fetched document with the SHA-256 of what was
published, and every publish must reach all 25 peers' replicas.  A
mismatch counts as a failed operation and the exit status is 1.

Tail latencies are p90s: the short phases give a few hundred searches or
fetches, ten or more beyond a p90 but too few for a p99.  A run publishes
only 51 to 153 documents at ``--seconds 32``, so the spread of
``publish_visible_p90_ms`` over seeds is what shows that it holds.

``search_p90_ms`` is printed but is not an end-to-end metric: open-loop
search tails swing with the speed of a shared host far more than medians
do, too far to gate.

``--trace 1`` traces the middle two of every four rounds (and cuts the
publishing phase into four slices, traced in the same order), and prints
the per-layer metrics of the traced slices plus the tracing overhead of
each end-to-end metric (traced slices against untraced ones).  The timing
wrappers exist only during traced slices.
Spans are written to ``.perfbench/``.

The last line of standard output is one JSON object.  The same result,
with the run's flags (generator behind schedule, cold queries exhausted),
its generator lateness and each process's CPU seconds, is also written
to ``.perfbench/result-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import hashlib
import itertools
import json
import math
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench"
PIDFILE = RUN_DIR / "community.pid"
sys.path.insert(0, str(ROOT / "src"))

from inputs import NUM_PEERS, TOP_K, Inputs, make_inputs  # noqa: E402
from layers import (  # noqa: E402
    Fingerprints,
    Tracer,
    VisibilityWatch,
    converged,
    install_module_wrappers,
    layer_samples,
    loop_lag,
    make_node,
    percentile,
    replicated,
    wrap_gossip_round,
)

from repro.content.retrieval import ContentClient  # noqa: E402
from repro.core.community import InProcessCommunity  # noqa: E402
from repro.net import codec  # noqa: E402
from repro.net.codec import PublishAck, PublishRequest  # noqa: E402
from repro.obs import Registry  # noqa: E402
from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, HistogramSnapshot  # noqa: E402
from repro.ranking.stopping import AdaptiveStopping  # noqa: E402
from repro.serve import QueryRejected, QueryScheduler  # noqa: E402
from repro.text.document import Document  # noqa: E402

#: open-loop cold-search rate, about a third of closed-loop capacity.
COLD_RATE = 100.0
#: closed-loop callers: the scheduler's max_concurrent.
CLOSED_CALLERS = 8
#: most closed-loop cold queries per second a run provisions for.
CLOSED_CAP = 1500.0
FETCH_INFLIGHT = 2
PUBLISH_RATE = 8.0
#: open-loop rate of the Zipf-pool searches beside the writer, half the
#: cold rate: publish-search's server also replicates content, and at
#: 100 q/s a slow spell of the host tipped it into queueing.
POOL_RATE = 50.0
#: how long a publish may take to reach every peer before it fails.
VISIBLE_TIMEOUT_S = 15.0
#: how often set-up polls for convergence.
CONVERGE_POLL_S = 0.1
#: set-ups per run; setup_s is their median.
SETUPS = 3
#: open-loop lateness (p99, ms) beyond which a run flags its generator.
LATE_FLAG_MS = 5.0
#: whether round r is traced, in a ``--trace 1`` run, as
#: ``TRACE_ORDER[r % 4]``: untraced, traced, traced, untraced, so drift
#: over the run (warming caches, growing filters) falls equally on both
#: sides.
TRACE_ORDER = (False, True, True, False)
#: rounds a run's search and fetch phases are cut into and interleaved.
ROUNDS = 8
#: stretches the searches beside the writer are cut into, each giving one
#: value of the search metrics as a slice of its own would.
SEARCH_STRETCHES = 8

#: each workload's phases, as (phase, share of --seconds).
PLANS: dict[str, list[tuple[str, float]]] = {
    "search-cold": [
        ("cold_open", 0.3), ("cold_closed", 0.2),
        ("fetch_large", 0.15), ("fetch_small", 0.15), ("publish", 0.2),
    ],
    "publish-search": [
        ("cold_closed", 0.15), ("fetch_large", 0.15), ("fetch_small", 0.1),
        ("publish_search", 0.6),
    ],
}
#: content replicas per document, per workload: search-cold keeps the
#: content plane idle; publish-search replicates what it publishes, and
#: its fetches resolve across the origin and two replica holders.
REPLICAS = {"search-cold": 0, "publish-search": 2}

#: end-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rss_mb": ("MB", "lower"),
    "search_p50_ms": ("ms", "lower"),
    "search_qps": ("1/s", "higher"),
    "publish_visible_p50_ms": ("ms", "lower"),
    "publish_visible_p90_ms": ("ms", "lower"),
    "gossip_bytes_per_update": ("B", "lower"),
    "fetch_mbps": ("MB/s", "higher"),
    "fetch_p50_ms": ("ms", "lower"),
    "fetch_p90_ms": ("ms", "lower"),
}

TRANSPORT_TYPES = (
    "RankedQuery", "ChunkRequest", "ManifestRequest", "RumorPush",
    "AERequest", "PullRequest", "PublishRequest",
)
CODEC_TYPES = (
    "RankedQuery", "RankedResponse", "ChunkRequest", "ChunkReply",
    "RumorPush", "RumorData", "AERecent", "PullRequest",
)
HANDLER_TYPES = (
    "RankedQuery", "ChunkRequest", "ManifestRequest", "RumorPush",
    "RumorData", "AERequest", "PullRequest", "PublishRequest",
)
#: message types whose call counts grow with useful work done.
_WORK_TYPES = ("RankedQuery", "ChunkRequest")


def _per_layer_specs() -> dict[str, tuple[str, str]]:
    """Per-layer metrics of the traced run: name -> (unit, better)."""
    specs = {
        "serve.lookups": ("count", "higher"),
        "serve.cache_hit_ratio": ("ratio", "higher"),
        "serve.queue_wait_ms_p50": ("ms", "lower"),
        "serve.rejected": ("count", "lower"),
        "serve.shed": ("count", "lower"),
        "client.queries": ("count", "higher"),
        "client.peers_per_query": ("count", "lower"),
        "client.waves_per_query": ("count", "lower"),
        "client.wave_ms_p50": ("ms", "lower"),
        "client.search_self_ms_p50": ("ms", "lower"),
        "ranking.rank_peers_us_p50": ("us", "lower"),
    }
    for t in TRANSPORT_TYPES:
        specs[f"transport.rtt_us_p50.{t}"] = ("us", "lower")
        specs[f"transport.rtt_us_p99.{t}"] = ("us", "lower")
        specs[f"transport.calls.{t}"] = ("count", "higher" if t in _WORK_TYPES else "lower")
        specs[f"transport.wire_us_p50.{t}"] = ("us", "lower")
    specs.update({
        "transport.same_peer_inflight_mean": ("count", "lower"),
        "transport.retries": ("count", "lower"),
        "transport.failures": ("count", "lower"),
        "transport.bytes_sent": ("B", "lower"),
        "transport.bytes_recv": ("B", "lower"),
    })
    for t in CODEC_TYPES:
        specs[f"codec.encode_us_p50.{t}"] = ("us", "lower")
        specs[f"codec.decode_us_p50.{t}"] = ("us", "lower")
        specs[f"codec.bytes_mean.{t}"] = ("B", "lower")
    for t in HANDLER_TYPES:
        specs[f"handler.us_p50.{t}"] = ("us", "lower")
        specs[f"handler.calls.{t}"] = ("count", "higher" if t in _WORK_TYPES else "lower")
    specs.update({
        "gossip.rounds": ("count", "lower"),
        "gossip.round_ms_p50": ("ms", "lower"),
        "gossip.round_ms_p99": ("ms", "lower"),
        "gossip.ae_full_summaries": ("count", "lower"),
        "gossip.bytes_per_round": ("B", "lower"),
        "content.fetches": ("count", "higher"),
        "content.resolve_ms_p50": ("ms", "lower"),
        "content.chunk_rpcs_per_fetch": ("count", "lower"),
        "content.fallbacks": ("count", "lower"),
        "content.resumes": ("count", "lower"),
        "loop.lag_ms_p99.client": ("ms", "lower"),
        "loop.lag_ms_p99.server": ("ms", "lower"),
        "proc.cpu_ms_per_op.client": ("ms", "lower"),
        "proc.cpu_ms_per_op.server": ("ms", "lower"),
        "proc.cpu_s.client": ("s", "lower"),
        "proc.cpu_s.server": ("s", "lower"),
        "gen.late_ms_p99": ("ms", "lower"),
        "gen.late_ms_max": ("ms", "lower"),
        "setup.import_s": ("s", "lower"),
        "setup.publish_s": ("s", "lower"),
        "setup.converge_s": ("s", "lower"),
    })
    for name in END_TO_END:
        if name not in ("setup_s", "rss_mb"):
            specs[f"trace.overhead.{name}"] = ("frac", "lower")
    return specs


PER_LAYER = _per_layer_specs()


# ---------------------------------------------------------------------------
# process hygiene
# ---------------------------------------------------------------------------


class BenchError(RuntimeError):
    """The benchmark could not run (set-up failed, leaked community, ...)."""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, but another user's
    return True


def refuse_if_leaked() -> None:
    """Refuse to start while a previous run's community still runs."""
    try:
        pid = int(PIDFILE.read_text())
    except (OSError, ValueError):
        return
    if _alive(pid):
        raise BenchError(
            f"a previous run's community (pid {pid}) is still alive; stop it "
            f"(kill {pid}) before benchmarking, or delete {PIDFILE} if that pid "
            f"belongs to something else"
        )
    PIDFILE.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# the community process
# ---------------------------------------------------------------------------


class Child:
    """The serving community: 24 peers in one child process."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc
        self.events: dict[str, dict] = {}
        self.visible: dict[int, float] = {}
        self._replies: dict[int, asyncio.Future] = {}
        self._event_waiters: dict[str, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self.on_visible = None
        self._reader = asyncio.create_task(self._read())

    @classmethod
    async def spawn(
        cls, inputs_path: Path, replicas: int, spans: str, cpu: int | None, gossip_seed: int
    ) -> "Child":
        """Start the community, on core ``cpu`` when given."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "community.py"),
            "--inputs", str(inputs_path), "--peers", str(NUM_PEERS),
            "--replicas", str(replicas), "--spans", spans, "--gossip-seed", str(gossip_seed),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=env, limit=1 << 26,
        )
        RUN_DIR.mkdir(exist_ok=True)
        PIDFILE.write_text(str(proc.pid))
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        return cls(proc)

    async def _read(self) -> None:
        assert self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                break
            msg = json.loads(line)
            if "id" in msg and "event" not in msg:
                fut = self._replies.pop(msg["id"], None)
                if fut is not None and not fut.done():
                    fut.set_result(msg)
            elif msg["event"] == "visible":
                self.visible[msg["id"]] = msg["t"]
                if self.on_visible is not None:
                    self.on_visible(msg["id"])
            else:
                self.events[msg["event"]] = msg
                fut = self._event_waiters.pop(msg["event"], None)
                if fut is not None and not fut.done():
                    fut.set_result(msg)
        for fut in list(self._replies.values()) + list(self._event_waiters.values()):
            if not fut.done():
                fut.set_exception(BenchError("community process exited"))

    async def event(self, name: str, timeout_s: float) -> dict:
        if name in self.events:
            return self.events[name]
        if self._reader.done():
            raise BenchError(f"community process exited before {name!r}")
        fut = self._event_waiters.setdefault(name, asyncio.get_running_loop().create_future())
        return await asyncio.wait_for(fut, timeout_s)

    def send(self, cmd: dict) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())

    async def call(self, cmd: dict, timeout_s: float = 30.0) -> dict:
        cid = next(self._ids)
        fut = asyncio.get_running_loop().create_future()
        self._replies[cid] = fut
        self.send({**cmd, "id": cid})
        return await asyncio.wait_for(fut, timeout_s)

    async def stop(self) -> None:
        """Stop the community; kill it if it does not exit promptly."""
        proc = self.proc
        if proc.returncode is None:
            try:
                self.send({"cmd": "stop"})
                if proc.stdin is not None:
                    proc.stdin.close()
                await asyncio.wait_for(proc.wait(), 20.0)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                proc.kill()
                await proc.wait()
        self._reader.cancel()
        await asyncio.gather(self._reader, return_exceptions=True)
        PIDFILE.unlink(missing_ok=True)

    def kill(self) -> None:
        """Kill the community at once (a set-up that failed half-way)."""
        if self.proc.returncode is None:
            self.proc.kill()


# ---------------------------------------------------------------------------
# one community: set-up, operations, teardown
# ---------------------------------------------------------------------------


@dataclass
class Ops:
    """Outcome counts of one run."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class PerSearchStopping:
    """The program's eq. 4 :class:`AdaptiveStopping`, one per search.

    ``NetworkSearchClient`` keeps one stopping policy and resets it at the
    start of every ``ranked_search``, so searches the ``QueryScheduler``
    runs at once reset and advance each other's streaks, stop at the
    wrong peer and return top-k that differ from the in-process oracle.
    The scheduler takes a ``stopping`` policy; this one keeps its state in
    a context variable, so each search task (the scheduler runs a search
    in its caller's task) has its own.  It is redundant once the client
    makes a policy per search.
    """

    def __init__(self) -> None:
        self._policy: contextvars.ContextVar[AdaptiveStopping] = contextvars.ContextVar(
            "stopping"
        )

    def reset(self, community_size: int, k: int) -> None:
        policy = AdaptiveStopping()
        policy.reset(community_size, k)
        self._policy.set(policy)

    def observe(self, contributed: bool, total_retrieved: int) -> None:
        self._policy.get().observe(contributed, total_retrieved)

    def should_stop(self) -> bool:
        return self._policy.get().should_stop()


class Community:
    """A set-up community and the clients the load generator drives."""

    def __init__(self, child: Child, node0, tracer: Tracer, addresses: dict[int, str]) -> None:
        self.child = child
        self.node0 = node0
        self.tracer = tracer
        self.addresses = addresses
        self.sched = QueryScheduler(node0, stopping=PerSearchStopping())
        self.content_obs = Registry()
        self.content = ContentClient(node0.transport, registry=self.content_obs)
        self._unwrap: list = []
        self.visible0: dict[int, float] = {}
        self.watch0 = VisibilityWatch([node0], self._seen0)
        self._visible_events: dict[int, asyncio.Event] = {}
        child.on_visible = self._check_visible
        node0.transport.on_served = lambda: self.watch0.check(node0)
        wrap_gossip_round(node0, tracer, lambda: self.watch0.check(node0))

    def watch(self, wid: int, origin: int, term: str) -> asyncio.Event:
        """An event set once ``term`` is in every peer's replica of ``origin``."""
        event = self._visible_events[wid] = asyncio.Event()
        self.child.send({"cmd": "watch", "wid": wid, "origin": origin, "term": term})
        self.watch0.add(wid, origin, term)
        return event

    def visible_at(self, wid: int) -> float:
        """When the last of the 25 peers saw watch ``wid``'s term."""
        return max(self.visible0[wid], self.child.visible[wid])

    def _seen0(self, wid: int, t: float) -> None:
        self.visible0[wid] = t
        self._check_visible(wid)

    def _check_visible(self, wid: int) -> None:
        if wid in self.visible0 and wid in self.child.visible:
            event = self._visible_events.pop(wid, None)
            if event is not None:
                event.set()

    @classmethod
    async def start(
        cls, inputs: Inputs, inputs_path: Path, replicas: int, tracer: Tracer, spans: str,
        cpu: int | None, settle: bool, gossip_seed: int,
    ) -> tuple["Community", dict[str, float]]:
        """Spawn, publish, join and converge; returns the set-up timings.

        Set-up ends when every directory holds every member's filter.
        With ``settle``, the community is then left to finish gossiping
        (no rumor hot anywhere) and, with replicas, to confirm every
        replica, so measurement starts from a steady state; that wait is
        timed apart as ``settle_s``.
        """
        t0 = time.monotonic()
        child = await Child.spawn(inputs_path, replicas, spans, cpu, gossip_seed)
        try:
            node0 = make_node(0, tracer, replicas, gossip_seed)
            for doc in inputs.docs_of(0):
                node0.publish(Document(doc.doc_id, doc.text))
            await node0.start()
            imported = await child.event("imported", 120.0)
            published = await child.event("published", 120.0)
            ready = await child.event("ready", 120.0)
            await node0.join(ready["bootstrap"])
            node0.run()
            addresses = {int(k): v for k, v in ready["addresses"].items()}
            addresses[0] = node0.address
            fingerprints = Fingerprints(range(NUM_PEERS))

            async def wait_for(steady: bool) -> float:
                deadline = time.monotonic() + 120.0
                while True:
                    state = await child.call({"cmd": "fingerprint", "replicated": steady})
                    prints = [fingerprints.of(node0), *state["fingerprints"]]
                    if converged(prints, idle=steady) and (
                        not steady or replicas == 0
                        or (state["replicated"] and replicated(node0))
                    ):
                        return time.monotonic()
                    if time.monotonic() > deadline:
                        raise BenchError("community did not converge within 120 s")
                    await asyncio.sleep(CONVERGE_POLL_S)

            done = await wait_for(steady=False)
            settled = await wait_for(steady=True) if settle else done
        except BaseException:
            child.kill()
            await child.stop()
            raise
        timings = {
            "setup_s": done - t0,
            "import_s": imported["t"] - t0,
            "publish_s": published["t"] - imported["t"],
            "converge_s": done - ready["t"],
            "settle_s": settled - done,
        }
        return cls(child, node0, tracer, addresses), timings

    async def stop(self) -> None:
        try:
            await self.node0.stop()
        finally:
            await self.child.stop()

    async def set_trace(self, on: bool) -> None:
        """Start or end a traced window in both processes.

        The timing wrappers exist only inside the window: the outermost
        span of each operation wraps the scheduler, search client and
        content client of this community, and layers.py wraps the codec
        and ``rank_peers``.
        """
        if on and not self._unwrap:
            for obj, attr, name, root in (
                (self.sched, "ranked", "serve.ranked", True),
                (self.sched.client, "ranked_search", "client.ranked_search", False),
                (self.content, "fetch", "content.fetch", True),
                (self.content, "resolve", "content.resolve", False),
            ):
                setattr(obj, attr, self.tracer.traced(name, getattr(obj, attr), root=root))
                self._unwrap.append(lambda obj=obj, attr=attr: delattr(obj, attr))
            self._unwrap.append(install_module_wrappers(self.tracer))
        elif not on:
            while self._unwrap:
                self._unwrap.pop()()
        self.tracer.on = on
        await self.child.call({"cmd": "trace", "on": on})

    async def counters(self) -> dict[str, float]:
        """Cumulative counters of both processes (deltas give windows)."""
        child = await self.child.call({"cmd": "stats"})
        reg = self.node0.obs
        times = os.times()
        wave = reg.snapshot("client", "wave_latency_seconds")
        return {
            "cpu.client": times.user + times.system,
            "cpu.server": child["cpu_s"],
            "gossip_bytes": child["gossip_bytes"] + reg.value("node", "gossip_real_bytes_total"),
            "ae_full_summaries": child["ae_full_summaries"]
            + reg.value("node", "ae_full_summaries_total"),
            "retries": child["retries"] + self.node0.transport.retried_requests,
            "failures": child["failures"] + self.node0.transport.failed_requests,
            "cache_hits": reg.value("serve", "result_cache_hits_total"),
            "rejected": reg.value("serve", "queries_rejected_total"),
            "shed": reg.value("serve", "queries_shed_total"),
            "client_queries": reg.value("client", "queries_total"),
            "peers_contacted": reg.value("client", "peers_contacted_total"),
            "waves": float(wave.total) if wave is not None else 0.0,
            "wave_counts": list(wave.counts) if wave is not None else [],
            "fetches": self.content_obs.value("content_client", "fetches_total"),
            "chunk_rpcs": self.content_obs.value("content_client", "chunk_rpcs_total"),
            "fallbacks": self.content_obs.value("content_client", "replica_fallbacks_total"),
            "resumes": self.content_obs.value("content_client", "chunk_resumes_total"),
        }


def delta(after: dict, before: dict) -> dict:
    """Counter deltas between two :meth:`Community.counters` readings."""
    return {key: _combine(value, before.get(key), -1) for key, value in after.items()}


def add_deltas(total: dict, more: dict) -> dict:
    """Sum two windows' deltas."""
    return {key: _combine(value, total.get(key), 1) for key, value in more.items()}


def _combine(value, other, sign: int):
    """``value + sign * other`` for numbers and element-wise for lists."""
    if isinstance(value, list):
        other = other or [0] * len(value)
        return [a + sign * b for a, b in zip(value, other)]
    return value + sign * (other or 0.0)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """The end-to-end samples of a run's slices.

    Each slice of a search or fetch phase gives one value of its metrics,
    and a run reports the median over its slices, so a slow spell of the
    shared host that hits one slice leaves the result alone.  Publish
    visibility and gossip bytes, paced by gossip timers, pool their
    samples.
    """

    #: metric -> one value per slice.
    per_slice: dict[str, list[float]] = field(default_factory=dict)
    #: publish-to-visible-everywhere latencies (ms).
    visible_ms: list[float] = field(default_factory=list)
    #: totals: publishes and the gossip bytes they cost.
    sums: dict[str, float] = field(default_factory=dict)
    #: operations issued.
    ops: int = 0

    def add(self, metric: str, value: float) -> None:
        self.per_slice.setdefault(metric, []).append(value)

    def latencies(self, prefix: str, ms: list[float]) -> None:
        """The p50 and p90 of one slice's latencies, if it has any."""
        if ms:
            self.add(f"{prefix}_p50_ms", percentile(ms, 50))
            self.add(f"{prefix}_p90_ms", percentile(ms, 90))

    def count(self, **totals: float) -> None:
        for key, value in totals.items():
            self.sums[key] = self.sums.get(key, 0.0) + value

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics these samples give."""
        out = {name: statistics.median(values) for name, values in self.per_slice.items()}
        if self.visible_ms:
            out["publish_visible_p50_ms"] = percentile(self.visible_ms, 50)
            out["publish_visible_p90_ms"] = percentile(self.visible_ms, 90)
        if "publishes" in self.sums:
            out["gossip_bytes_per_update"] = self.sums["gossip_bytes"] / self.sums["publishes"]
        return out


class Runner:
    """Runs one workload's phases against a community."""

    def __init__(self, community: Community, inputs: Inputs, ops: Ops) -> None:
        self.c = community
        self.inputs = inputs
        self.ops = ops
        self.cold = iter(inputs.cold_queries)
        self.cold_exhausted = False
        self.pool_next = 0
        self.large_next = 0
        self.small_next = 0
        self.publish_next = 0
        self.wid = itertools.count(1)
        #: how late each open-loop send was (ms).
        self.late_ms: list[float] = []
        #: (query, result doc ids) of every answered search, checked later.
        self.answers: list[tuple[str, list[str]]] = []

    async def search(self, query: str) -> bool:
        self.ops.attempted += 1
        try:
            result = await self.c.sched.ranked(query, k=TOP_K)
        except QueryRejected as exc:
            self.ops.fail(f"search {exc.reason}")
            return False
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            self.ops.fail(f"search {type(exc).__name__}")
            return False
        self.answers.append((query, [d.doc_id for d in result.results]))
        return True

    async def open_loop(self, duration: float, rate: float, op) -> list[float]:
        """Run ``op(i, due)`` at fixed ``rate`` for ``duration`` seconds.

        Returns latencies timed from each operation's due time (ms; failed
        ones excluded) and adds how late each send was to ``late_ms``.
        """
        latencies: list[float] = []
        tasks = []

        async def one(i: int, due: float) -> None:
            if await op(i, due):
                latencies.append((time.monotonic() - due) * 1e3)

        start = time.monotonic() + 0.005
        for i in range(max(1, int(duration * rate))):
            due = start + i / rate
            wait = due - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            self.late_ms.append(max(0.0, time.monotonic() - due) * 1e3)
            tasks.append(asyncio.create_task(one(i, due)))
        await asyncio.gather(*tasks)
        return latencies

    async def closed_loop(self, duration: float, callers: int, op) -> tuple[int, float, list[float]]:
        """``callers`` loops of ``op()`` until ``duration`` passes.

        Returns completed operations, elapsed seconds and per-operation
        latencies (ms).  ``op`` returns None when its inputs run out.
        """
        stop_at = time.monotonic() + duration
        done = 0
        latencies: list[float] = []

        async def caller() -> None:
            nonlocal done
            while time.monotonic() < stop_at:
                started = time.monotonic()
                ok = await op()
                if ok is None:
                    return
                if ok:
                    done += 1
                    latencies.append((time.monotonic() - started) * 1e3)

        started = time.monotonic()
        await asyncio.gather(*(caller() for _ in range(callers)))
        return done, time.monotonic() - started, latencies

    async def cold_open(self, duration: float, tally: Tally) -> None:
        queries = [q for q, _ in zip(self.cold, range(max(1, int(duration * COLD_RATE))))]
        tally.latencies("search", await self.open_loop(
            duration, COLD_RATE, lambda i, due: self.search(queries[i])
        ))
        tally.ops += len(queries)

    async def cold_closed(self, duration: float, tally: Tally) -> None:
        async def op():
            query = next(self.cold, None)
            if query is None:
                self.cold_exhausted = True
                return None
            return await self.search(query)

        done, elapsed, _ = await self.closed_loop(duration, CLOSED_CALLERS, op)
        tally.add("search_qps", done / elapsed)
        tally.ops += done

    async def fetch(self, doc) -> bool:
        self.ops.attempted += 1
        try:
            data = await self.c.content.fetch([self.c.addresses[doc.owner]], doc.doc_id)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            self.ops.fail(f"fetch {type(exc).__name__}")
            return False
        if hashlib.sha256(data).hexdigest() != doc.sha256:
            self.ops.fail("fetch digest mismatch")
            return False
        return True

    async def fetch_large(self, duration: float, tally: Tally) -> None:
        fetched = 0

        async def op():
            nonlocal fetched
            doc = self.inputs.large[self.large_next % len(self.inputs.large)]
            self.large_next += 1
            ok = await self.fetch(doc)
            if ok:
                fetched += doc.size
            return ok

        done, elapsed, _ = await self.closed_loop(duration, FETCH_INFLIGHT, op)
        tally.add("fetch_mbps", fetched / elapsed / 1e6)
        tally.ops += done

    async def fetch_small(self, duration: float, tally: Tally) -> None:
        async def op():
            doc = self.inputs.small[self.small_next % len(self.inputs.small)]
            self.small_next += 1
            return await self.fetch(doc)

        done, _, latencies = await self.closed_loop(duration, FETCH_INFLIGHT, op)
        tally.latencies("fetch", latencies)
        tally.ops += done

    async def publish_one(self, i: int, due: float, visible_ms: list[float]) -> bool:
        """One PublishRequest; succeeds once every peer's replica has the term."""
        pub = self.inputs.publishes[self.publish_next + i]
        wid = next(self.wid)
        visible = self.c.watch(wid, pub.origin, pub.term)
        self.ops.attempted += 1
        try:
            body = await self.c.node0.transport.request(
                self.c.addresses[pub.origin], codec.encode(PublishRequest(pub.doc_id, pub.text))
            )
            ack = codec.decode(body)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            self.ops.fail(f"publish {type(exc).__name__}")
            return False
        if not (isinstance(ack, PublishAck) and ack.accepted):
            self.ops.fail("publish rejected")
            return False
        try:
            await asyncio.wait_for(visible.wait(), VISIBLE_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.ops.fail("publish never visible at every peer")
            return False
        visible_ms.append((self.c.visible_at(wid) - due) * 1e3)
        return True

    async def publish(self, duration: float, tally: Tally, with_searches: bool = False) -> None:
        before = await self.c.counters()
        visible_ms: list[float] = []
        writes = asyncio.create_task(self.open_loop(
            duration, PUBLISH_RATE, lambda i, due: self.publish_one(i, due, visible_ms)
        ))
        if with_searches:
            pool, draws, base = self.inputs.pool_queries, self.inputs.pool_draws, self.pool_next
            latencies = await self.open_loop(
                duration, POOL_RATE, lambda i, due: self.search(pool[int(draws[base + i])])
            )
            # Latencies come in completion order: each part is a stretch of
            # the phase, and counts as a slice of its own.
            n = len(latencies)
            for part in range(SEARCH_STRETCHES):
                tally.latencies("search", latencies[
                    n * part // SEARCH_STRETCHES:n * (part + 1) // SEARCH_STRETCHES
                ])
            issued = max(1, int(duration * POOL_RATE))
            self.pool_next += issued
            tally.ops += issued
        await writes
        after = await self.c.counters()
        count = max(1, int(duration * PUBLISH_RATE))
        self.publish_next += count
        tally.ops += count
        tally.visible_ms += visible_ms
        tally.count(publishes=count, gossip_bytes=after["gossip_bytes"] - before["gossip_bytes"])

    async def run(self, name: str, duration: float, tally: Tally) -> None:
        if name == "publish_search":
            await self.publish(duration, tally, with_searches=True)
        else:
            await getattr(self, name)(duration, tally)

    def check_answers(self, inputs: Inputs) -> None:
        """Compare every answered search with the in-process oracle."""
        oracle = InProcessCommunity(NUM_PEERS)
        for doc in inputs.docs:
            oracle.publish(doc.owner, Document(doc.doc_id, doc.text))
        expected: dict[str, list[str]] = {}
        for query, got in self.answers:
            want = expected.get(query)
            if want is None:
                want = expected[query] = [
                    d.doc_id for d in oracle.ranked_search(query, k=TOP_K).results
                ]
            if got != want:
                self.ops.fail("search top-k differs from the in-process oracle")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _self_time(span: list, children: list[list]) -> float:
    """``span``'s duration minus the part its children's intervals cover."""
    start, end = span[2], span[3]
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda s: s[2]):
        lo, hi = max(child[2], cursor), min(child[3], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time (s) of every span, by span id."""
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[5] is not None:
            children.setdefault(span[5], []).append(span)
    return {span[4]: _self_time(span, children.get(span[4], [])) for span in spans}


def per_layer_metrics(
    tracer: Tracer, child_samples: dict, counts: dict, ops: int, late: list[float],
    lag_client: list[float], setups: list[dict], overhead: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced windows."""
    spans = tracer.spans
    samples = layer_samples(tracer)
    merged: dict[str, list[float]] = {}
    for source in (samples, child_samples):
        for key, values in source.items():
            if key != "loop.lag":
                merged.setdefault(key, []).extend(values)
    by_id = {span[4]: span for span in spans}
    selfs = self_times(spans)
    lookups = [s for s in spans if s[0] == "serve.ranked"]
    searches = [s for s in spans if s[0] == "client.ranked_search"]
    queue_wait = [
        (s[2] - by_id[s[5]][2]) * 1e3 for s in searches if s[5] in by_id
    ]
    fetches = [s for s in spans if s[0] == "content.fetch"]
    resolves = [(s[3] - s[2]) * 1e3 for s in spans if s[0] == "content.resolve"]
    n_queries = max(1.0, counts["client_queries"])
    rounds = merged.get("gossip.round", [])
    handler_p50 = {t: percentile(child_samples.get(f"handler.{t}", []), 50) for t in HANDLER_TYPES}
    waves = counts.get("wave_counts") or []
    wave_ms = HistogramSnapshot(
        DEFAULT_LATENCY_BOUNDS, tuple(waves), sum(waves), 0.0
    ).quantile(0.5) * 1e3 if sum(waves) else 0.0
    m = {
        "serve.lookups": float(len(lookups)),
        "serve.cache_hit_ratio": counts["cache_hits"] / max(1, len(lookups)),
        "serve.queue_wait_ms_p50": percentile(queue_wait, 50),
        "serve.rejected": counts["rejected"],
        "serve.shed": counts["shed"],
        "client.queries": float(len(searches)),
        "client.peers_per_query": counts["peers_contacted"] / n_queries,
        "client.waves_per_query": counts["waves"] / n_queries,
        "client.wave_ms_p50": wave_ms,
        "client.search_self_ms_p50": percentile([selfs[s[4]] * 1e3 for s in searches], 50),
        "ranking.rank_peers_us_p50": percentile(merged.get("rank_peers", []), 50),
    }
    for t in TRANSPORT_TYPES:
        rtt = merged.get(f"transport.rtt.{t}", [])
        m[f"transport.rtt_us_p50.{t}"] = percentile(rtt, 50)
        m[f"transport.rtt_us_p99.{t}"] = percentile(rtt, 99)
        m[f"transport.calls.{t}"] = float(len(rtt))
        wire = percentile(rtt, 50) - handler_p50.get(t, 0.0) if rtt else 0.0
        m[f"transport.wire_us_p50.{t}"] = wire
    inflight = merged.get("transport.inflight", [])
    m.update({
        "transport.same_peer_inflight_mean": sum(inflight) / len(inflight) if inflight else 0.0,
        "transport.retries": counts["retries"],
        "transport.failures": counts["failures"],
        "transport.bytes_sent": float(sum(merged.get("transport.bytes_sent", []))),
        "transport.bytes_recv": float(sum(merged.get("transport.bytes_recv", []))),
    })
    for t in CODEC_TYPES:
        sizes = merged.get(f"codec.bytes.{t}", [])
        m[f"codec.encode_us_p50.{t}"] = percentile(merged.get(f"codec.encode.{t}", []), 50)
        m[f"codec.decode_us_p50.{t}"] = percentile(merged.get(f"codec.decode.{t}", []), 50)
        m[f"codec.bytes_mean.{t}"] = sum(sizes) / len(sizes) if sizes else 0.0
    for t in HANDLER_TYPES:
        m[f"handler.us_p50.{t}"] = handler_p50[t]
        m[f"handler.calls.{t}"] = float(len(child_samples.get(f"handler.{t}", [])))
    m.update({
        "gossip.rounds": float(len(rounds)),
        "gossip.round_ms_p50": percentile(rounds, 50),
        "gossip.round_ms_p99": percentile(rounds, 99),
        "gossip.ae_full_summaries": counts["ae_full_summaries"],
        "gossip.bytes_per_round": counts["gossip_bytes"] / max(1, len(rounds)),
        "content.fetches": float(len(fetches)),
        "content.resolve_ms_p50": percentile(resolves, 50),
        "content.chunk_rpcs_per_fetch": counts["chunk_rpcs"] / max(1, len(fetches)),
        "content.fallbacks": counts["fallbacks"],
        "content.resumes": counts["resumes"],
        "loop.lag_ms_p99.client": percentile(lag_client, 99),
        "loop.lag_ms_p99.server": percentile(child_samples.get("loop.lag", []), 99),
        "proc.cpu_ms_per_op.client": counts["cpu.client"] * 1e3 / max(1, ops),
        "proc.cpu_ms_per_op.server": counts["cpu.server"] * 1e3 / max(1, ops),
        "proc.cpu_s.client": counts["cpu.client"],
        "proc.cpu_s.server": counts["cpu.server"],
        "gen.late_ms_p99": percentile(late, 99),
        "gen.late_ms_max": max(late, default=0.0),
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.publish_s": statistics.median(s["publish_s"] for s in setups),
        "setup.converge_s": statistics.median(s["converge_s"] for s in setups),
    })
    for name, value in overhead.items():
        m[f"trace.overhead.{name}"] = value
    return m


def overhead_of(name: str, untraced: float, traced: float) -> float:
    """Relative cost of tracing on one metric (positive = tracing hurt)."""
    if untraced <= 0 or traced <= 0:
        return 0.0
    if END_TO_END[name][1] == "higher":
        return untraced / traced - 1.0
    return traced / untraced - 1.0


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def schedule(
    plan: list[tuple[str, float]], seconds: float, trace: bool
) -> list[tuple[str, float, int]]:
    """A run's slices, in order: (phase, seconds, round).

    The search and fetch phases run in :data:`ROUNDS` rounds, each round
    a slice of every one of them.  The publishing phase comes last, as
    one slice, or traced as one per entry of :data:`TRACE_ORDER` (each
    waits for its publishes to show everywhere, so it is cut no finer).
    A traced run traces the slices :data:`TRACE_ORDER` names.
    """
    slices = [
        (name, share * seconds / ROUNDS, r)
        for r in range(ROUNDS) for name, share in plan if not name.startswith("publish")
    ]
    parts = len(TRACE_ORDER) if trace else 1
    for name, share in plan:
        if name.startswith("publish"):
            slices += [(name, share * seconds / parts, r) for r in range(parts)]
    return slices


def cold_queries_needed(plan: list[tuple[str, float]], seconds: float) -> int:
    """How many distinct cold queries a run of ``plan`` can consume."""
    need = 0.0
    for phase, share in plan:
        if phase == "cold_open":
            need += COLD_RATE * share * seconds + 1
        elif phase == "cold_closed":
            need += CLOSED_CAP * share * seconds
    return int(math.ceil(need)) + 1


async def run(args: argparse.Namespace, cpu: int | None) -> tuple[dict, bool]:
    """One run: ``SETUPS`` set-ups, the workload's phases, the checks.

    ``cpu`` is the core the community process is pinned to, if any.
    """
    plan = PLANS[args.workload]
    replicas = REPLICAS[args.workload]
    tracer = Tracer()
    inputs = make_inputs(args.seed, cold_queries_needed(plan, args.seconds))
    RUN_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    inputs_path = RUN_DIR / f"inputs-{tag}-{os.getpid()}.json"
    inputs_path.write_text(json.dumps({"docs": [(d.doc_id, d.text, d.owner) for d in inputs.docs]}))
    spans_child = str(RUN_DIR / f"spans-{tag}-community.jsonl") if args.trace else ""

    setups: list[dict] = []
    community = None
    try:
        for i in range(SETUPS):
            community, timing = await Community.start(
                inputs, inputs_path, replicas, tracer, spans_child, cpu,
                settle=i == SETUPS - 1, gossip_seed=args.seed * SETUPS + i,
            )
            setups.append(timing)
            if i < SETUPS - 1:
                await community.stop()
                community = None
        assert community is not None
        ops = Ops()
        runner = Runner(community, inputs, ops)
        #: samples of untraced (False) and traced (True) slices.
        tallies = {False: Tally(), True: Tally()}
        traced_counts: dict = {}
        lag_client: list[float] = []
        lag_task = asyncio.create_task(loop_lag(tracer, lag_client)) if args.trace else None
        start_counts = await community.counters()
        for phase_name, duration, round_ in schedule(plan, args.seconds, bool(args.trace)):
            traced = bool(args.trace) and TRACE_ORDER[round_ % len(TRACE_ORDER)]
            if traced:
                await community.set_trace(True)
                before = await community.counters()
            await runner.run(phase_name, duration, tallies[traced])
            if traced:
                after = await community.counters()
                await community.set_trace(False)
                traced_counts = add_deltas(traced_counts, delta(after, before))
        end_counts = await community.counters()
        stats = await community.child.call({"cmd": "stats", "samples": bool(args.trace)}, 120.0)
        if lag_task is not None:
            lag_task.cancel()
        await community.stop()
        community = None
    finally:
        if community is not None:
            await community.stop()
        inputs_path.unlink(missing_ok=True)

    runner.check_answers(inputs)
    total = delta(end_counts, start_counts)
    metrics = tallies[False].metrics()
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics["rss_mb"] = stats["rss_mb"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} setups {[round(s['setup_s'], 3) for s in setups]} "
          f"settle {setups[-1]['settle_s']:.3f} s")
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:<26} {metrics[name]:>12.4f} {unit}")
    print(f"  {'search_p90_ms':<26} {metrics['search_p90_ms']:>12.4f} ms (not gated)")
    late = runner.late_ms
    late_p99, late_max = percentile(late, 99), max(late, default=0.0)
    print(f"  generator late p99 {late_p99:.3f} ms, max {late_max:.3f} ms; "
          f"cpu client {total['cpu.client']:.2f} s, server {total['cpu.server']:.2f} s")
    flags = []
    if late_p99 > LATE_FLAG_MS:
        flags.append("generator_late")
        print(f"  FLAG generator fell behind its schedule: p99 {late_p99:.1f} ms late "
              f"(> {LATE_FLAG_MS} ms); open-loop latencies include the lag")
    if runner.cold_exhausted:
        flags.append("cold_exhausted")
        print("  FLAG closed loop ran out of distinct cold queries")
    print(f"  operations attempted {ops.attempted}, succeeded {ops.attempted - ops.failed}, "
          f"failed {ops.failed} {ops.reasons or ''}")

    if args.trace:
        tracer.write(RUN_DIR / f"spans-{tag}-bench.jsonl")
        overhead = {
            name: overhead_of(name, metrics[name], value)
            for name, value in tallies[True].metrics().items() if name in END_TO_END
        }
        layer = per_layer_metrics(
            tracer, stats["samples"], traced_counts, tallies[True].ops, late, lag_client,
            setups, overhead,
        )
        out = {name: {"value": layer[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        out = {name: {"value": metrics[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    correct = ops.failed == 0
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": out}
    # The last stdout line has exactly the four keys above; the run's own
    # account of its generator and CPU goes beside it.
    (RUN_DIR / f"result-{tag}.json").write_text(json.dumps({
        **result, "trace": args.trace, "flags": flags, "late_ms_p99": late_p99,
        "late_ms_max": late_max,
        "cpu_s": {"client": total["cpu.client"], "server": total["cpu.server"]},
        "fail_reasons": ops.reasons,
    }, indent=1) + "\n")
    return result, correct


def pin_to_cores() -> int | None:
    """One process per core: pin this one to the first core and return
    the second for the community, so the OS never stacks both on one
    core mid-run (None when there is only one)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refuse_if_leaked()
    cpu = pin_to_cores()

    async def guarded() -> tuple[dict, bool]:
        # SIGTERM tears down like Ctrl-C: cancel, so every finally runs.
        task = asyncio.current_task()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, task.cancel)
        return await run(args, cpu)

    result, correct = asyncio.run(guarded())
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
