"""Per-layer timing from outside the program, shared by both processes.

Nothing here edits ``repro``: every layer is timed at the boundary of a
public function.

* :class:`TimedTransport` is a :class:`~repro.net.transport.TcpTransport`
  handed to ``NetworkPeer(transport=...)``.  It times each client
  ``request`` and wraps the handler given to ``serve``; the message type
  is read from the frame's type byte.
* :func:`install_module_wrappers` wraps ``repro.net.codec.encode`` and
  ``decode`` and ``rank_peers`` as bound in ``repro.net.client``, only
  while a traced window runs; :func:`wrap_gossip_round` wraps one node's
  ``gossip_round``.

Spans carry a name, a tag (usually the message type), start and end, their
own id, the parent span's id and a trace id shared by every span of one
operation; they stay in memory and are written out when the run ends.
Recording happens only while :attr:`Tracer.on` is set.  An untraced run
installs no module wrappers; it pays one attribute test per transport
request, served frame and gossip round, whose hooks the publish
visibility probe needs.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import time
from collections.abc import Awaitable, Callable
from pathlib import Path

import numpy as np

from repro.constants import ContentConfig, GossipConfig, NetConfig
from repro.net import client as net_client
from repro.net import codec
from repro.net.node import NetworkPeer
from repro.net.transport import Handler, TcpTransport
from repro.obs import Registry

#: the fleet's default gossip base interval.
GOSSIP_INTERVAL_S = 0.25

#: frame type byte -> message name (the codec's wire ids).
TYPE_NAMES = {
    1: "RumorPush",
    2: "RumorReply",
    3: "RumorData",
    4: "AERequest",
    5: "AENothing",
    6: "AERecent",
    7: "AESummary",
    8: "PullRequest",
    9: "JoinRequest",
    10: "JoinSnapshot",
    16: "RankedQuery",
    17: "RankedResponse",
    28: "PublishRequest",
    29: "PublishAck",
    31: "ErrorReply",
    37: "ManifestRequest",
    38: "ManifestReply",
    39: "ChunkRequest",
    40: "ChunkReply",
    41: "ManifestPush",
    42: "ManifestAck",
    43: "ChunkPush",
}


def frame_type(body: bytes) -> str:
    """Message name of one frame body (version byte, then type byte)."""
    if len(body) < 2:
        return "short"
    return TYPE_NAMES.get(body[1], f"type{body[1]}")


#: (span id, trace id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: span fields, in order (``a``/``b`` are sizes, see :class:`Tracer`).
SPAN_FIELDS = ("name", "tag", "start", "end", "span", "parent", "trace", "a", "b")


class Tracer:
    """In-memory span recorder for one process.

    Spans are lists in :data:`SPAN_FIELDS` order.  ``a``/``b`` carry a
    span's sizes: bytes sent and received for ``transport.request`` (``b``
    is -1 when the request failed) and frame bytes for codec and handler
    spans.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        #: same-address requests already in flight at each call's entry.
        self.inflight_at_entry: list[int] = []
        self._ids = itertools.count(1)

    def open(self, root: bool = False) -> tuple[int, int | None, int, contextvars.Token, float]:
        """Start a span that may have children; returns its handle."""
        parent = None if root else _CURRENT.get()
        sid = next(self._ids)
        trace = parent[1] if parent is not None else sid
        token = _CURRENT.set((sid, trace))
        return sid, (parent[0] if parent else None), trace, token, time.perf_counter()

    def close(self, handle, name: str, tag: str = "", a: int = 0, b: int = 0) -> None:
        """Finish a span opened by :meth:`open`."""
        sid, parent, trace, token, start = handle
        end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append([name, tag, start, end, sid, parent, trace, a, b])

    def leaf(self, name: str, tag: str, start: float, end: float, a: int = 0) -> None:
        """Record a span that has no children (a synchronous call)."""
        cur = _CURRENT.get()
        sid = next(self._ids)
        parent, trace = (cur[0], cur[1]) if cur is not None else (None, sid)
        self.spans.append([name, tag, start, end, sid, parent, trace, a, 0])

    def traced(self, name: str, fn: Callable[..., Awaitable], root: bool = False):
        """``fn`` (async) wrapped in a span named ``name``."""

        async def wrapped(*args, **kwargs):
            if not self.on:
                return await fn(*args, **kwargs)
            handle = self.open(root)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(handle, name)

        return wrapped

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


class TimedTransport(TcpTransport):
    """TCP transport that times every client request and served frame.

    ``on_served`` runs after each served frame in every run (the bench's
    visibility probe hangs off it); spans are recorded only while the
    tracer is on.
    """

    def __init__(self, tracer: Tracer, config: NetConfig | None = None) -> None:
        super().__init__(config)
        self.tracer = tracer
        self.on_served: Callable[[], None] | None = None
        self._inflight: dict[str, int] = {}

    async def request(self, address: str, body: bytes) -> bytes:
        tracer = self.tracer
        if not tracer.on:
            return await super().request(address, body)
        already = self._inflight.get(address, 0)
        self._inflight[address] = already + 1
        tracer.inflight_at_entry.append(already)
        handle = tracer.open()
        received = -1
        try:
            reply = await super().request(address, body)
            received = len(reply)
            return reply
        finally:
            self._inflight[address] -= 1
            tracer.close(handle, "transport.request", frame_type(body), len(body), received)

    async def serve(self, address: str, handler: Handler) -> str:
        async def timed(body: bytes) -> bytes:
            if self.tracer.on:
                handle = self.tracer.open(root=True)
                try:
                    reply = await handler(body)
                finally:
                    self.tracer.close(handle, "handler", frame_type(body), len(body))
            else:
                reply = await handler(body)
            if self.on_served is not None:
                self.on_served()
            return reply

        return await super().serve(address, timed)


def install_module_wrappers(tracer: Tracer) -> Callable[[], None]:
    """Time ``codec.encode``/``decode`` and the client's ``rank_peers``.

    Callers look these up on their modules per call, so the wrappers
    take effect at once; returns the function that puts the originals
    back.
    """
    encode, decode, rank_peers = codec.encode, codec.decode, net_client.rank_peers

    def timed_encode(msg, *args, **kwargs):
        start = time.perf_counter()
        out = encode(msg, *args, **kwargs)
        tracer.leaf("codec.encode", type(msg).__name__, start, time.perf_counter(), len(out))
        return out

    def timed_decode(body):
        start = time.perf_counter()
        out = decode(body)
        tracer.leaf("codec.decode", type(out).__name__, start, time.perf_counter(), len(body))
        return out

    def timed_rank_peers(terms, backend):
        start = time.perf_counter()
        out = rank_peers(terms, backend)
        tracer.leaf("rank_peers", "", start, time.perf_counter())
        return out

    codec.encode = timed_encode
    codec.decode = timed_decode
    net_client.rank_peers = timed_rank_peers

    def uninstall() -> None:
        codec.encode, codec.decode, net_client.rank_peers = encode, decode, rank_peers

    return uninstall


def wrap_gossip_round(node: NetworkPeer, tracer: Tracer, after: Callable[[], None]) -> None:
    """Time ``node.gossip_round`` and run ``after`` when each round ends."""
    inner = tracer.traced("gossip.round", node.gossip_round, root=True)

    async def gossip_round() -> None:
        try:
            await inner()
        finally:
            after()

    node.gossip_round = gossip_round  # the node's loop looks it up per round


def make_node(peer_id: int, tracer: Tracer, replicas: int, gossip_seed: int) -> NetworkPeer:
    """One in-memory community member over a :class:`TimedTransport`.

    Given the same inputs, gossip takes the same course from the same
    ``gossip_seed``; each set-up of a run draws its own, so the median
    set-up spans several courses.
    """
    net_config = NetConfig()
    return NetworkPeer(
        peer_id,
        "127.0.0.1",
        0,
        transport=TimedTransport(tracer, net_config),
        seed=gossip_seed * 1000 + peer_id,  # gossip targets and jitter
        gossip_config=GossipConfig(
            base_interval_s=GOSSIP_INTERVAL_S, max_interval_s=2 * GOSSIP_INTERVAL_S
        ),
        net_config=net_config,
        content_config=ContentConfig(replicas=replicas),
        registry=Registry(),
    )


class VisibilityWatch:
    """When does a published term reach every watched node's replica?

    A term is visible at a node once ``replica_of(origin)`` contains it.
    A node's replicas change only while it serves a frame or runs a gossip
    round, so :meth:`check` runs after exactly those, and the time of the
    last node to see the term is reported to ``report(wid, t)``.
    """

    def __init__(self, nodes: list[NetworkPeer], report: Callable[[int, float], None]) -> None:
        self.nodes = nodes
        self.report = report
        #: watch id -> [origin, term, pids still waiting, last time seen]
        self.pending: dict[int, list] = {}

    def add(self, wid: int, origin: int, term: str) -> None:
        self.pending[wid] = [origin, term, {n.peer_id for n in self.nodes}, 0.0]
        for node in self.nodes:
            self.check(node)

    def check(self, node: NetworkPeer) -> None:
        if not self.pending:
            return
        pid = node.peer_id
        for wid, entry in list(self.pending.items()):
            origin, term, waiting, _ = entry
            if pid not in waiting:
                continue
            bf = node.replica_of(origin)
            if bf is not None and term in bf:
                waiting.discard(pid)
                entry[3] = time.monotonic()
                if not waiting:
                    del self.pending[wid]
                    self.report(wid, entry[3])


class Fingerprints:
    """What each node knows, to tell when the community has converged.

    A node's fingerprint is the set-bit count of its replica of every
    member, then its hot rumor count from its registry.  Replicas only
    ever grow towards the member's own filter (rumors carry subsets of
    its bits), so a replica with the owner's bit count equals it: nodes
    with equal fingerprints hold identical directories, and once no rumor
    is hot anywhere, gossip idles.  Counts are memoised per filter
    version, so polling a converging community costs little of the CPU
    it shares with the nodes.
    """

    def __init__(self, members: range) -> None:
        self.members = members
        self._memo: dict[tuple[int, int], tuple[object, int, int]] = {}

    def of(self, node: NetworkPeer) -> list[int] | None:
        """``node``'s fingerprint, or None while a replica is missing."""
        counts = []
        for pid in self.members:
            bf = node.replica_of(pid)
            if bf is None:
                return None
            held = self._memo.get((node.peer_id, pid))
            if held is None or held[0] is not bf or held[1] != bf.version:
                held = self._memo[(node.peer_id, pid)] = (bf, bf.version, bf.bit_count())
            counts.append(held[2])
        counts.append(int(node.obs.value("node", "hot_rumors")))
        return counts


def converged(prints: list[list[int] | None], idle: bool) -> bool:
    """Whether fingerprints show identical directories (and, with
    ``idle``, no rumor still hot anywhere)."""
    first = prints[0]
    if first is None or any(p is None for p in prints):
        return False
    if idle and any(p[-1] for p in prints):
        return False
    return all(p[:-1] == first[:-1] for p in prints)


def replicated(node: NetworkPeer) -> bool:
    """Whether every document ``node`` holds has all its replicas confirmed."""
    return node.content.fully_replicated_docs() == len(node.content.store.doc_ids())


async def loop_lag(tracer: Tracer, samples: list[float], period_s: float = 0.01) -> None:
    """While tracing, append how late each ``period_s`` sleep woke (ms)."""
    while True:
        started = time.monotonic()
        await asyncio.sleep(period_s)
        if tracer.on:
            samples.append((time.monotonic() - started - period_s) * 1e3)


def layer_samples(tracer: Tracer) -> dict[str, list[float]]:
    """Raw per-layer samples from one process's spans, keyed by layer.

    Durations are in microseconds except ``gossip.round`` (ms).  The two
    processes' lists are concatenated before percentiles are taken.
    """
    out: dict[str, list[float]] = {}

    def add(key: str, value: float) -> None:
        out.setdefault(key, []).append(value)

    for name, tag, start, end, _sid, _parent, _trace, a, b in tracer.spans:
        us = (end - start) * 1e6
        if name == "transport.request":
            add(f"transport.rtt.{tag}", us)
            add("transport.bytes_sent", a)
            if b >= 0:
                add("transport.bytes_recv", b)
        elif name == "handler":
            add(f"handler.{tag}", us)
        elif name in ("codec.encode", "codec.decode"):
            add(f"{name}.{tag}", us)
            add(f"codec.bytes.{tag}", a)
        elif name == "gossip.round":
            add("gossip.round", us / 1e3)
        elif name == "rank_peers":
            add("rank_peers", us)
    out["transport.inflight"] = [float(n) for n in tracer.inflight_at_entry]
    return out


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))
