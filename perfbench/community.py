"""The serving half of the benchmark: peers 1..24 on one asyncio loop.

Started by ``run.py`` as a child process, one per set-up.  It reads the
run's inputs file, publishes each peer's documents, starts every node on
an ephemeral 127.0.0.1 port, joins them into one community through peer 1
and lets them gossip.  It then answers control commands, one JSON object
per line on stdin, with one JSON line each on stdout:

``fingerprint``  each node's replica digest and replication state
``watch``        report when a term reaches every node's replica of its origin
``trace``        switch span recording (and the module wrappers) on or off
``stats``        counters, CPU time, peak RSS and per-layer samples
``stop``         stop every node, write spans, exit

The process exits when stdin closes, so a benchmark that dies cannot leave
a community running.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path

from layers import (
    Fingerprints,
    Tracer,
    VisibilityWatch,
    install_module_wrappers,
    layer_samples,
    loop_lag,
    make_node,
    replicated,
    wrap_gossip_round,
)

from repro.text.document import Document

#: when the imports above finished (set-up's import time ends here).
_IMPORTED = time.monotonic()


def emit(obj: dict) -> None:
    """One JSON line to the benchmark."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def counter_sum(nodes, component: str, name: str) -> float:
    return sum(node.obs.value(component, name) for node in nodes)


async def main(args: argparse.Namespace) -> None:
    tracer = Tracer()
    uninstall = None
    emit({"event": "imported", "t": _IMPORTED})

    with open(args.inputs, encoding="utf-8") as fh:
        docs = json.load(fh)["docs"]
    pids = range(1, args.peers)
    nodes = [make_node(pid, tracer, args.replicas, args.gossip_seed) for pid in pids]
    watch = VisibilityWatch(nodes, lambda wid, t: emit({"event": "visible", "id": wid, "t": t}))
    for node in nodes:
        node.transport.on_served = lambda node=node: watch.check(node)
        wrap_gossip_round(node, tracer, lambda node=node: watch.check(node))
    by_id = {node.peer_id: node for node in nodes}
    for doc_id, text, owner in docs:
        if owner in by_id:
            by_id[owner].publish(Document(doc_id, text))
    emit({"event": "published", "t": time.monotonic()})

    for node in nodes:
        await node.start()
    for node in nodes[1:]:
        await node.join(nodes[0].address)
    for node in nodes:
        node.run()
    emit({"event": "ready", "bootstrap": nodes[0].address, "t": time.monotonic(),
          "addresses": {str(n.peer_id): n.address for n in nodes}})

    fingerprints = Fingerprints(range(args.peers))
    lag: list[float] = []
    lag_task: asyncio.Task | None = None
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=1 << 24)
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    try:
        while True:
            line = await reader.readline()
            if not line:
                break  # the benchmark went away
            cmd = json.loads(line)
            op = cmd["cmd"]
            if op == "fingerprint":
                emit({"id": cmd["id"],
                      "fingerprints": [fingerprints.of(n) for n in nodes],
                      "replicated": cmd["replicated"] and all(replicated(n) for n in nodes)})
            elif op == "watch":
                watch.add(cmd["wid"], cmd["origin"], cmd["term"])
            elif op == "trace":
                tracer.on = cmd["on"]
                if tracer.on and uninstall is None:
                    uninstall = install_module_wrappers(tracer)
                elif not tracer.on and uninstall is not None:
                    uninstall()
                    uninstall = None
                if tracer.on and lag_task is None:
                    lag_task = asyncio.create_task(loop_lag(tracer, lag))
                emit({"id": cmd["id"]})
            elif op == "stats":
                times = os.times()
                reply = {
                    "id": cmd["id"],
                    "cpu_s": times.user + times.system,
                    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "gossip_bytes": counter_sum(nodes, "node", "gossip_real_bytes_total"),
                    "ae_full_summaries": counter_sum(nodes, "node", "ae_full_summaries_total"),
                    "retries": sum(n.transport.retried_requests for n in nodes),
                    "failures": sum(n.transport.failed_requests for n in nodes),
                }
                if cmd.get("samples"):
                    reply["samples"] = layer_samples(tracer)
                    reply["samples"]["loop.lag"] = lag
                emit(reply)
            elif op == "stop":
                break
    finally:
        if lag_task is not None:
            lag_task.cancel()
        for node in nodes:
            await node.stop()
        if args.spans:
            tracer.write(Path(args.spans))
        emit({"event": "stopped"})


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True, help="the run's inputs JSON")
    parser.add_argument("--peers", type=int, required=True, help="community size incl. peer 0")
    parser.add_argument("--replicas", type=int, required=True, help="content replicas per doc")
    parser.add_argument("--spans", default="", help="where to write spans at exit")
    parser.add_argument("--gossip-seed", type=int, required=True,
                        help="seeds every node's gossip randomness")
    asyncio.run(main(parser.parse_args()))
