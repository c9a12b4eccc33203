"""Tests of the benchmark itself (not of the system it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke tests start real two-process communities and take a minute or
two; they check the benchmark's output contract, not performance.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from inputs import make_inputs  # noqa: E402
from layers import TYPE_NAMES, Tracer, frame_type, install_module_wrappers  # noqa: E402

from repro.gossip.wire import AERequest, ChunkRequest, ManifestRequest, PullRequest, RumorPush  # noqa: E402
from repro.net import codec  # noqa: E402
from repro.net.codec import PublishRequest, RankedQuery  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_run_prints() -> None:
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.PLANS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_interaction_map_covers_every_layer_metric() -> None:
    spec = _spec()
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = json.loads((BENCH / "interactions.json").read_text())["per_layer"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for entry in layers.values():
        for pair in entry["moves"] + entry["flat"]:
            assert pair["metric"] in e2e and pair["workload"] in workloads


def test_every_phase_plan_fills_the_run_and_yields_every_metric() -> None:
    produces = {
        "cold_open": {"search_p50_ms"},
        "cold_closed": {"search_qps"},
        "fetch_large": {"fetch_mbps"},
        "fetch_small": {"fetch_p50_ms", "fetch_p90_ms"},
        "publish": {"publish_visible_p50_ms", "publish_visible_p90_ms", "gossip_bytes_per_update"},
        "publish_search": {
            "search_p50_ms", "publish_visible_p50_ms",
            "publish_visible_p90_ms", "gossip_bytes_per_update",
        },
    }
    for plan in run.PLANS.values():
        assert sum(share for _, share in plan) == pytest.approx(1.0)
        made = set().union(*(produces[phase] for phase, _ in plan))
        assert made | {"setup_s", "rss_mb"} == set(run.END_TO_END)
        assert [p for p, _ in plan if p.startswith("publish")] == [plan[-1][0]]
        for trace in (False, True):
            slices = run.schedule(plan, 12, trace)
            assert sum(seconds for _, seconds, _ in slices) == pytest.approx(12)
            names = [name for name, _, _ in slices]
            publishing = len(run.TRACE_ORDER) if trace else 1
            for name, _ in plan:
                assert names.count(name) == (
                    publishing if name.startswith("publish") else run.ROUNDS
                )
            assert names[-publishing:] == [plan[-1][0]] * publishing


def test_frame_type_names_match_the_codec() -> None:
    samples = [
        RankedQuery(("a",), (("a", 1.0),), 3), ChunkRequest("d", 0, 0), ManifestRequest("d"),
        RumorPush((1,)), AERequest(5), PullRequest(()), PublishRequest("d", "text"),
    ]
    for msg in samples:
        assert frame_type(codec.encode(msg)) == type(msg).__name__
    assert set(run.TRANSPORT_TYPES) <= set(TYPE_NAMES.values())
    assert set(run.HANDLER_TYPES) <= set(TYPE_NAMES.values())


def test_module_wrappers_record_while_installed_and_come_off() -> None:
    from repro.net import client as net_client

    originals = (codec.encode, codec.decode, net_client.rank_peers)
    tracer = Tracer()
    uninstall = install_module_wrappers(tracer)
    try:
        codec.decode(codec.encode(PullRequest(())))
    finally:
        uninstall()
    assert [(span[0], span[1]) for span in tracer.spans] == [
        ("codec.encode", "PullRequest"), ("codec.decode", "PullRequest"),
    ]
    assert (codec.encode, codec.decode, net_client.rank_peers) == originals


def _shape(inputs) -> dict:
    """Everything about the inputs that must not depend on the seed."""
    return {
        "docs": len(inputs.docs),
        "large": [(d.size, d.owner >= 1) for d in inputs.large],
        "small": [(d.size, d.owner >= 1) for d in inputs.small],
        "cold": len(inputs.cold_queries),
        "pool": len(inputs.pool_queries),
        "draws": len(inputs.pool_draws),
        "publishes": [p.origin >= 1 for p in inputs.publishes],
    }


def test_the_seed_changes_the_inputs_and_nothing_else() -> None:
    a, again, b = make_inputs(1, 50), make_inputs(1, 50), make_inputs(2, 50)
    assert _shape(a) == _shape(b)
    assert a.cold_queries == again.cold_queries and a.docs == again.docs
    assert a.cold_queries != b.cold_queries
    assert [d.text for d in a.docs] != [d.text for d in b.docs]
    assert [p.term for p in a.publishes] != [p.term for p in b.publishes]
    assert [d.sha256 for d in a.large] != [d.sha256 for d in b.large]
    # Everything else a run does is fixed by the workload, not the seed.
    assert run.cold_queries_needed(run.PLANS["search-cold"], 12) == len(
        make_inputs(3, run.cold_queries_needed(run.PLANS["search-cold"], 12)).cold_queries
    )


def test_concurrent_searches_keep_their_own_stopping_streaks() -> None:
    policy = run.PerSearchStopping()
    # k = 1, N = 25: eq. 4 tolerates p = 2 unproductive peers in a row.
    stops: dict[str, bool] = {}

    async def search(name: str, outcomes: list[bool]) -> None:
        policy.reset(25, 1)
        for contributed in outcomes:
            policy.observe(contributed, 1)
            await asyncio.sleep(0)
        stops[name] = policy.should_stop()

    async def both() -> None:
        await asyncio.gather(search("idle", [True, False, False]), search("busy", [True] * 3))

    asyncio.run(both())
    assert stops == {"idle": True, "busy": False}


def test_self_time_subtracts_the_union_of_children() -> None:
    # name, tag, start, end, span, parent, trace, a, b
    parent = ["p", "", 0.0, 10.0, 1, None, 1, 0, 0]
    kids = [
        ["c", "", 1.0, 4.0, 2, 1, 1, 0, 0],
        ["c", "", 3.0, 6.0, 3, 1, 1, 0, 0],  # overlaps the first (gathered RPCs)
        ["c", "", 8.0, 9.0, 4, 1, 1, 0, 0],
    ]
    selfs = run.self_times([parent, *kids])
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[2] == pytest.approx(3.0)


def _bench(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-3000:]
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def _check_result(code: int, result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert code == (0 if result["correct"] else 1)


@pytest.mark.parametrize("workload", list(run.PLANS))
def test_smoke_every_end_to_end_metric_is_printed_with_its_unit(workload: str) -> None:
    code, result, _ = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "3", "--trace", "0"
    )
    _check_result(code, result)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["search-cold", "publish-search"])
def test_smoke_traced_run_reports_every_layer_and_self_times_fit(workload: str) -> None:
    code, result, _ = _bench(
        "--workload", workload, "--seed", "8", "--seconds", "5", "--trace", "1"
    )
    _check_result(code, result)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }
    # The two search workloads split the result cache as designed.
    hit_ratio = metrics["serve.cache_hit_ratio"]["value"]
    assert hit_ratio < 0.01 if workload == "search-cold" else hit_ratio > 0
    assert metrics["transport.calls.RankedQuery"]["value"] > 0
    assert metrics["handler.calls.ChunkRequest"]["value"] > 0

    # Each span's self time fits inside the end-to-end operation enclosing it.
    for side in ("bench", "community"):
        path = ROOT / ".perfbench" / f"spans-{workload}-s8-{side}.jsonl"
        spans = [list(json.loads(line).values()) for line in path.read_text().splitlines()]
        assert spans
        by_id = {s[4]: s for s in spans}
        selfs = run.self_times(spans)
        for span in spans:
            root = span
            while root[5] is not None and root[5] in by_id:
                root = by_id[root[5]]
            assert selfs[span[4]] <= (root[3] - root[2]) + 1e-9
