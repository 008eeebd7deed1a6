"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/tests

The smoke runs start the real benchmark (about two minutes in all, most of
it the paper workload's cold commands).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from checks import check_certify, check_iso, check_paper  # noqa: E402
from inputs import Stream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def test_metric_tables_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "certify":
        assert result["metrics"]["canon.canonical_form.calls"]["value"] == 0
        assert result["metrics"]["canon.automorphism_group.calls"]["value"] == 0
    elif workload == "iso":
        assert result["metrics"]["cuts.ess4.calls"]["value"] == 0
        assert result["metrics"]["twofactors.pseudo_2fi.calls"]["value"] == 0


def test_stream_is_deterministic_per_seed():
    def graphs(seed):
        stream = Stream("certify", seed)
        return [item["g6"] for p in range(3) for v in (0, 1)
                for item in stream.batch(p, variant=v)]

    first = graphs(11)
    assert first == graphs(11)
    assert first != graphs(12)
    assert len(set(first)) == len(first)

    iso = Stream("iso", 11)
    pairs = [(it["g"]["g6"], it["h"]["g6"]) for it in iso.batch(0)]
    assert pairs == [(it["g"]["g6"], it["h"]["g6"]) for it in Stream("iso", 11).batch(0)]


def _bench_with(workload, items, results):
    bench = run.Bench(workload, seed=0, seconds=1)
    bench.check(items, {"results": results})
    return bench


def test_wrong_mapping_or_order_is_a_failure():
    items = Stream("iso", 5).batch(0)[:2]  # an isomorphic and a non-isomorphic pair
    results = [worker.iso([it["g"]["g6"], it["h"]["g6"]]) for it in items]
    assert _bench_with("iso", items, results).failed == 0

    swapped = dict(results[0], mapping=list(results[0]["mapping"]))
    swapped["mapping"][0], swapped["mapping"][1] = swapped["mapping"][1], swapped["mapping"][0]
    assert check_iso(items[0], swapped)
    assert check_iso(items[0], dict(results[0], mapping=None))
    assert check_iso(items[1], dict(results[1], mapping=list(range(items[1]["g"]["n"]))))
    assert check_iso(items[0], dict(results[0], aut_order=results[0]["aut_order"] + 1))
    assert _bench_with("iso", items, [swapped, results[1]]).failed == 1


def test_wrong_status_or_cut_is_a_failure():
    stream = Stream("certify", 5)
    items = [it for it in stream.batch(0) if it["family"] in ("join", "cut3")][:4]
    results = [worker.certify(it["g6"]) for it in items]
    assert _bench_with("certify", items, results).failed == 0

    wrong = [dict(r, status="AllEven" if r["status"] != "AllEven" else "Mixed")
             for r in results]
    assert _bench_with("certify", items, wrong).failed == len(items)
    cut_item, cut = next((it, r) for it, r in zip(items, results) if r["cut"])
    trivial = dict(cut, cut={"edges": [list(e) for e in cut_item["edges"]
                                       if 0 in e],
                             "side_a": [0]})
    assert check_certify(cut_item, trivial)


def test_changed_paper_output_is_a_failure():
    pinned = (BENCH / "data" / "paper" / "refute.out").read_bytes()
    assert check_paper("refute", 0, pinned, pinned) == []
    assert check_paper("refute", 0, pinned.replace(b"true", b"false", 1), pinned)
    assert check_paper("refute", 2, pinned, pinned)
