"""Tests of the benchmark itself: seeded lists, checks, tracer accounting.

Run from the repository root with ``python -m pytest -q perfbench/tests``.
"""
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import hostspeed, run, workloads
from perfbench.layertrace import LAYERS, LayerTracer

# Layers each workload must reach, and layers it must never reach.
CALLED = {
    "transport2": {"words", "lyndon", "lie", "cyclic", "derivations", "automorphisms",
                   "solvers", "linalg", "serialize", "cli"},
    "associator3": {"words", "lyndon", "lie", "derivations", "automorphisms",
                    "solvers", "linalg"},
    "graph_weights": {"words", "lyndon", "lie", "cyclic", "graphs", "weights"},
}
NOT_CALLED = {
    "transport2": {"graphs", "weights"},
    "associator3": {"cyclic", "graphs", "weights", "serialize", "cli"},
    "graph_weights": {"derivations", "automorphisms", "solvers", "linalg",
                      "serialize", "cli"},
}


def _plain(value) -> bool:
    if isinstance(value, tuple):
        return all(_plain(v) for v in value)
    return isinstance(value, (int, str))


@pytest.fixture(scope="module")
def runner():
    return workloads.Runner(run.import_kvlie())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_request_list(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert len(first) == workloads.LIST_LENGTH
    assert all(_plain(request) for request in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_the_cycle_of_request_kinds(workload):
    def kinds(seed):
        return [request[:2] if request[0] == "assoc" else workloads.variant(request)
                for request in workloads.generate(workload, seed, 120)]
    assert kinds(3) == kinds(4)


def test_lyndon_helpers_match_known_counts():
    # necklace counts of binary Lyndon words: 2, 1, 2, 3, 6, 9
    assert [len(workloads.lyndon_words(2, n)) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert workloads.standard_bracketing((0, 0, 1)) == (0, (0, 1))
    assert workloads.standard_bracketing((0, 1, 1)) == ((0, 1), 1)


def test_tail_is_eleventh_largest():
    values = [float(i) for i in range(1, 101)]
    value, pct, n = run.tail(values)
    assert (value, n) == (90.0, 100)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)


def test_host_speed_correction_scales_to_nominal():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.corrected(0.3, nominal, nominal) == pytest.approx(0.3)
    # a host half as fast doubles both the request and the reference
    assert hostspeed.corrected(0.6, 2 * nominal, 2 * nominal) == pytest.approx(0.3)
    assert hostspeed.corrected(0.3, 0.02, 0.04) == pytest.approx(0.3 * nominal / 0.03)
    assert 0 < hostspeed.Reference().time(repeat=3) < 1


def test_checks_reject_wrong_answers(runner):
    taut = workloads.warmup_requests("transport2")[0]
    u = runner.prepare(taut)
    result = list(runner.execute(taut, u))
    assert runner.check(taut, u, tuple(result)) is None
    result[1] = u.scale(2)
    assert "taut_log" in runner.check(taut, u, tuple(result))
    count = ("enumerate", "lie", 5)
    assert runner.check(count, None, [None] * 31) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_attributes_every_layer(runner, workload):
    requests = workloads.warmup_requests(workload)
    run.warm_up(runner, workload)
    with LayerTracer() as tracer:
        tally = run.run_list(runner, requests, float("inf"), tracer, limit=len(requests))
    plain, traced = tally.plain, tally.traced
    assert tally.failures == [] and tally.attempted == len(requests) == len(traced)
    assert len(tally.speed) == len(plain)
    table = tracer.layer_table()
    assert set(table) == set(LAYERS) | {"bench"}
    for layer in CALLED[workload]:
        assert table[layer][0] > 0, layer
    for layer in NOT_CALLED[workload]:
        assert table[layer] == (0, 0.0), layer
    wall = sum(traced)
    overhead = abs(wall - sum(plain))
    self_total = sum(self_s for _calls, self_s in table.values())
    assert abs(self_total - wall) <= overhead + 1e-6 * len(traced)
    assert all(span[5] <= span[6] for span in tracer.spans)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = run.layer_metrics(tracer, plain, traced)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {name: unit for name, (_v, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_tracer_restores_every_binding(runner):
    import kvlie.lie
    import kvlie.words
    before = (kvlie.lie.bracket_expansion, kvlie.words.AssocSeries.__mul__,
              kvlie.lie.LieSeries.__dict__["from_assoc"])
    with LayerTracer():
        assert kvlie.lie.bracket_expansion is not before[0]
    after = (kvlie.lie.bracket_expansion, kvlie.words.AssocSeries.__mul__,
             kvlie.lie.LieSeries.__dict__["from_assoc"])
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["command"][1:] == ["perfbench/run.py"]
