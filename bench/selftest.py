"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m pytest -q bench/selftest.py

Smoke sizes: truncation 1, ball through norm 4, 2 word pairs, 5 radii.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402
from workloads import GateFailure  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def bench(workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, lines, result = bench(workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in DECLARED["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    printed = {line.split()[0] for line in lines}
    extra = ["enum_words_per_s", "query_pairs_per_s"] if workload == "words-toy" else []
    assert set(names + extra + ["failed_frac"]) <= printed
    assert any(line.startswith("environment: python=") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_print_layers_and_repeat_call_counts(workload):
    runs = [bench(workload, 1, seed=2) for _ in range(2)]
    names = sorted(m["name"] for m in DECLARED["per_layer"])
    for code, _, result in runs:
        assert code == 0 and result["correct"]
        assert sorted(result["metrics"]) == names
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for _, _, r in runs]
    assert calls[0] == calls[1]


def test_level_size_oracle_matches_known_toy_counts():
    sizes = workloads.level_sizes(workloads.TOY_N, workloads.TOY_EDGES, 10)
    assert sizes == [1, 4, 12, 33, 88, 232, 609, 1596, 4180, 10945, 28656]
    assert sum(sizes) == 46356


def test_report_counts_match_known_suite_sizes():
    assert sum(workloads.expected_names("all", 4, workloads.TOY_EDGES, 3).values()) == 76
    edges = workloads.multipartite_edges(5)
    assert sum(workloads.expected_names("brehmer", 10, edges, 100).values()) == 217
    assert sum(workloads.expected_names("property-p", 10, edges, 100).values()) == 101


def test_word_oracles():
    adj = workloads.adjacency(workloads.TOY_N, workloads.TOY_EDGES)
    assert workloads.trace_equal([1, 2, 4], [4, 2, 1], adj)
    assert not workloads.trace_equal([1, 3], [3, 1], adj)
    assert workloads.is_lex_normal([1, 2, 4], adj)
    assert not workloads.is_lex_normal([2, 1], adj)
    assert workloads.is_lex_normal([3, 1], adj)


def test_gates_fail_on_wrong_expected_values():
    outdir = os.path.join(ROOT, ".bench_out", "selftest")
    os.makedirs(outdir, exist_ok=True)
    spec = workloads.make_spec("words-toy", 5, True, outdir)
    wall, phases, outputs = workloads.run_words(spec)
    workloads.gate_words(spec, outputs)
    ball, answers = outputs
    words = [w.letters() for w in ball]
    adj = workloads.adjacency(spec["n"], spec["edges"])
    sizes = workloads.level_sizes(spec["n"], spec["edges"], spec["ball_norm"])
    with pytest.raises(GateFailure):
        workloads.check_ball(words, sizes[:-1] + [sizes[-1] + 1], adj)
    pair, (p, q, j, dp, dq, quo, s) = spec["pairs"][0], answers[0]
    answer = (p.letters(), q.letters(), j.letters(), dp, dq, quo.letters(), s.letters())
    workloads.check_pair(pair, answer, adj)
    with pytest.raises(GateFailure):
        workloads.check_pair(dict(pair, join=pair["join"] + [3]), answer, adj)

    spec = workloads.make_spec("report-toy-t3", 5, True, outdir)
    _, _, codes = workloads.run_cli(spec)
    workloads.gate_cli(spec, codes)
    with open(spec["runs"][0]["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    expected = workloads.expected_names("all", spec["n"], spec["edges"], len(spec["grid"]))
    workloads.check_report(doc, 0, expected)
    with pytest.raises(GateFailure):
        workloads.check_report(doc, 0, expected + Counter(property_p=1))
    with pytest.raises(GateFailure):
        workloads.check_report(doc, 1, expected)
