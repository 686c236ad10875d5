"""Self-tests of the benchmark harness: checker, RSS reader, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import run  # noqa: E402

REFERENCE = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))
BEHREND_26 = harness.WORKLOADS["oracles"][0][0]


@pytest.fixture
def env():
    return harness.child_env()


@pytest.fixture(scope="module")
def behrend26(tmp_path_factory):
    """The 2^26 sphere-shell construct, run once through the CLI."""
    workdir = tmp_path_factory.mktemp("behrend26")
    result = harness.run_invocation(BEHREND_26, workdir, harness.child_env())
    return workdir, result


def test_children_import_apfree_from_this_tree(env):
    where = harness.check_apfree_location(env)
    assert Path(where).is_relative_to(harness.ROOT / "src")
    assert "APFREE_THREADS" not in env


def test_apfree_outside_the_tree_is_refused(env, tmp_path):
    with pytest.raises(RuntimeError):
        harness.check_apfree_location(env, root=tmp_path)


def test_checker_accepts_the_reference_output(behrend26):
    workdir, result = behrend26
    assert harness.check_invocation(BEHREND_26, result, REFERENCE, workdir) == []


def test_checker_rejects_one_changed_element(behrend26, tmp_path):
    workdir, result = behrend26
    doc = json.loads((workdir / "behrend26.json").read_text(encoding="utf-8"))
    doc["elements"][17] = str(int(doc["elements"][17]) + 2)
    (tmp_path / "behrend26.json").write_text(json.dumps(doc, indent=2) + "\n",
                                            encoding="utf-8")
    problems = harness.check_invocation(BEHREND_26, result, REFERENCE, tmp_path)
    assert any("sha256" in p for p in problems)


def test_checker_rejects_an_unexpected_exit_code(behrend26):
    workdir, result = behrend26
    failed = harness.ChildResult(2, result.wall_s, result.peak_rss_mb, result.stdout,
                                 "empty result")
    problems = harness.check_invocation(BEHREND_26, failed, REFERENCE, workdir)
    assert any("exit code 2" in p for p in problems)


def test_checker_rejects_a_wrong_size_line(behrend26):
    workdir, result = behrend26
    wrong = harness.ChildResult(0, result.wall_s, result.peak_rss_mb,
                                result.stdout.replace("size=3088", "size=3087"), "")
    problems = harness.check_invocation(BEHREND_26, wrong, REFERENCE, workdir)
    assert any("stdout size=" in p for p in problems)


def test_discrepancy_floats_are_checked_to_tolerance(tmp_path):
    ref = REFERENCE["discrepancy"]["discrepancy.csv"]
    k, c_vol, c_ref = ref["k"], ref["volume_at_t1"], ref["reference_volume_at_t1"]
    rows = []
    for t in (1, 2):
        vol, refvol = c_vol * t ** (k / 2), c_ref * t ** ((k - 2) / 2)
        rows.append([k, t, 1, 6, vol, refvol, abs(6 - vol) / refvol])
    good = {**ref, "rows": 2}
    path = tmp_path / "discrepancy.csv"

    def write(rows):
        lines = [",".join(ref["header"])] + [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        good["int_columns_sha256"] = harness.discrepancy_summary(path)[
            "int_columns_sha256"]

    write(rows)
    assert harness.check_discrepancy(path, good) == []
    rows[1][4] *= 1 + 1e-9
    write(rows)
    assert harness.check_discrepancy(path, good) != []


def test_rss_is_per_child_not_a_running_maximum(env, tmp_path):
    big = harness.run_child(
        [sys.executable, "-c", "b = b'\\x01' * (200 << 20); print(len(b))"],
        tmp_path, env)
    small = harness.run_child([sys.executable, "-c", "pass"], tmp_path, env)
    assert big.exit_code == 0 and small.exit_code == 0
    # 200 MiB buffer plus an interpreter of a few tens of MiB.
    assert 200 <= big.peak_rss_mb <= 260
    assert small.peak_rss_mb < 100


def test_pass_order_only_permutes_units():
    order = harness.pass_order("oracles", random.Random(3))
    names = [inv.name for inv in order]
    assert sorted(names) == sorted(inv.name for unit in harness.WORKLOADS["oracles"]
                                   for inv in unit)
    for unit in harness.WORKLOADS["oracles"]:
        positions = [names.index(inv.name) for inv in unit]
        assert positions == list(range(positions[0], positions[0] + len(unit)))


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
