import importlib.util
import json
import os
import subprocess

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(value, hashes, failed=0):
    op = ["train.loss_ratio", False, "0.01139 <= 0.01"]
    return {"info": {"artifact_hashes": hashes, "failed_ops": [op] * failed},
            "result": {"metrics": {"compute_s": {"value": value}},
                       "failed": failed, "attempted": 4}}


def pairs(parent, change, workload="certify", hashes=None, failed=(0, 0)):
    """One pair per (parent, change) value; `hashes` maps a pair's index to
    its change side's artifact hashes (the parent's are {"a": "1"}), and
    `failed` is each side's failed operations per call, of 4 attempted,
    each listed in its `info` line's `failed_ops`."""
    hashes = hashes or {}
    return [{"workload": workload, "seed": 100 + n, "first": "parent",
             "parent": side(p, {"a": "1"}, failed[0]),
             "change": side(c, hashes.get(n, {"a": "1"}), failed[1])}
            for n, (p, c) in enumerate(zip(parent, change))]


def test_summarize_medians_quartiles_and_wins():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 12.0, 12.0]
    doc = bench_pairs.summarize(pairs(parent, change), {"compute_s": 0.24})
    row = doc["certify"]["metrics"]["compute_s"]
    assert row["parent_q1_median_q3"] == [11.0, 12.0, 13.0]
    assert row["change_q1_median_q3"] == [10.0, 12.0, 12.0]
    assert row["change_over_parent"] == 1.0
    # every pair but the second (12 against the parent's 11)
    assert row["change_wins"] == 4
    assert row["pairs"] == 5
    assert row["parent_spread"] == pytest.approx(2.0 / 12.0)
    assert row["unresolved"] is False
    assert doc["certify"]["seeds"] == [100, 101, 102, 103, 104]
    assert doc["certify"]["failed"] == {"parent": 0, "change": 0}
    assert doc["certify"]["failed_ops"] == {"parent": [], "change": []}
    assert doc["certify"]["attempted"] == {"parent": 20, "change": 20}


def test_ties_count_for_neither_side():
    doc = bench_pairs.summarize(pairs([5.0, 5.0, 6.0], [5.0, 4.0, 7.0]),
                                {"compute_s": 0.5})
    assert doc["certify"]["metrics"]["compute_s"]["change_wins"] == 1


def test_wide_parent_spread_is_unresolved_unless_every_change_call_wins():
    # parent quartiles 8 and 16 around a median of 12: spread 0.67 > 0.24
    parent = [4.0, 8.0, 12.0, 16.0, 20.0]
    overlap = bench_pairs.summarize(pairs(parent, [3.0, 7.0, 11.0, 15.0, 5.0]),
                                    {"compute_s": 0.24})
    assert overlap["certify"]["metrics"]["compute_s"]["unresolved"] is True
    beats_all = bench_pairs.summarize(pairs(parent, [1.0, 2.0, 3.0, 2.0, 1.0]),
                                      {"compute_s": 0.24})
    assert beats_all["certify"]["metrics"]["compute_s"]["unresolved"] is False
    # the same spread within a wider bound is resolved
    wide = bench_pairs.summarize(pairs(parent, [3.0, 7.0, 11.0, 15.0, 5.0]),
                                 {"compute_s": 0.7})
    assert wide["certify"]["metrics"]["compute_s"]["unresolved"] is False


def test_artifacts_differ_lists_each_hash_mismatch_once():
    rows = pairs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                 hashes={0: {"a": "2"}, 1: {"a": "1", "b": "3"},
                         2: {"a": "2"}})
    assert bench_pairs.artifacts_differ(rows) == ["a", "b"]
    assert bench_pairs.artifacts_differ(pairs([1.0], [1.0])) == []


def test_summarize_keeps_workloads_apart():
    rows = (pairs([1.0, 1.0], [0.5, 0.5], hashes={1: {"a": "9"}})
            + pairs([2.0, 2.0], [3.0, 3.0], workload="train_small"))
    doc = bench_pairs.summarize(rows, {"compute_s": 0.24})
    assert sorted(doc) == ["certify", "train_small"]
    assert doc["certify"]["artifacts_differ"] == ["a"]
    assert doc["train_small"]["artifacts_differ"] == []
    assert doc["certify"]["metrics"]["compute_s"]["change_wins"] == 2
    assert doc["train_small"]["metrics"]["compute_s"]["change_wins"] == 0
    assert doc["train_small"]["metrics"]["compute_s"]["change_over_parent"] == 1.5


def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    # parent quartiles 10.125 and 10.875 around a median of 10.5: IQR 0.75
    parent = [10.0, 10.0, 10.0, 10.5, 10.5, 10.5, 10.5, 11.0, 11.0, 11.0]

    def shown(change):
        doc = bench_pairs.summarize(pairs(parent, change), {"compute_s": 0.24})
        return doc["certify"]["metrics"]["compute_s"]["gain_shown"]

    # 9/10 wins (the last pair ties), medians 10.5 against 9.0: a gap of
    # 1.5 past the IQR
    assert shown([9.0] * 9 + [11.0]) is True
    # 8/10 wins (one tie, one loss) with the same gap
    assert shown([9.0] * 8 + [11.0, 11.5]) is False
    # 10/10 wins, medians 10.5 against 10.1: a gap of 0.4 inside the IQR
    assert shown([9.9, 9.9, 9.9, 10.1, 10.1, 10.1, 10.1, 10.6, 10.6,
                  10.6]) is False


def test_gain_shown_is_refused_when_more_operations_fail():
    # 10/10 wins with medians 10.5 against 9.0, a gap of 1.5 past the IQR
    parent = [10.0, 10.0, 10.0, 10.5, 10.5, 10.5, 10.5, 11.0, 11.0, 11.0]

    def shown(failed):
        doc = bench_pairs.summarize(pairs(parent, [9.0] * 10, failed=failed),
                                    {"compute_s": 0.24})
        return doc["certify"]["metrics"]["compute_s"]["gain_shown"]

    assert shown((0, 0)) is True and shown((1, 1)) is True
    assert shown((1, 0)) is True
    # one of 4 operations fails in each change call, none in the parent's
    assert shown((0, 1)) is False
    assert shown((1, 2)) is False


def test_summary_names_each_failed_operation_with_its_seed():
    rows = pairs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], failed=(0, 1))
    rows[1]["parent"] = side(1.0, {"a": "1"}, failed=2)
    doc = bench_pairs.summarize(rows, {"compute_s": 0.24})
    op = ["train.loss_ratio", "0.01139 <= 0.01"]
    assert doc["certify"]["failed_ops"] == {
        "parent": [[101, *op], [101, *op]],
        "change": [[100, *op], [101, *op], [102, *op]]}
    assert doc["certify"]["failed"] == {"parent": 2, "change": 3}


def test_a_failed_call_prints_its_side_seed_exit_code_and_stderr_tail(
        tmp_path, capsys):
    # a stub checkout whose perfbench/run.py fails after a long stderr
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for n in range(100):\n"
        "    print('line', n, file=sys.stderr)\n"
        "print('RuntimeError: boom', file=sys.stderr)\n"
        "sys.exit(1)\n")
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.call("change", str(tmp_path), "certify", 7, 1)
    err = capsys.readouterr().err
    assert ("change call failed: workload certify, seed 7, exit code 1"
            in err)
    assert err.rstrip().endswith("RuntimeError: boom")
    # only the tail: the last STDERR_TAIL lines, not the first ones
    assert "line 99\n" in err and "line 0\n" not in err
    assert err.count("line ") == bench_pairs.STDERR_TAIL - 1


def _stub_checkout(path):
    """A checkout whose perfbench/run.py prints one passing call of every
    end-to-end metric of BENCHMARK.json, each valued 1."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        "import json\n"
        "names = [m['name'] for m in json.load(open(%r))['end_to_end']]\n"
        "print(json.dumps({'info': {'artifact_hashes': {}, "
        "'failed_ops': []}}))\n"
        "print(json.dumps({'metrics': {n: {'value': 1.0} for n in names}, "
        "'failed': 0, 'attempted': 1}))\n" % bench_pairs.BENCHMARK)
    return str(path)


def test_one_seed_runs_one_pair(tmp_path):
    stub = _stub_checkout(tmp_path / "stub")
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", stub, "--change", stub, "--workload",
                      "certify", "--seeds", "5", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert [p["seed"] for p in doc["pairs"]] == [5]
    assert doc["summary"]["certify"]["seeds"] == [5]


@pytest.mark.parametrize("seeds, message", [
    ("9-5", "reversed seed range '9-5'"),
    ("5-", "empty bound in seed range '5-'"),
    ("-5", "empty bound in seed range '-5'")])
def test_malformed_seed_range_is_an_argparse_error(tmp_path, capsys, seeds,
                                                   message):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", "p", "--change", "c", "--workload",
                          "certify", "--seeds", seeds, "--out", str(out)])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
