"""The summary that tools/bench_pairs.py writes for its paired runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_of_fixed_pairs():
    """Quartiles per side, and wins by each metric's direction, ties for neither."""
    rss = [(60.0, 58.0), (61.0, 58.5), (62.0, 62.0), (63.0, 64.0), (64.0, 57.0)]
    rate = [(100.0, 110.0), (100.0, 90.0), (100.0, 100.0), (100.0, 120.0), (100.0, 101.0)]
    pairs = [{"base": {"peak_rss_mb": r[0], "items_per_s": i[0]},
              "head": {"peak_rss_mb": r[1], "items_per_s": i[1]}} for r, i in zip(rss, rate)]
    out = bench_pairs.summarize(pairs, {"peak_rss_mb": "lower", "items_per_s": "higher"})
    assert out["peak_rss_mb"] == {
        "better": "lower",
        "base": {"q1": 61.0, "median": 62.0, "q3": 63.0},
        "head": {"q1": 58.0, "median": 58.5, "q3": 62.0},
        "head_wins": 3, "base_wins": 1, "ties": 1}
    s = out["items_per_s"]
    assert (s["head_wins"], s["base_wins"], s["ties"]) == (3, 1, 1)
    assert s["base"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}
    assert s["head"]["median"] == 101.0 and s["head"]["q1"] == 100.0 and s["head"]["q3"] == 110.0


def test_summary_of_one_pair():
    out = bench_pairs.summarize([{"base": {"setup_s": 2.0}, "head": {"setup_s": 2.5}}],
                                {"setup_s": "lower"})
    assert out["setup_s"]["base"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert (out["setup_s"]["head_wins"], out["setup_s"]["base_wins"]) == (0, 1)


def test_refuses_no_pairs():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "HEAD", "--workload", "eval_long", "--pairs", "0",
                          "--seed", "1", "--slug", "x"])


def test_both_sides_run_from_paths_of_one_length(tmp_path):
    """The base's unpacked tree and the checkout's snapshot sit at paths of one
    length; the snapshot holds the checkout's files as they stand and is reused."""
    if not (PATH.parent.parent / ".git").exists():
        pytest.skip("needs a git checkout")
    commit, base_tree = bench_pairs.unpack("HEAD", tmp_path)
    name, head_tree = bench_pairs.snapshot(tmp_path)
    assert len(str(base_tree)) == len(str(head_tree)) and len(name) == len(commit) == 40
    assert (head_tree / "tools" / "bench_pairs.py").read_bytes() == PATH.read_bytes()
    assert (head_tree / "perfbench" / "run.py").is_file()
    assert bench_pairs.snapshot(tmp_path) == (name, head_tree)
