"""The summary that tools/bench_pairs.py writes for its paired runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_of_fixed_pairs():
    """Quartiles per side, wins by each metric's direction, ties for neither, and
    whether a gain holds: the head wins at least 90% of the pairs and its median
    moves past the base's quartile spread in the better direction."""
    rss = [(60.0, 58.0), (61.0, 58.5), (62.0, 62.0), (63.0, 64.0), (64.0, 57.0)]
    rate = [(100.0, 110.0), (100.0, 90.0), (100.0, 100.0), (100.0, 120.0), (100.0, 101.0)]
    # every pair won, and the medians 1.2 and 0.85 lie 0.35 apart, past the base's 0.2
    setup = [(1.0, 0.8), (1.1, 0.9), (1.2, 0.85), (1.3, 0.95), (1.4, 0.7)]
    # every pair won, but the medians lie 5 apart, inside the base's spread of 20
    faults = [(100, 95), (110, 105), (120, 115), (130, 125), (140, 135)]
    better = {"peak_rss_mb": "lower", "items_per_s": "higher", "setup_s": "lower",
              "minor_faults": "lower"}
    pairs = [{side: dict(zip(better, (r[k], i[k], t[k], f[k]))) for k, side in enumerate(
        ("base", "head"))} for r, i, t, f in zip(rss, rate, setup, faults)]
    out = bench_pairs.summarize(pairs, better)
    assert out["peak_rss_mb"] == {
        "better": "lower",
        "base": {"q1": 61.0, "median": 62.0, "q3": 63.0},
        "head": {"q1": 58.0, "median": 58.5, "q3": 62.0},
        "head_wins": 3, "base_wins": 1, "ties": 1, "gain_holds": False}
    s = out["items_per_s"]
    assert (s["head_wins"], s["base_wins"], s["ties"]) == (3, 1, 1)
    assert s["base"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}
    assert s["head"]["median"] == 101.0 and s["head"]["q1"] == 100.0 and s["head"]["q3"] == 110.0
    assert s["gain_holds"] is False
    assert (out["setup_s"]["head_wins"], out["setup_s"]["gain_holds"]) == (5, True)
    assert (out["minor_faults"]["head_wins"], out["minor_faults"]["gain_holds"]) == (5, False)


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
