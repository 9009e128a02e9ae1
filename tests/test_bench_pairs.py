import importlib.util
import os
import subprocess

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "scripts", "bench_pairs.py"
)
METRIC = {"name": "cell_s", "better": "lower", "bound": 0.25}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return load_script()


def pairs(parent, change):
    return [
        ({"metrics": {"cell_s": p}}, {"metrics": {"cell_s": c}})
        for p, c in zip(parent, change)
    ]


class TestSummarize:
    def test_gain(self, bench_pairs):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
        change = [0.65, 0.66, 0.64, 0.65, 0.67, 0.63, 0.65, 0.66, 0.64, 1.10]
        got = bench_pairs.summarize(METRIC, pairs(parent, change))
        assert got["pairs"] == 10
        assert got["change_wins"] == 9
        assert got["gain"] is True
        assert got["worse"] is False
        assert got["parent_iqr"] == pytest.approx(got["parent_q3"] - got["parent_q1"])

    def test_worse(self, bench_pairs):
        parent = [1.0, 1.1, 0.9, 1.0]
        change = [1.4, 1.5, 1.3, 1.4]
        got = bench_pairs.summarize(METRIC, pairs(parent, change))
        assert got["change_wins"] == 0
        assert got["gain"] is False
        assert got["worse"] is True

    def test_ties_count_for_neither_side(self, bench_pairs):
        parent = [1.0, 1.0, 1.0, 2.0]
        change = [1.0, 1.0, 1.0, 1.0]
        got = bench_pairs.summarize(METRIC, pairs(parent, change))
        assert got["change_wins"] == 1
        assert got["gain"] is False
        higher = dict(METRIC, better="higher")
        assert bench_pairs.summarize(higher, pairs(change, parent))["change_wins"] == 1

    def test_one_pair_has_no_quartiles(self, bench_pairs):
        runs = pairs([1.0, 2.0], [0.5, 0.5])
        runs[1] = (runs[1][0], {"error": "exit 1"})
        got = bench_pairs.summarize(METRIC, runs)
        assert got["pairs"] == 1
        assert got["change_wins"] == 1
        for key in ("parent_q1", "parent_q3", "parent_iqr", "change_q1", "change_q3"):
            assert got[key] is None
        assert got["gain"] is False
        assert got["worse"] is False

    def test_paired_ratios(self, bench_pairs):
        parent = [2.0, 4.0, 1.0, 0.0, 5.0, 8.0]
        change = [1.0, 5.0, 1.0, 3.0, 4.0, 6.0]
        got = bench_pairs.summarize(METRIC, pairs(parent, change))
        assert got["ratios"] == [0.5, 1.25, 1.0, None, 0.8, 0.75]
        # the median and quartiles of 0.5, 0.75, 0.8, 1.0 and 1.25
        assert got["ratio_median"] == 0.8
        assert got["ratio_q1"] == 0.75
        assert got["ratio_q3"] == 1.0
        one = bench_pairs.summarize(METRIC, pairs([2.0], [3.0]))
        assert one["ratios"] == [1.5]
        assert one["ratio_median"] == 1.5
        assert one["ratio_q1"] is None and one["ratio_q3"] is None

    def test_no_pairs(self, bench_pairs):
        assert bench_pairs.summarize(METRIC, [({"error": "x"}, {"error": "y"})]) == {
            "pairs": 0
        }


def test_import_runs_no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("subprocess started at import")

    monkeypatch.setattr(subprocess, "run", refuse)
    assert callable(load_script().main)


def git_in(root):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=root, check=True, capture_output=True,
        )
    return git


def test_src_lines_of_parent_and_working_tree(bench_pairs, tmp_path):
    repo, parent = tmp_path / "repo", tmp_path / "parent"
    package = repo / "src" / "deepesn"
    package.mkdir(parents=True)
    (package / "a.py").write_text("a\nb\nc\n")
    (package / "b.py").write_text("d\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (repo / "other.py").write_text("not\ncounted\n")
    git = git_in(repo)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "a.py").write_text("a\n")
    (package / "c.py").write_text("e\nf")  # no final newline, as wc -l counts
    parent.mkdir()
    bench_pairs.unpack(str(repo), "HEAD", str(parent))
    assert bench_pairs.src_lines(str(parent)) == 4
    assert bench_pairs.src_lines(str(repo)) == 3


def test_src_lines_by_file_sum_to_src_lines(bench_pairs, tmp_path):
    package = tmp_path / "src" / "deepesn"
    package.mkdir(parents=True)
    (package / "b.py").write_text("a\nb\nc\n")
    (package / "a.py").write_text("e\nf")  # no final newline, as wc -l counts
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "other.py").write_text("not\ncounted\n")
    by_file = bench_pairs.src_lines_by_file(str(tmp_path))
    assert by_file == {"a.py": 1, "b.py": 3}
    assert list(by_file) == ["a.py", "b.py"]
    assert bench_pairs.src_lines(str(tmp_path)) == 4


def test_benchmark_identical(bench_pairs, tmp_path):
    git = git_in(tmp_path)

    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("a\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "other.py").write_text("a\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    root = str(tmp_path)
    assert bench_pairs.benchmark_identical(root, "HEAD")
    (tmp_path / "other.py").write_text("b\n")
    assert bench_pairs.benchmark_identical(root, "HEAD")
    (tmp_path / "perfbench" / "numpy.py").write_text("shadow\n")
    assert not bench_pairs.benchmark_identical(root, "HEAD")
    (tmp_path / "perfbench" / "numpy.py").unlink()
    assert bench_pairs.benchmark_identical(root, "HEAD")
    (tmp_path / "perfbench" / "run.py").write_text("b\n")
    assert not bench_pairs.benchmark_identical(root, "HEAD")
