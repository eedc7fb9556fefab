"""The A/B tools under tools/: the refusal and the usage text, with no
benchmark run and no suite run."""
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _tool(*argv):
    return subprocess.run([sys.executable, *map(str, argv)], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)


def _checkout(root, files):
    """A tiny source tree: BENCHMARK.json and the given bench/ files."""
    (root / "bench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text("{}\n")
    for name, text in files.items():
        (root / "bench" / name).write_text(text)
    return root


@pytest.mark.parametrize("change_files, differ", [
    ({"run.py": "A = 2\n"}, "bench/run.py"),
    ({"run.py": "A = 1\n", "extra.py": ""}, "bench/extra.py"),
], ids=["content", "one-side-only"])
def test_bench_ab_refuses_sides_whose_bench_differs(tmp_path, change_files,
                                                    differ):
    """Exit 2 naming the one file that differs, before anything runs."""
    parent = _checkout(tmp_path / "parent", {"run.py": "A = 1\n"})
    change = _checkout(tmp_path / "change", change_files)
    proc = _tool(TOOLS / "bench_ab.py", parent, change,
                 "--workload", "euler_products")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the two sides' bench/ or BENCHMARK.json "
                           f"differ: {differ}\n")


def test_tier1_ab_help():
    proc = _tool(TOOLS / "tier1_ab.py", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ") and "--pairs" in proc.stdout


def test_op_ab_refuses_sides_whose_bench_differs(tmp_path):
    """The refusal of bench_ab.py, before any op is timed."""
    parent = _checkout(tmp_path / "parent", {"run.py": "A = 1\n"})
    change = _checkout(tmp_path / "change", {"run.py": "A = 2\n"})
    proc = _tool(TOOLS / "op_ab.py", parent, change,
                 "--workload", "euler_products")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the two sides' bench/ or BENCHMARK.json "
                           "differ: bench/run.py\n")


def test_op_ab_help():
    proc = _tool(TOOLS / "op_ab.py", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ") and "--workload" in proc.stdout
