"""What the benchmark under bench/ reads from the program.

bench/ calls enumerate_spectrum with the word length passed
positionally, reads LengthSpectrum.entries, parses the status line of
`spectrum bolza`, and reads spectrum files with its own parser in
bench/reference.py.  These tests keep those readings working; they
change nothing under bench/.
"""
import importlib.util
import pathlib
import re

import pytest

from selbergfe import cli
from selbergfe.geodesics import (bolza_group, enumerate_spectrum,
                                 save_spectrum)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
# the pattern bench/workloads.py reads the status line with
WROTE = re.compile(r"wrote (\d+) length entries \((\d+) classes\)")


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("bench_reference",
                                                  BENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spectrum5():
    return enumerate_spectrum(bolza_group(), 5)


def test_entries_are_float_int_pairs_of_the_rows(spectrum5):
    entries = spectrum5.entries
    assert isinstance(entries, tuple)
    assert all(type(ell) is float and type(m) is int for ell, m in entries)
    assert entries == tuple(zip(spectrum5.lengths.tolist(),
                                spectrum5.mults.tolist()))


def test_status_line_counts_rows_and_classes(capsys, spectrum5, tmp_path):
    spath = tmp_path / "sp.txt"
    assert cli.main(["spectrum", "bolza", "--max-word-len", "5",
                     "--out", str(spath)]) == 0
    wrote = WROTE.search(capsys.readouterr().out)
    assert wrote and (int(wrote[1]), int(wrote[2])) == \
        (spectrum5.lengths.size, sum(m for _, m in spectrum5.entries))


def test_reference_reads_the_saved_entries(reference, spectrum5, tmp_path):
    path = str(tmp_path / "sp.txt")
    save_spectrum(spectrum5, path)
    read = reference.read_spectrum(path)
    assert tuple(read["entries"]) == spectrum5.entries
    assert float(read["headers"]["horizon"]) == spectrum5.horizon
