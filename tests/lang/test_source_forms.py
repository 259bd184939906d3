"""Which ``.qbr`` sources are read from disk and which are parsed.

``verify_qbr``, ``job_from_qbr`` and ``check_qbr`` take program text or
a file.  A :class:`~pathlib.Path` is always a file; a string is a file
only when it ends in ``.qbr`` and holds no newline and no ``;``, so a
program whose trailing comment names a file is still parsed.
"""

from pathlib import Path

import pytest

from repro.lang.borrowck import check_qbr, qbr_path
from repro.lang.surface import job_from_qbr, verify_qbr

#: A program whose text ends in ``.qbr``: it must be parsed, not opened.
MENTIONS_A_FILE = "borrow a; X[a]; X[a]; // copied from adder.qbr"


@pytest.fixture
def program_file(tmp_path) -> Path:
    path = tmp_path / "prog.qbr"
    path.write_text("borrow a;\nX[a];\nX[a];\n")
    return path


class TestQbrPath:
    @pytest.mark.parametrize(
        "source",
        [MENTIONS_A_FILE, "borrow a;\n// adder.qbr", "X[a]; adder.qbr"],
    )
    def test_text_with_a_newline_or_semicolon_is_program_text(self, source):
        assert qbr_path(source) is None

    def test_text_without_the_suffix_is_program_text(self):
        assert qbr_path("for i = 1 to 2 { }") is None

    def test_file_names_and_paths_name_files(self, tmp_path):
        assert qbr_path("missing.qbr") == Path("missing.qbr")
        assert qbr_path(tmp_path / "x.qbr") == tmp_path / "x.qbr"
        assert qbr_path(tmp_path / "no_suffix") == tmp_path / "no_suffix"


class TestVerifyQbr:
    def test_text_ending_in_qbr_is_parsed(self):
        report = verify_qbr(MENTIONS_A_FILE, backend="bdd")
        assert report.all_safe
        assert [v.name for v in report.verdicts] == ["a"]

    def test_missing_file_still_raises(self):
        with pytest.raises(FileNotFoundError):
            verify_qbr("missing.qbr")

    def test_path_and_file_name_are_read(self, program_file):
        for source in (program_file, str(program_file)):
            report = verify_qbr(source, backend="bdd")
            assert [v.name for v in report.verdicts] == ["a"]


class TestJobFromQbr:
    def test_text_ending_in_qbr_is_parsed(self):
        job = job_from_qbr("j", MENTIONS_A_FILE)
        assert [r.wire for r in job.ancilla_requests] == [0]
        assert len(job.circuit.gates) == 2

    def test_path_is_read(self, program_file):
        job = job_from_qbr("j", program_file)
        assert len(job.circuit.gates) == 2


class TestCheckQbr:
    """``check_qbr(str(path))`` reading a file is covered in
    ``test_borrowck.py``."""

    def test_text_ending_in_qbr_is_parsed(self):
        report = check_qbr("borrow q; release q; X[q]; // see prog.qbr")
        assert report.codes() == ["BQ001"]
