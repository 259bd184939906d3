"""Which ``.qbr`` sources are read from disk and which are parsed.

``verify_qbr``, ``job_from_qbr`` and ``check_qbr`` take program text or
a file.  A :class:`~pathlib.Path` is always a file; a string is a file
only when it ends in ``.qbr`` and holds no newline and no ``;``, so a
program whose trailing comment names a file is still parsed.
"""

from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.lang.borrowck import check_qbr, qbr_path, read_qbr
from repro.lang.surface import job_from_qbr, verify_qbr
from repro.lang.surface.elaborate import elaborate_file

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


class TestFileEncoding:
    """A ``.qbr`` file is UTF-8.  A byte that is not fails as a
    :class:`ParseError` (a ``PARSE`` diagnostic from ``check_qbr``) at
    its line and column, never as ``UnicodeDecodeError``."""

    #: A Latin-1 ``é`` (0xE9) in a comment: line 2, seventh character.
    LATIN1 = b"borrow a;\n// caf\xe9\nX[a];\nX[a];\n"

    @pytest.fixture
    def latin1_file(self, tmp_path) -> Path:
        path = tmp_path / "latin1.qbr"
        path.write_bytes(self.LATIN1)
        return path

    def test_check_qbr_reports_the_byte(self, latin1_file):
        for source in (latin1_file, str(latin1_file)):
            report = check_qbr(source)
            assert report.codes() == ["PARSE"]
            (diagnostic,) = report
            assert (diagnostic.span.line, diagnostic.span.column) == (2, 7)
            assert "byte 0xE9 is not UTF-8" in diagnostic.message
            assert f"--> {latin1_file}:2:7" in report.render()

    @pytest.mark.parametrize(
        "read",
        [verify_qbr, elaborate_file, lambda path: job_from_qbr("j", path)],
        ids=["verify_qbr", "elaborate_file", "job_from_qbr"],
    )
    def test_readers_raise_parse_error(self, latin1_file, read):
        with pytest.raises(ParseError) as excinfo:
            read(latin1_file)
        assert (excinfo.value.line, excinfo.value.column) == (2, 7)

    def test_column_counts_characters(self, tmp_path):
        path = tmp_path / "wide.qbr"
        path.write_bytes("borrow a; // ½ ".encode() + b"\xff")
        with pytest.raises(ParseError) as excinfo:
            read_qbr(path)
        assert (excinfo.value.line, excinfo.value.column) == (1, 16)

    def test_line_breaks_read_as_newlines(self, tmp_path):
        path = tmp_path / "crlf.qbr"
        path.write_bytes(b"borrow a;\r\nX[a];\rX[a];\n")
        assert read_qbr(path) == "borrow a;\nX[a];\nX[a];\n"
        assert len(elaborate_file(path).circuit.gates) == 2
