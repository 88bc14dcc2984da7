"""Tests for the MPS reader/writer."""

import numpy as np
import pytest

from repro.exceptions import LPError
from repro.lp.generators import fig3_example, transportation
from repro.lp.mps import read_mps, write_mps
from repro.lp.scipy_backend import scipy_solve


class TestRoundTrip:
    def test_fig3(self, tmp_path):
        lp = fig3_example()
        path = tmp_path / "fig3.mps"
        write_mps(lp, path)
        back = read_mps(path)
        assert (back.n_rows, back.n_cols) == (lp.n_rows, lp.n_cols)
        expected, _ = scipy_solve(lp)
        actual, _ = scipy_solve(back)
        assert actual == pytest.approx(expected)

    def test_transportation(self, tmp_path):
        lp = transportation(3, 3, seed=2)
        path = tmp_path / "transport.mps"
        write_mps(lp, path)
        back = read_mps(path)
        expected, _ = scipy_solve(lp)
        actual, _ = scipy_solve(back)
        assert actual == pytest.approx(expected)


class TestParsing:
    def test_minimization_negated(self, tmp_path):
        path = tmp_path / "min.mps"
        path.write_text(
            "NAME TEST\n"
            "ROWS\n"
            " N  OBJ\n"
            " L  R1\n"
            "COLUMNS\n"
            "    X1  OBJ  -1.0  R1  1.0\n"
            "RHS\n"
            "    RHS  R1  4.0\n"
            "ENDATA\n"
        )
        lp = read_mps(path)
        # min -x1 == max x1; optimum 4.
        value, _ = scipy_solve(lp)
        assert value == pytest.approx(4.0)

    def test_g_and_e_rows(self, tmp_path):
        path = tmp_path / "ge.mps"
        path.write_text(
            "NAME T\n"
            "OBJSENSE\n"
            "    MAX\n"
            "ROWS\n"
            " N  OBJ\n"
            " G  LOW\n"
            " E  EXACT\n"
            "COLUMNS\n"
            "    X  OBJ  1.0  LOW  1.0\n"
            "    X  EXACT  1.0\n"
            "RHS\n"
            "    RHS  LOW  1.0  EXACT  2.0\n"
            "ENDATA\n"
        )
        lp = read_mps(path)
        value, _ = scipy_solve(lp)
        assert value == pytest.approx(2.0)

    def test_up_bound_becomes_row(self, tmp_path):
        path = tmp_path / "ub.mps"
        path.write_text(
            "NAME T\n"
            "OBJSENSE\n"
            "    MAX\n"
            "ROWS\n"
            " N  OBJ\n"
            "COLUMNS\n"
            "    X  OBJ  1.0\n"
            "BOUNDS\n"
            " UP BND  X  3.5\n"
            "ENDATA\n"
        )
        lp = read_mps(path)
        value, _ = scipy_solve(lp)
        assert value == pytest.approx(3.5)

    def test_ranges_rejected(self, tmp_path):
        path = tmp_path / "ranges.mps"
        path.write_text(
            "NAME T\nROWS\n N OBJ\n L R1\nCOLUMNS\n    X OBJ 1 R1 1\n"
            "RANGES\n    RNG R1 5\nENDATA\n"
        )
        with pytest.raises(LPError):
            read_mps(path)

    def test_free_variable_rejected(self, tmp_path):
        path = tmp_path / "fr.mps"
        path.write_text(
            "NAME T\nROWS\n N OBJ\nCOLUMNS\n    X OBJ 1\n"
            "BOUNDS\n FR BND X\nENDATA\n"
        )
        with pytest.raises(LPError):
            read_mps(path)

    def test_no_objective_rejected(self, tmp_path):
        path = tmp_path / "noobj.mps"
        path.write_text("NAME T\nROWS\n L R1\nENDATA\n")
        with pytest.raises(LPError):
            read_mps(path)


def mps_text(columns: str, rhs: str = "", bounds: str = "") -> str:
    """A file with rows OBJ (N), R1 (L), R2 (G) and FREE (N): the
    COLUMNS section starts on line 7."""
    text = (
        "NAME T\nROWS\n N  OBJ\n L  R1\n G  R2\n N  FREE\nCOLUMNS\n"
        + columns
        + "RHS\n"
        + rhs
    )
    if bounds:
        text += "BOUNDS\n" + bounds
    return text + "ENDATA\n"


class TestLoudErrors:
    """Every line the reader cannot take exactly fails with
    ``<file>:<line>: ...`` instead of being dropped or mis-read."""

    @pytest.mark.parametrize(
        "columns, rhs, bounds, line, message",
        [
            # a COLUMNS entry on a row never declared
            ("    X1  R1  1.0\n    X1  R3  5.0\n", "", "", 9,
             "undeclared row 'R3'"),
            # an RHS entry on a row never declared
            ("    X1  R1  1.0\n", "    RHS  R9  7.0\n", "", 10,
             "undeclared row 'R9'"),
            # a bound on a column never declared
            ("    X1  R1  1.0\n", "", " UP BND  X7  1.0\n", 11,
             "undeclared column 'X7'"),
            # the same (column, row) entry twice
            ("    X1  R1  1.0\n    X2  R2  1.0\n    X1  R1  2.0\n", "", "",
             10, "repeated entry for column 'X1' row 'R1'"),
            # the same RHS entry twice
            ("    X1  R1  1.0\n", "    RHS  R1  1.0  R1  2.0\n", "", 10,
             "repeated RHS for row 'R1'"),
            # numbers that do not parse, or are not finite
            ("    X1  R1  1.x\n", "", "", 8, "'1.x' is not a number"),
            ("    X1  R1  nan\n", "", "", 8, "'nan' is not finite"),
            ("    X1  OBJ  1  R2  -inf\n", "", "", 8, "'-inf' is not finite"),
            ("    X1  R1  1.0\n", "    RHS  R1  inf\n", "", 10,
             "'inf' is not finite"),
            ("    X1  R1  1.0\n", "", " UP BND  X1  1.x\n", 11,
             "'1.x' is not a number"),
            # a token missing
            ("    X1  R1\n", "", "", 8,
             "expected '<column> <row> <value> ...'"),
            ("    X1  R1  1.0\n", "    R1  4.0\n", "", 10,
             "expected '<set> <row> <value> ...'"),
            ("    X1  R1  1.0\n", "", " UP BND  X1\n", 11,
             "UP bound needs a value"),
        ],
    )
    def test_named_line(self, tmp_path, columns, rhs, bounds, line, message):
        path = tmp_path / "bad.mps"
        path.write_text(mps_text(columns, rhs, bounds))
        with pytest.raises(LPError) as caught:
            read_mps(path)
        assert str(caught.value) == f"{path}:{line}: {message}"

    def test_objective_constant_is_not_dropped(self, tmp_path):
        """``max x1 + 5, x1 <= 4`` is 9: read without its constant it
        would solve to 4, so the reader refuses it."""
        path = tmp_path / "offset.mps"
        path.write_text(
            "NAME OFFSET\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n L  R1\n"
            "COLUMNS\n    X1  OBJ  1.0  R1  1.0\n"
            "RHS\n    RHS  OBJ  -5.0  R1  4.0\nENDATA\n"
        )
        with pytest.raises(LPError) as caught:
            read_mps(path)
        assert str(caught.value) == (
            f"{path}:10: RHS on objective row 'OBJ' (an objective constant) "
            "unsupported"
        )

    def test_zero_objective_constant_reads(self, tmp_path):
        path = tmp_path / "zero.mps"
        path.write_text(
            mps_text("    X1  OBJ  1.0  R1  1.0\n", "    RHS  OBJ  0.0  R1  4.0\n")
        )
        lp = read_mps(path)
        assert lp.b.tolist() == [4.0, -0.0]
        assert lp.c.tolist() == [-1.0]

    def test_row_declared_twice(self, tmp_path):
        path = tmp_path / "twice.mps"
        path.write_text(
            "NAME T\nROWS\n N  OBJ\n L  R1\n G  R1\nCOLUMNS\n"
            "    X1  R1  1.0\nENDATA\n"
        )
        with pytest.raises(LPError, match=r"twice.mps:5: row 'R1' declared"):
            read_mps(path)

    def test_free_row_entries_ignored(self, tmp_path):
        path = tmp_path / "free.mps"
        path.write_text(
            mps_text(
                "    X1  OBJ  1.0  FREE  9.0\n    X1  R1  2.0  R2  1.0\n",
                "    RHS  R1  4.0  FREE  3.0\n",
            )
        )
        lp = read_mps(path)
        assert lp.a_matrix.toarray().tolist() == [[2.0], [-1.0]]
        assert lp.b.tolist() == [4.0, -0.0]
        assert lp.c.tolist() == [-1.0]
