"""The three text formats: pinned diagnostics and a CLI fuzz for tracebacks.

DIAGNOSTICS pins, for each malformed input, the exception type, the exact
message and the 1-based line the exception carries (None when the fault
has no single line).  A refactor of the readers must keep every message
byte for byte.
"""

import random
from fractions import Fraction

import pytest

from polycomplete.cli import main
from polycomplete.geometry import GeometryFormatError, parse_geometry
from polycomplete.incidence import IncidenceFormatError, parse_incidence
from polycomplete.pulling import CertificateFormatError, parse_certificate

INC = (parse_incidence, IncidenceFormatError)
GEO = (parse_geometry, GeometryFormatError)
CERT = (parse_certificate, CertificateFormatError)
HEADER_DMN = "header must be three integers 'd m n'"
HEADER_DPH = "header must be three integers 'd p h'"

DIAGNOSTICS = [
    # incidence: header
    pytest.param(INC, "2 3\n110\n011\n101\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-2-fields"),
    pytest.param(INC, "2 3 3 1\n110\n011\n101\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-4-fields"),
    pytest.param(INC, "a b c\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-letters"),
    pytest.param(INC, "2 3.0 3\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-decimal"),
    pytest.param(INC, "1" * 5000 + " 0 0\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-5000-digits"),
    pytest.param(INC, "+2 3 3\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-plus"),
    pytest.param(INC, "2 3 １\n", f"line 1: {HEADER_DMN}", 1, id="inc-header-fullwidth"),
    pytest.param(INC, "2 -1 3\n", "line 1: header values must be nonnegative", 1, id="inc-header-negative"),
    pytest.param(INC, "-0 0 -1\n", "line 1: header values must be nonnegative", 1, id="inc-header-negative-last"),
    pytest.param(INC, "\n# 1 1 1\n\n2 -1 3\n", "line 4: header values must be nonnegative", 4, id="inc-header-late"),
    pytest.param(INC, "", "missing header line 'd m n'", None, id="inc-empty"),
    pytest.param(INC, "\n\n", "missing header line 'd m n'", None, id="inc-blank"),
    pytest.param(INC, "# only a comment\n\n", "missing header line 'd m n'", None, id="inc-comment-only"),
    # incidence: comments, CRLF, row counts
    pytest.param(
        INC, "2 3 3\n110\n# between rows\n0x1\n101\n", "line 4: character 'x' outside {0,1}", 4, id="inc-comment-between"
    ),
    pytest.param(INC, "# c\n\n2 3 3\n110\n# c\n011\n", "expected 3 rows, found 2", None, id="inc-comments-too-few"),
    pytest.param(INC, "2 3 3\r\n110\r\n011\r\n1012\r\n", "line 4: row has 4 characters, expected 3", 4, id="inc-crlf-long-row"),
    pytest.param(INC, "2 3 3\r\n110\r\n011\r\n", "expected 3 rows, found 2", None, id="inc-crlf-too-few"),
    pytest.param(INC, "2 3 3\n110\n011\n", "expected 3 rows, found 2", None, id="inc-too-few"),
    pytest.param(INC, "2 1 3\n110\n011\n", "expected 1 rows, found 2", None, id="inc-too-many"),
    pytest.param(INC, "2 2 3\n110\n\n011\n101\n", "expected 2 rows, found 3", None, id="inc-blank-not-a-row"),
    pytest.param(INC, "2 3 3\n110\n0110\n101\n", "line 3: row has 4 characters, expected 3", 3, id="inc-long-row"),
    pytest.param(INC, "2 3 3\n110\n01\n101\n", "line 3: row has 2 characters, expected 3", 3, id="inc-short-row"),
    # incidence: n = 0, whose rows are blank lines
    pytest.param(INC, "0 2 0\n\n", "expected 2 rows, found 1", None, id="inc-n0-too-few"),
    pytest.param(INC, "1 2 0\n", "expected 2 rows, found 0", None, id="inc-n0-none"),
    pytest.param(INC, "1 1 0\n\n1\n", "expected 1 rows, found 2", None, id="inc-n0-surplus-nonblank"),
    pytest.param(INC, "1 1 0\n\n\n1\n", "expected 1 rows, found 3", None, id="inc-n0-surplus-blank"),
    pytest.param(INC, "1 1 0\n1\n", "line 2: row has 1 characters, expected 0", 2, id="inc-n0-wide-row"),
    pytest.param(INC, "1 2 0\n\n# c\n0\n", "line 4: row has 1 characters, expected 0", 4, id="inc-n0-comment-between"),
    # incidence: characters that int(..., 2) would accept or stumble on
    pytest.param(INC, "1 1 3\n1_0\n", "line 2: character '_' outside {0,1}", 2, id="inc-underscore"),
    pytest.param(INC, "1 1 3\n+10\n", "line 2: character '+' outside {0,1}", 2, id="inc-plus-first"),
    pytest.param(INC, "1 1 3\n01+\n", "line 2: character '+' outside {0,1}", 2, id="inc-plus-last"),
    pytest.param(INC, "1 1 3\n-10\n", "line 2: character '-' outside {0,1}", 2, id="inc-minus"),
    pytest.param(INC, "1 1 3\n0b1\n", "line 2: character 'b' outside {0,1}", 2, id="inc-0b-prefix"),
    pytest.param(INC, "1 1 3\n1b0\n", "line 2: character 'b' outside {0,1}", 2, id="inc-0b-reversed"),
    pytest.param(INC, "1 1 3\n１01\n", "line 2: character '１' outside {0,1}", 2, id="inc-fullwidth-first"),
    pytest.param(INC, "1 1 3\n10１\n", "line 2: character '１' outside {0,1}", 2, id="inc-fullwidth-last"),
    pytest.param(INC, "1 1 3\n1 0\n", "line 2: character ' ' outside {0,1}", 2, id="inc-inner-space"),
    pytest.param(INC, "1 1 3\n1\t0\n", "line 2: character '\\t' outside {0,1}", 2, id="inc-inner-tab"),
    pytest.param(INC, "1 1 4\n0x10\n", "line 2: character 'x' outside {0,1}", 2, id="inc-hex"),
    pytest.param(INC, "1 1 3\n102\n", "line 2: character '2' outside {0,1}", 2, id="inc-digit-2"),
    # geometry
    pytest.param(GEO, "", "missing header line 'd p h'", None, id="geo-empty"),
    pytest.param(GEO, "# c\n\n# c\n", "missing header line 'd p h'", None, id="geo-comment-only"),
    pytest.param(GEO, "2 4\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-2-fields"),
    pytest.param(GEO, "2 1 1 1\n0 0\n-1 0 0\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-4-fields"),
    pytest.param(GEO, "x 1 1\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-letter"),
    pytest.param(GEO, "1 1/2 1\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-fraction"),
    pytest.param(GEO, "2 -1 1\n", "line 1: header values must be nonnegative", 1, id="geo-header-negative"),
    pytest.param(GEO, "2 1 1\n0 0\n", "expected 1 point and 1 halfspace lines, found 1", None, id="geo-too-few"),
    pytest.param(GEO, "1 1 1\n0\n1 1\n2 2\n", "expected 1 point and 1 halfspace lines, found 3", None, id="geo-too-many"),
    pytest.param(GEO, "1 2 2\n0\n# between\nx\n-1 0\n1 1\n", "line 4: bad rational 'x'", 4, id="geo-comment-between"),
    pytest.param(GEO, "1 1 1\r\n0\r\n1 1 1\r\n", "line 3: expected 2 rationals, found 3", 3, id="geo-crlf-halfspace"),
    pytest.param(GEO, "1 1 1\r\n0 0\r\n1 1\r\n", "line 2: expected 1 rationals, found 2", 2, id="geo-crlf-point"),
    pytest.param(
        GEO, "2 1 1\n0 0\n0 0 0\n", "line 3: halfspace normal must not be identically zero", 3, id="geo-zero-normal"
    ),
    # geometry: d = 0, whose points are blank lines
    pytest.param(GEO, "0 2 0\n\n", "expected 2 point and 0 halfspace lines, found 1", None, id="geo-d0-too-few"),
    pytest.param(GEO, "0 1 0\n\n\n1\n", "expected 1 point and 0 halfspace lines, found 3", None, id="geo-d0-surplus"),
    pytest.param(GEO, "0 1 0\n1\n", "line 2: expected 0 rationals, found 1", 2, id="geo-d0-wide-point"),
    pytest.param(
        GEO, "0 1 1\n\n1\n", "line 3: halfspace normal must not be identically zero", 3, id="geo-d0-halfspace"
    ),
    pytest.param(GEO, "1 1 1\n1/0\n1 1\n", "line 2: bad rational '1/0'", 2, id="geo-zero-denominator"),
    pytest.param(GEO, "1 1 1\n0\n1e3 1\n", "line 3: bad rational '1e3'", 3, id="geo-exponent"),
    pytest.param(GEO, "1_0 1 1\n0\n1 1\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-underscore"),
    pytest.param(GEO, "+1 1 1\n0\n1 1\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-plus"),
    pytest.param(GEO, "１ 1 1\n0\n1 1\n", f"line 1: {HEADER_DPH}", 1, id="geo-header-fullwidth"),
    pytest.param(GEO, "1 1 1\n1_0\n1 1\n", "line 2: bad rational '1_0'", 2, id="geo-underscore"),
    pytest.param(GEO, "1 1 1\n0\n１ 1\n", "line 3: bad rational '１'", 3, id="geo-fullwidth"),
    pytest.param(GEO, "1 1 1\n0b1\n1 1\n", "line 2: bad rational '0b1'", 2, id="geo-0b-prefix"),
    pytest.param(GEO, "1 1 1\n1/ 2\n1 1\n", "line 2: expected 1 rationals, found 2", 2, id="geo-inner-space"),
    pytest.param(GEO, "1 1 1\n0\n1 --1\n", "line 3: bad rational '--1'", 3, id="geo-double-minus"),
    *(
        pytest.param(GEO, f"1 1 1\n{token}\n1 1\n", f"line 2: bad rational {token!r}", 2, id=f"geo-refused-{token}")
        for token in ("1/-2", "1.5/2", "3/4.0", "0x1", "nan", "inf", "1/2/3", "1.2.3")
        + ("+-1", "-+1", "1/+2", ".", "+", "-", "+.", "/2", "1/", "0/0", "1./2")
    ),
    # certificate: only the line count has no single line to name
    pytest.param(CERT, "", "certificate must be a single line", None, id="cert-empty"),
    pytest.param(CERT, "# c\n\n", "certificate must be a single line", None, id="cert-comment-only"),
    pytest.param(CERT, "EMPTY\nRIDGE 1\n", "certificate must be a single line", None, id="cert-two-lines"),
    pytest.param(CERT, "EMPTY\r\nEMPTY\r\n", "certificate must be a single line", None, id="cert-crlf-two-lines"),
    pytest.param(CERT, "BOGUS 1 2\n", "line 1: unknown certificate 'BOGUS 1 2'", 1, id="cert-unknown"),
    pytest.param(CERT, "EMPTY 1\n", "line 1: unknown certificate 'EMPTY 1'", 1, id="cert-empty-with-data"),
    pytest.param(CERT, "ridge 1\n", "line 1: unknown certificate 'ridge 1'", 1, id="cert-lowercase"),
    pytest.param(CERT, "RIDGE x\n", "line 1: ridge vertices must be integers", 1, id="cert-letter"),
    pytest.param(CERT, "RIDGE 1 1/2\n", "line 1: ridge vertices must be integers", 1, id="cert-fraction"),
    pytest.param(CERT, "RIDGE 3 2\n", "line 1: vertices (3, 2) are not strictly increasing", 1, id="cert-decreasing"),
    pytest.param(CERT, "RIDGE 2 2\n", "line 1: vertices (2, 2) are not strictly increasing", 1, id="cert-repeated"),
    pytest.param(CERT, "# c\n\nRIDGE 2 1\n", "line 3: vertices (2, 1) are not strictly increasing", 3, id="cert-late"),
    pytest.param(CERT, "RIDGE 2 1_0 3\n", "line 1: ridge vertices must be integers", 1, id="cert-underscore"),
    pytest.param(CERT, "RIDGE +2 3\n", "line 1: ridge vertices must be integers", 1, id="cert-plus"),
    pytest.param(CERT, "RIDGE 2 １\n", "line 1: ridge vertices must be integers", 1, id="cert-fullwidth"),
]


@pytest.mark.parametrize("fmt, text, message, line", DIAGNOSTICS)
def test_diagnostic(fmt, text, message, line):
    parse, error = fmt
    with pytest.raises(ValueError) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


# the rational grammar as the geometry reader accepts it: decimals and a
# leading sign are taken besides integers and num/den
ACCEPTED_RATIONALS = [
    ("0.5", Fraction(1, 2)),
    (".5", Fraction(1, 2)),
    ("-.5", Fraction(-1, 2)),
    ("5.", Fraction(5)),
    ("+1", Fraction(1)),
    ("+1/2", Fraction(1, 2)),
    ("-1/2", Fraction(-1, 2)),
    ("-0", Fraction(0)),
    ("00012", Fraction(12)),
    ("1/002", Fraction(1, 2)),
    ("+.5", Fraction(1, 2)),
    ("-5.", Fraction(-5)),
    ("+0/3", Fraction(0)),
    ("007/008", Fraction(7, 8)),
]


@pytest.mark.parametrize("token, value", ACCEPTED_RATIONALS)
def test_rational_accepted(token, value):
    assert parse_geometry(f"1 1 1\n{token}\n1 1\n").points == ((value,),)


FUZZ_PIECES = ("0", "1", "#", "/", "-", "e", "_", ".", "RIDGE", "EMPTY", "1/0", " ", "\t", "\n", "\r\n")


def fuzz_texts(count, seed):
    """Random short texts over the formats' tokens, half behind a valid header."""
    rng = random.Random(seed)
    for _ in range(count):
        text = "".join(rng.choices(FUZZ_PIECES, k=rng.randint(0, 40)))
        if rng.random() < 0.5:
            text = f"{rng.randint(0, 3)} {rng.randint(0, 4)} {rng.randint(0, 4)}\n{text}"
        yield text


def test_cli_fuzz_never_raises(tmp_path, capsys):
    triangle = tmp_path / "triangle.inc"
    triangle.write_text("2 3 3\n110\n011\n101\n")
    path = tmp_path / "fuzz.txt"
    commands = (
        ["check", str(path)],
        ["certify", str(path)],
        ["extract", "--force", str(path)],
        ["verify", str(triangle), str(path)],
    )
    codes = set()
    for text in fuzz_texts(2000, seed=8):
        path.write_text(text, encoding="utf-8", newline="")
        for argv in commands:
            code = main(argv)
            assert code in (0, 1, 2), (argv, text)
            codes.add(code)
        capsys.readouterr()
    assert {1, 2} <= codes  # some texts get past the parsers
