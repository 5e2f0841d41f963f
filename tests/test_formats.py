from __future__ import annotations

import io

import pytest
from hypothesis import given

from stabenum.formats import (
    MissingSeparator,
    ParseDiagnostic,
    ParseError,
    format_extension,
    parse_apx,
    parse_tgf,
    write_apx,
    write_extensions,
    write_tgf,
)
from stabenum.framework import UnknownArgument, build

from conftest import DATA_DIR, frameworks, h1_framework, ids


def test_parse_apx_single_line():
    f = parse_apx("arg(a). arg(b). att(a,b).")
    assert f.names == ("a", "b")
    assert f.attacks == ((0, 1),)


def test_parse_apx_h1_file(h1):
    text = (DATA_DIR / "h1.apx").read_text()
    assert parse_apx(text) == h1


def test_parse_apx_undeclared_endpoint():
    with pytest.raises(UnknownArgument) as excinfo:
        parse_apx("att(a,b).")
    assert excinfo.value.line == 1


def test_parse_apx_attack_before_declaration():
    f = parse_apx("att(a,b).\narg(a).\narg(b).\n")
    assert f.attacks == ((0, 1),)


def test_parse_apx_malformed():
    with pytest.raises(ParseError) as excinfo:
        parse_apx("arg(a).\natt(a,b)\n")
    assert excinfo.value.line == 2


def test_parse_apx_rejects_quoted_names():
    with pytest.raises(ParseError):
        parse_apx('arg("a").')


def test_parse_apx_comments_and_blank_lines():
    text = "% header\narg(a).  % trailing\n\narg(b).\natt(a,b).\n"
    f = parse_apx(text)
    assert f.names == ("a", "b")


def test_parse_apx_crlf():
    f = parse_apx("arg(a).\r\narg(b).\r\natt(b,a).\r\n")
    assert f.attacks == ((1, 0),)


def test_parse_apx_duplicate_argument_warns():
    diagnostics = []
    f = parse_apx("arg(a).\narg(a).\n", diagnostics)
    assert f.names == ("a",)
    assert diagnostics == [ParseDiagnostic(2, "duplicate argument 'a'")]


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_apx, "arg(a).\natt(a,b).\natt(c,a).\n", 2),
        (parse_apx, "att(c,a).\narg(a).\natt(a,b).\n", 1),
        (parse_tgf, "1\n#\n1 2\n3 1\n", 3),
    ],
)
def test_first_undeclared_attack_gives_the_line(parse, text, line):
    with pytest.raises(UnknownArgument) as excinfo:
        parse(text)
    assert excinfo.value.line == line


def test_parse_apx_empty_input():
    f = parse_apx("")
    assert f.n == 0


def test_parse_tgf_basic():
    f = parse_tgf("1\n2\n#\n1 2\n")
    assert f.names == ("1", "2")
    assert f.attacks == ((0, 1),)


def test_parse_tgf_h1_matches_apx(h1):
    text = (DATA_DIR / "h1.tgf").read_text()
    f = parse_tgf(text)
    assert f == h1
    assert f == parse_apx((DATA_DIR / "h1.apx").read_text())


def test_parse_tgf_missing_separator():
    with pytest.raises(MissingSeparator):
        parse_tgf("1\n2\n1 2\n")


def test_parse_tgf_node_labels_ignored():
    f = parse_tgf("1 first node\n2 second\n#\n1 2\n")
    assert f.names == ("1", "2")


def test_parse_tgf_bad_edge_arity():
    with pytest.raises(ParseError) as excinfo:
        parse_tgf("1\n2\n#\n1 2 3\n")
    assert excinfo.value.line == 4


def test_parse_tgf_unknown_endpoint():
    with pytest.raises(UnknownArgument) as excinfo:
        parse_tgf("1\n#\n1 2\n")
    assert excinfo.value.line == 3


def test_parse_tgf_duplicate_node_warns():
    diagnostics = []
    f = parse_tgf("1\n2\n1 again\n#\n1 2\n", diagnostics)
    assert f.names == ("1", "2")
    assert diagnostics == [ParseDiagnostic(3, "duplicate argument '1'")]


def test_parse_tgf_syntax_error_wins_over_earlier_undeclared_node():
    # names are resolved only after the whole text was lexed
    with pytest.raises(ParseError) as excinfo:
        parse_tgf("1\n#\n1 2\n1 2 3\n")
    assert excinfo.value.line == 4


def test_write_extensions_h1(h1):
    exts = [tuple(sorted(ids(h1, "acd"))), tuple(sorted(ids(h1, "be")))]
    assert write_extensions(exts, h1.names) == "[a,c,d]\n[b,e]\n"


def test_write_extensions_empty_framework():
    f = build([], [])
    assert write_extensions([()], f.names) == "[]\n"


def test_write_extensions_count():
    assert write_extensions([], ("a",), count=0) == "COUNT 0\n"
    assert write_extensions([], ("a",), count=1) == "COUNT 1\n"


def test_write_extensions_no_for_missing_single():
    assert write_extensions([], ("a",), some=True) == "NO\n"


def test_write_extensions_sink():
    sink = io.StringIO()
    text = write_extensions([(0,)], ("a",), sink)
    assert sink.getvalue() == text == "[a]\n"


def test_format_extension_orders_by_index():
    names = ("b", "a")
    assert format_extension((1, 0), names) == "[b,a]"


def test_h1_round_trip(h1):
    assert parse_apx(write_apx(h1)) == h1
    assert parse_tgf(write_tgf(h1)) == h1


@given(frameworks())
def test_apx_round_trip(f):
    assert parse_apx(write_apx(f)) == f


@given(frameworks())
def test_tgf_round_trip(f):
    assert parse_tgf(write_tgf(f)) == f


@given(frameworks())
def test_cross_format_equality(f):
    assert parse_apx(write_apx(f)) == parse_tgf(write_tgf(f))
