from __future__ import annotations

import inspect
import io
import random
import re
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabenum import formats
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

import reference_apx
from conftest import DATA_DIR, frameworks, h1_framework, ids, traced


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
        (parse_apx, "arg(a).\x0catt(a,b).", 2),
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


@pytest.mark.parametrize(
    "text, message, line",
    [
        # the blank line is skipped, and only the second '#' is an error
        ("1\n\n2\n#\n#\n", "second '#' separator", 5),
        ("a-b\n#\n", "invalid node id 'a-b'", 1),
        ("1\n2\n#\n1 x-y\n", "invalid node id 'x-y'", 4),
    ],
)
def test_parse_tgf_rejects_bad_lines(text, message, line):
    with pytest.raises(ParseError) as excinfo:
        parse_tgf(text)
    assert (excinfo.value.message, excinfo.value.line) == (message, line)


def test_parse_tgf_syntax_error_wins_over_earlier_undeclared_node():
    # names are resolved only after the whole text was lexed
    with pytest.raises(ParseError) as excinfo:
        parse_tgf("1\n#\n1 2\n1 2 3\n")
    assert excinfo.value.line == 4


def test_write_extensions_h1(h1):
    exts = [tuple(sorted(ids(h1, "acd"))), tuple(sorted(ids(h1, "be")))]
    sink = io.StringIO()
    assert write_extensions(exts, h1.names, sink) == "[a,c,d]\n[b,e]\n"
    assert sink.getvalue() == "[a,c,d]\n[b,e]\n"


def test_write_extensions_empty_framework():
    f = build([], [])
    sink = io.StringIO()
    assert write_extensions([()], f.names, sink) == "[]\n"
    assert sink.getvalue() == "[]\n"


def test_write_extensions_sink():
    # the sink is required, and the task lines (COUNT, NO) are the CLI's
    assert list(inspect.signature(write_extensions).parameters) == ["extensions", "names", "sink"]
    sink = io.StringIO()
    text = write_extensions([(0,)], ("a",), sink)
    assert sink.getvalue() == text == "[a]\n"
    assert write_extensions([], ("a",), sink) == ""
    assert sink.getvalue() == "[a]\n"


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


# build accepts any name, but a name outside [A-Za-z0-9_]+ would make either
# writer emit text its parser rejects (arg(a b)., arg()., a second '#' line)
# or, in tgf, reads as another name ('a b' as the node 'a' with a label)
@pytest.mark.parametrize("name", ["a b", "", "#", "a(b)", "a,b", "x.", "a\n", "\xe9", " a"])
@pytest.mark.parametrize("write", [write_apx, write_tgf])
def test_writers_reject_names_their_parsers_reject(write, name):
    f = build(["a", name], [("a", name)])
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write(f)


@given(frameworks())
def test_cross_format_equality(f):
    assert parse_apx(write_apx(f)) == parse_tgf(write_tgf(f))


# ---------------------------------------------------------------- the regex apx lexer
# parse_apx must read every text as the line-by-line lexer it replaced
# (tests/reference_apx.py) does: same names, attacks, diagnostics and errors.

_LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_SPACES = (" ", "\t", "\xa0", "\u3000", "\x1f")
_APX_NAMES = st.sampled_from(["a", "b", "c", "a1", "_x"])
_MALFORMED = (
    "arg(", "att(a,b)", "arg(a%b).", "arg(a) .", "att(a, b).", "arg(\xe9).", 'arg("a").',
    ")", ".", "arg().", "att(a,b,c).", "ARG(a).", "%",
)


@st.composite
def apx_texts(draw):
    """Texts built from facts, comments, every line break and Unicode
    whitespace, with a malformed piece in about a third of them.  In about
    half of them every att endpoint is declared at the end, in a drawn
    order, so att facts that come first parse, and windows that meet a
    name in an att fact before its declaration number it out of order."""
    piece = st.one_of(
        _APX_NAMES.map(lambda a: f"arg({a})."),
        st.tuples(_APX_NAMES, _APX_NAMES).map(lambda ab: f"att({ab[0]},{ab[1]})."),
        st.sampled_from(_LINE_BREAKS),
        st.sampled_from(_SPACES),
        st.text(alphabet="ag(r).,%xyz \t\xa0\u3000\x1f", max_size=12).map(lambda c: "%" + c),
    )
    pieces = draw(st.lists(piece, max_size=24))
    if draw(st.booleans()):
        endpoints = {a for p in pieces if p.startswith("att(") for a in p[4:-2].split(",")}
        pieces.append(draw(st.sampled_from(_LINE_BREAKS)))
        pieces += [f"arg({a})." for a in draw(st.permutations(sorted(endpoints)))]
    if draw(st.integers(0, 2)) == 0:
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_MALFORMED)))
    return "".join(pieces)


def _outcome(parse, text, adjacency=attrgetter("succ", "pred", "self_loop")):
    """What parsing ``text`` gives: the names and attacks of the framework,
    ``adjacency`` of it and the diagnostics, or the exception's type,
    message, line and index."""
    diagnostics = []
    try:
        f = parse(text, diagnostics)
    except (ParseError, UnknownArgument) as exc:
        return type(exc), exc.message, exc.line, getattr(exc, "index", None)
    return (f.names, f.attacks), adjacency(f), diagnostics


def _reference_outcome(text):
    """:func:`_outcome` of the reference parser, its framework's adjacency
    derived item by item."""
    return _outcome(reference_apx.parse_apx, text, reference_apx.adjacency)


@settings(max_examples=400)
@given(apx_texts())
def test_parse_apx_matches_the_line_by_line_reference(text):
    assert _outcome(parse_apx, text) == _reference_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "arg(a%b).",
        "arg(a).\rarg(a).\u2028att(a,b).",
        "arg(a).\x0catt(a,b).",
        "% c\x85arg(a). arg(b).\x1eatt(b,a).\x1fatt(a,c)\u2029",
        "arg(a).\x1farg(a).",
        "arg(a).\u3000\xa0arg(b).\r\n\r\narg(a).",
    ],
)
def test_parse_apx_matches_the_reference_on_line_breaks(text):
    assert _outcome(parse_apx, text) == _reference_outcome(text)


def test_parse_apx_malformed_fact_is_quoted_without_its_comment():
    with pytest.raises(ParseError) as excinfo:
        parse_apx("arg(b).\n  arg(a%b).\n")
    assert excinfo.value.message == "malformed fact near 'arg(a'"
    assert excinfo.value.line == 2


@pytest.mark.parametrize("brk", ["\r", "\u2028"])
def test_parse_apx_duplicate_after_a_lone_line_break(brk):
    diagnostics = []
    f = parse_apx(f"arg(a).{brk}arg(b).{brk}arg(a).", diagnostics)
    assert f.names == ("a", "b")
    assert diagnostics == [ParseDiagnostic(3, "duplicate argument 'a'")]


def test_parse_apx_stops_lexing_at_the_first_malformed_fact():
    # a large file that is not apx fails without a token per character
    text = "x y\n" * 250_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as excinfo:
            parse_apx(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (excinfo.value.line, excinfo.value.message) == (1, "malformed fact near 'x y'")
    assert peak < len(text) // 10


def test_parse_apx_holds_little_beyond_the_framework():
    # ingest keeps no tuple or string per attack: each window's tokens are
    # numbered and freed, so the peak stays near what the framework holds
    rng = random.Random(0)
    n = 5000
    attacks = [f"att(a{rng.randrange(n)},a{rng.randrange(n)}).\n" for _ in range(20_000)]
    rng.shuffle(attacks)
    text = "".join(f"arg(a{i}).\n" for i in range(n)) + "".join(attacks)
    with traced():
        f = parse_apx(text)
        held, peak = tracemalloc.get_traced_memory()
    assert f.n == n
    assert peak < 1.9 * held, (peak, held)


def test_parse_apx_comment_ends_at_a_line_break_that_is_not_lf():
    f = parse_apx("% arg(x).\rarg(a).% arg(y).\u2029arg(b).")
    assert f.names == ("a", "b")


# ---------------------------------------------------------------- the windowed apx lexer
# parse_apx lexes a window of at least formats._WINDOW characters at a time,
# each ending just after a '\n'.  With a window of a few characters, facts,
# comments and errors fall on every side of a window's edge, and the outcome
# must still be the reference's, line numbers included.


def _lexed(text, window):
    """The declared names and the attacks as name pairs that
    ``formats._lex_apx(text)`` numbers with windows of ``window``
    characters, or the :class:`ParseError`'s message and line.  Where a name
    is first met depends on the windows, so its number may too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_WINDOW", window)
        try:
            names, declared, attackers, targets = formats._lex_apx(text)
        except ParseError as exc:
            return exc.message, exc.line
    # each name is numbered once, and every number is used
    assert len(set(names)) == len(names)
    assert set(declared) | set(attackers) | set(targets) == set(range(len(names)))
    return [names[k] for k in declared], [(names[a], names[b]) for a, b in zip(attackers, targets)]


@settings(max_examples=400)
@given(apx_texts(), st.integers(1, 12))
def test_windowed_lexer_matches_the_reference(text, window):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_WINDOW", window)
        assert _outcome(parse_apx, text) == _reference_outcome(text)
    # the names and attacks in their order of declaration, as one window lexes them
    assert _lexed(text, window) == _lexed(text, len(text) + 1)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("arg(a).\r\narg(b).\r\natt(b,a).\r\narg(a).\r\n", id="crlf"),
        # lines that end without a '\n' share a window with the next one
        pytest.param("arg(a).\rarg(b).\n%x\ratt(b,a).\rarg(a).\n", id="cr"),
        pytest.param("arg(a).\u2028arg(b).\n\u2028att(b,a).\u2028arg(a).", id="u2028"),
        pytest.param("arg(a).% arg(x). att(a,y).\narg(b).%c\u2029att(a,b).% d\r\n", id="comments"),
        pytest.param("att(a,b).\natt(b,a).\narg(a).\narg(b).\n", id="attack-first"),
        pytest.param("arg(a).\narg(b).\n\narg(c). att(a,b)\n", id="malformed"),
        pytest.param("arg(a).\rarg(b).\r\narg(a).\narg(b).", id="duplicates"),
        pytest.param("arg(a).\natt(a,a).\n% x\natt(a,b).\n", id="undeclared"),
        # b is met before its declaration, so small windows number the names
        # in another order than the declarations, which the build undoes
        pytest.param("att(b,a).\narg(a).\narg(b).\narg(a).\natt(b,c).\n", id="renumbered-undeclared"),
        pytest.param("att(b,a).\natt(c,b).\narg(a).\narg(c). arg(b).\narg(a).\n", id="renumbered"),
    ],
)
def test_windowed_lexer_at_every_window_edge(text):
    # every window size moves the first edge to every line break in turn
    expected = _reference_outcome(text)
    for window in range(1, len(text) + 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_WINDOW", window)
            assert _outcome(parse_apx, text) == expected, window
        assert _lexed(text, window) == _lexed(text, len(text) + 1), window


def test_windowed_lexer_reports_an_error_past_the_first_window():
    text = "".join(f"arg(a{i}).\n" for i in range(10_000)) + "att(a1,a2)\n"
    assert text.index("att") > formats._WINDOW
    with pytest.raises(ParseError) as excinfo:
        parse_apx(text)
    assert (excinfo.value.line, excinfo.value.message) == (10_001, "malformed fact near 'att(a1,a2)'")
    diagnostics = []
    f = parse_apx(text.replace("att(a1,a2)", "arg(a1). att(a2,a1)."), diagnostics)
    assert diagnostics == [ParseDiagnostic(10_001, "duplicate argument 'a1'")]
    assert f.attacks == ((2, 1),)


def test_parsers_look_build_up_at_call_time(monkeypatch):
    # the benchmark's tracer times framework.build by wrapping formats.build
    calls = []
    original = formats.build

    def counted_build(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(formats, "build", counted_build)
    parse_apx("arg(a).")
    parse_tgf("b\n#\n")
    assert calls == [["a"], ["b"]]


def test_parse_diagnostic_is_a_value():
    diag = ParseDiagnostic(2, "duplicate argument 'a'")
    assert diag == ParseDiagnostic(line=2, message="duplicate argument 'a'")
    assert hash(diag) == hash(ParseDiagnostic(2, "duplicate argument 'a'"))
    assert diag != ParseDiagnostic(3, "duplicate argument 'a'")
    assert diag != ParseDiagnostic(2, "duplicate argument 'b'")
    with pytest.raises(AttributeError):
        diag.line = 3


def test_parse_diagnostic_repr():
    diag = ParseDiagnostic(2, "duplicate argument 'a'")
    assert repr(diag) == "ParseDiagnostic(line=2, message=\"duplicate argument 'a'\")"
