import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilag.fileio import ParseError, _content_lines, parse_graph, parse_graph_text, parse_weights, parse_weights_text
from trilag.graphs import OrientedGraph, UndirectedGraph
from trilag.lagrangian import WeightVector

from helpers import parse_weights_oracle


def test_parse_digraph():
    g = parse_graph_text("digraph 3\n0 1\n2 1\n", "g.txt")
    assert (type(g), g.n, g.arcs) == (OrientedGraph, 3, {(0, 1), (2, 1)})


def test_parse_graph_undirected():
    g = parse_graph_text("graph 2\n0 1\n", "g.txt")
    assert (type(g), g.n, g.edges) == (UndirectedGraph, 2, {(0, 1)})


def test_parse_rejects_antiparallel():
    with pytest.raises(ParseError, match="not an orientation"):
        parse_graph_text("digraph 2\n0 1\n1 0\n", "g.txt")


def test_parse_comments_and_blank_lines():
    text = "# a comment\ndigraph 4\n\n0 1  # trailing comment\n# another\n2 3\n"
    g = parse_graph_text(text, "g.txt")
    assert (type(g), g.n, g.arcs) == (OrientedGraph, 4, {(0, 1), (2, 3)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=":1:"):
        parse_graph_text("trigraph 3\n0 1\n", "g.txt")
    with pytest.raises(ParseError, match=":3:"):
        parse_graph_text("digraph 3\n0 1\n0 1 2\n", "g.txt")
    with pytest.raises(ParseError, match=":3:"):
        parse_graph_text("digraph 3\n0 1\n0 x\n", "g.txt")
    with pytest.raises(ParseError, match="out of range"):
        parse_graph_text("digraph 3\n0 5\n", "g.txt")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph_text("digraph 3\n0 1\n0 1\n", "g.txt")
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph_text("graph 3\n1 1\n", "g.txt")
    with pytest.raises(ParseError, match="empty"):
        parse_graph_text("# nothing here\n", "g.txt")


def test_parse_weights_formats():
    w = parse_weights_text("1/2\n0.25\n1/4\n", 3, "w.txt")
    assert w.entries == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    w = parse_weights_text("1\n0\n0\n", expected_n=3, path="w.txt")
    assert w.entries == (1, 0, 0)


def test_parse_weights_errors():
    with pytest.raises(ParseError, match="bad rational"):
        parse_weights_text("1/2\nhalf\n", 2, "w.txt")
    with pytest.raises(ParseError, match="expected 3 weights"):
        parse_weights_text("1/2\n1/2\n", expected_n=3, path="w.txt")
    with pytest.raises(ParseError, match="sum to 3/4"):
        parse_weights_text("1/2\n1/4\n", 2, "w.txt")
    with pytest.raises(ParseError, match="negative weight"):
        parse_weights_text("3/2\n-1/2\n", 2, "w.txt")


def test_parse_weights_errors_carry_line_numbers():
    # the sum is checked at the last weight line
    with pytest.raises(ParseError, match="^w.txt:4: weights sum to 3/4"):
        parse_weights_text("1/2\n\n# note\n1/4\n", 2, path="w.txt")
    with pytest.raises(ParseError, match="^w.txt:2: negative weight"):
        parse_weights_text("3/2\n-1/2\n", 2, path="w.txt")
    # too few: the last weight line; too many: the first surplus line
    with pytest.raises(ParseError, match="^w.txt:2: expected 3 weights, got 2"):
        parse_weights_text("1/2\n1/2\n", expected_n=3, path="w.txt")
    with pytest.raises(ParseError, match="^w.txt:3: expected 2 weights, got 3"):
        parse_weights_text("1/2\n1/2\n0\n", expected_n=2, path="w.txt")
    with pytest.raises(ParseError, match="^w.txt:1: expected 2 weights, got 0"):
        parse_weights_text("", expected_n=2, path="w.txt")
    with pytest.raises(ParseError, match="^w.txt:1: weight vector must be nonempty"):
        parse_weights_text("# none\n", 0, path="w.txt")


def test_parse_weights_rejects_huge_exponents():
    # Fraction would build 10^(10^8) for the first: minutes of work, not an error
    with pytest.raises(ParseError, match=r"^w.txt:2: decimal exponent of '1e-100000000' is beyond"):
        parse_weights_text("1\n1e-100000000\n", 2, path="w.txt")
    with pytest.raises(ParseError, match=r"^w.txt:1: decimal exponent of '1e100000' is beyond"):
        parse_weights_text("1e100000\n", 1, path="w.txt")
    with pytest.raises(ParseError, match="beyond"):
        parse_weights_text("1E+99999\n", 1, "w.txt")
    w = parse_weights_text("25e-2\n0.0025E+2\n5e-1\n", 3, "w.txt")
    assert w.entries == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_parse_weights_rejects_weights_above_one():
    # the sum of the first would have 4301 digits, too many to print in its message
    with pytest.raises(ParseError, match=r"^w.txt:1: weight '1e4300' exceeds 1$"):
        parse_weights_text("1e4300\n0\n", 2, path="w.txt")
    with pytest.raises(ParseError, match=r"^w.txt:3: weight '3/2' exceeds 1$"):
        parse_weights_text("# note\n0\n3/2\n2\n", 3, path="w.txt")
    # a negative weight is the cause of any weight above 1 in a sum of 1: it is cited
    with pytest.raises(ParseError, match="^w.txt:2: negative weight"):
        parse_weights_text("3/2\n-1/2\n", 2, path="w.txt")
    assert parse_weights_text("1\n0\n", 2, "w.txt").entries == (1, 0)


def test_parse_weights_bounds_are_inclusive():
    """0 and 1 are weights, however written; the least step past either is not."""
    assert parse_weights_text("-0\n0/7\n4/4\n", 3, "w.txt").entries == (0, 0, 1)
    assert parse_weights_text("1.000\n-0.0\n", 2, "w.txt").entries == (1, 0)
    with pytest.raises(ParseError, match="^w.txt:1: negative weight '-1e-1072'$"):
        parse_weights_text("-1e-1072\n1\n", 2, path="w.txt")
    with pytest.raises(ParseError, match=r"^w.txt:1: weight '1.000000001' exceeds 1$"):
        parse_weights_text("1.000000001\n0\n", 2, path="w.txt")
    with pytest.raises(ParseError, match=r"^w.txt:2: weight '1000001/1000000' exceeds 1$"):
        parse_weights_text("0\n1000001/1000000\n", 2, path="w.txt")


def test_parse_weights_rejects_denominators_too_long_to_print():
    # 1074 digits is the most for which 96 D^4, the report values' denominator bound, prints
    limit = "^w.txt:{}: common denominator of the weights so far has more than 1074 digits"
    w = parse_weights_text("1e-1073\n0." + "9" * 1073 + "\n", 2, "w.txt")
    assert w.entries[0] == Fraction(1, 10**1073)
    with pytest.raises(ParseError, match=limit.format(1)):
        parse_weights_text("1e-1074\n0." + "9" * 1074 + "\n", 2, path="w.txt")
    # two coprime denominators of 600 digits each: the line that crosses is cited
    with pytest.raises(ParseError, match=limit.format(3)):
        parse_weights_text(f"# two halves\n1/{2**1993}\n1/{3**1257}\n", 2, path="w.txt")


def test_parse_files_reject_non_utf8(tmp_path):
    w = tmp_path / "w.txt"
    w.write_bytes(b"1/2\n\xff\n")
    with pytest.raises(ParseError, match=f"^{w}:2: not UTF-8"):
        parse_weights(str(w), 2)
    g = tmp_path / "g.txt"
    g.write_bytes(b"\xfe digraph 2\n")
    with pytest.raises(ParseError, match=f"^{g}:1: not UTF-8"):
        parse_graph(str(g))
    # \r and \r\n end lines there too; a form feed in a comment does not
    g.write_bytes(b"digraph 3\r# a\x0cb\r\n0 1\r\xfe\r")
    with pytest.raises(ParseError, match=f"^{g}:4: not UTF-8"):
        parse_graph(str(g))


def test_parse_files_skip_a_utf8_byte_order_mark(tmp_path):
    """A leading UTF-8 byte-order mark is dropped; a bad byte after it keeps its line and value."""
    bom = b"\xef\xbb\xbf"
    for eol in (b"\n", b"\r\n"):
        graph = eol.join([b"digraph 3", b"# a cherry", b"0 2", b"1 2", b""])
        weights = eol.join([b"1/4", b"1/4", b"1/2", b""])
        paths = {}
        for name, data in (("g", graph), ("w", weights), ("bom_g", bom + graph), ("bom_w", bom + weights)):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_bytes(data)
        for name in ("g", "bom_g"):
            g = parse_graph(str(paths[name]))
            assert (type(g), g.n, g.arcs) == (OrientedGraph, 3, {(0, 2), (1, 2)})
        for name in ("w", "bom_w"):
            w = parse_weights(str(paths[name]), 3)
            assert (w.denominator, w.numerators) == (4, (1, 1, 2))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(bom + b"1/2\n# note\n\xfe\n")
    with pytest.raises(ParseError, match=f"^{bad}:3: not UTF-8 text \\(byte 0xfe\\)$"):
        parse_weights(str(bad), 1)
    bad.write_bytes(bom + b"digraph 2\r\n0 1\r\n\xe9\r\n")
    with pytest.raises(ParseError, match=f"^{bad}:3: not UTF-8 text \\(byte 0xe9\\)$"):
        parse_graph(str(bad))
    # only one mark is dropped: a second one is text, and no header
    bad.write_bytes(bom + bom + b"digraph 2\n")
    with pytest.raises(ParseError, match=f"^{bad}:1: expected 'digraph <n>'"):
        parse_graph(str(bad))


# every character other than \n and \r at which str.splitlines breaks a line
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("brk", SPLITLINES_BREAKS)
def test_lines_end_only_at_line_feeds_and_carriage_returns(tmp_path, brk, eol):
    """A comment may hold a character at which str.splitlines breaks; it stays
    a comment, and the lines after it keep their numbers."""
    graph = eol.join(["digraph 3", f"# note{brk}(see page 2)", "0 1", f"1 2  # {brk}2 0", ""])
    assert parse_graph_text(graph, "g.txt").arcs == {(0, 1), (1, 2)}
    bad = eol.join(["digraph 3", f"# note{brk}(see page 2)", "0 1", "0 5", ""])
    with pytest.raises(ParseError, match="^g.txt:4: endpoint out of range"):
        parse_graph_text(bad, path="g.txt")
    weights = eol.join([f"1/2 # half{brk}note", "1/2", ""])
    w = parse_weights_text(weights, expected_n=2, path="w.txt")
    assert (w.denominator, w.numerators) == (2, (1, 1))
    with pytest.raises(ParseError, match="^w.txt:3: bad rational 'x'$"):
        parse_weights_text(eol.join([f"1/2 # half{brk}note", "1/2", "x"]), 3, path="w.txt")
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_bytes(graph.encode())
    w.write_bytes(weights.encode())
    assert parse_graph(str(g)).n == 3 and parse_weights(str(w), 2).numerators == (1, 1)


LINES = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"\A[-+]?[0-9]*\.?[0-9]*[eE][-+]?[0-9]{1,10}\Z"),  # exponent tokens
    st.from_regex(r"\A[-+]?[0-9]{1,3}(/[0-9]{1,3})?\Z"),
    st.builds("{} {}".format, st.integers(-2, 9), st.integers(-2, 9)),
    st.builds("{} {}".format, st.sampled_from(["digraph", "graph"]), st.integers(-1, 9)),
    st.sampled_from(["", "# note", "1/2", "1/0", "0.25"]),
)
TEXTS = st.lists(LINES, max_size=8).map("\n".join)


def _assert_line_in_text(exc: ParseError, text: str) -> None:
    # the message starts "f.txt:<line>: "; lines end at \n, \r\n or \r only, unlike str.splitlines
    cited = re.match(r"f\.txt:([0-9]+): ", str(exc))
    assert cited and 1 <= int(cited[1]) <= len(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(TEXTS)
def test_fuzz_parse_graph_text(text):
    try:
        g = parse_graph_text(text, path="f.txt")
    except ParseError as exc:
        _assert_line_in_text(exc, text)
    else:
        assert isinstance(g, (OrientedGraph, UndirectedGraph))


def _count(text: str, expected_n: int | None) -> int:
    """expected_n, or when it is None the number of weight lines in text, so
    that the checks after the count's are reached too."""
    return len(list(_content_lines(text))) if expected_n is None else expected_n


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(TEXTS, st.one_of(st.none(), st.integers(0, 4)))
def test_fuzz_parse_weights_text(text, expected_n):
    expected_n = _count(text, expected_n)
    try:
        w = parse_weights_text(text, expected_n=expected_n, path="f.txt")
    except ParseError as exc:
        _assert_line_in_text(exc, text)
    else:
        assert isinstance(w, WeightVector) and sum(w.entries) == 1
        assert len(w.numerators) == expected_n


ASCII_DIGITS = st.text("0123456789", min_size=1, max_size=4)
TOKENS = st.one_of(
    ASCII_DIGITS,  # plain integers, leading zeros and values above 1 included
    st.builds("{}/{}".format, ASCII_DIGITS, ASCII_DIGITS),  # p/q, with p/0, 0/0 and p > q
    st.from_regex(r"\A[-+]?[0-9_]{1,4}(/[-+]?[0-9_]{1,4})?\Z"),  # signs and underscores
    st.from_regex(r"\A[-+]?[0-9]{0,3}\.?[0-9]{0,3}([eE][-+]?[0-9]{1,3})?\Z"),  # decimals and exponents
    st.text(st.characters(categories=["Nd", "No"]), min_size=1, max_size=3),  # Unicode digits
    st.sampled_from([
        "0/0", "1/0", "000/0", "0/007", "0001/0004", "1_0/2_0", "+1/4", "-1/4", "-0", "+0",
        "١/٢", "²/3", "1" + "0" * 4300, "9" * 4301, "1/" + "9" * 4301, "9" * 4301 + "/1",
        "0.25", ".5", "2.", "25e-2", "1E0", "3/2", "2", "1e-100000000", "1 / 2", "/2", "1/", "1/2/3",
    ]),
)


@st.composite
def exact_vectors(draw):
    """A vector of weights that sums to 1, each written as an unreduced p/q, a
    plain integer or a token of TOKENS' families, with comments and blank lines."""
    parts = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6).filter(any))
    total = sum(parts)
    lines = []
    for a in parts:
        k = draw(st.integers(1, 12))
        zeros = "0" * draw(st.integers(0, 2))
        form = draw(st.sampled_from(["p/q", "int", "decimal", "underscore"]))
        if form == "int" and a in (0, total):
            lines.append(zeros + str(a // total))
        elif form == "decimal" and 10**6 * a % total == 0:
            lines.append(f"{a / total:.6f}")
        elif form == "underscore":
            lines.append(f"{k * a}_0/{k * total}_0")
        else:
            lines.append(f"{zeros}{k * a}/{zeros}{k * total}")
        lines.extend(draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=1)))
    return "\n".join(lines) + "\n"


def _weights_outcome(parse, text, expected_n):
    try:
        w = parse(text, expected_n=_count(text, expected_n), path="w.txt")
    except ParseError as exc:
        return "error", str(exc)
    assert type(w.denominator) is int and all(type(v) is int for v in w.numerators)
    return w.denominator, w.numerators


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(TOKENS, max_size=6).map("\n".join), exact_vectors()),
       st.one_of(st.none(), st.integers(0, 6)))
def test_integer_weight_path_matches_the_fraction_oracle(text, expected_n):
    """(d, p), or the ParseError text with its line, equal the per-line Fraction parser's."""
    assert _weights_outcome(parse_weights_text, text, expected_n) == \
        _weights_outcome(parse_weights_oracle, text, expected_n)


def test_integer_weight_path_pinned_tokens():
    """The int() path and the Fraction path agree on each edge of the fast-path test."""
    vectors = {
        "0002/0008\n3/4\n": (4, (1, 3)),
        "1_0/40\n0.25\n25e-2\n2/8\n": (4, (1, 1, 1, 1)),
        "0\n1\n": (1, (0, 1)),
        "00/5\n5/5\n": (1, (0, 1)),
        "١/٢\n1/2\n": (2, (1, 1)),  # Fraction and int() read Unicode decimal digits
        f"{10**1080}/{2 * 10**1080}\n1/2\n": (2, (1, 1)),  # reduced before the digit limit
    }
    for text, expected in vectors.items():
        assert _weights_outcome(parse_weights_text, text, None) == expected
        assert _weights_outcome(parse_weights_oracle, text, None) == expected
    errors = {
        "1/0\n1\n": "w.txt:1: bad rational '1/0'",
        "1\n0/0\n": "w.txt:2: bad rational '0/0'",
        "1" + "0" * 4300 + "\n": "w.txt:1: bad rational '1" + "0" * 4300 + "'",
        "²/3\n1/2\n": "w.txt:1: bad rational '²/3'",
        "2\n-1\n": "w.txt:2: negative weight '-1'",
        "5/4\n-1/4\n": "w.txt:2: negative weight '-1/4'",
        "5/4\n0\n": "w.txt:1: weight '5/4' exceeds 1",
    }
    for text, message in errors.items():
        oracle = _weights_outcome(parse_weights_oracle, text, None)
        assert _weights_outcome(parse_weights_text, text, None) == oracle
        assert oracle == ("error", message)
