"""Text formats for graphs and weight vectors.

Files are UTF-8, read unbuffered to EOF in one call (a pipe too), and one
leading byte-order mark is dropped.  Lines end at ``\\n``, ``\\r\\n`` or
``\\r``.  Graph files: first line ``digraph <n>`` or ``graph <n>``; each
following non-empty line is one arc/edge ``u v`` (0-based); ``#`` starts
a comment.  Arcs are ordered u->v, edges unordered.

Weight files hold one rational per line: ``p/q``, an integer, or a
decimal; the count must match the graph order, no weight may exceed 1,
and the sum must be exactly 1.  A token of ASCII digits, ``p/q`` or a
plain integer, is read with int() and put in lowest terms with one gcd;
any other token (a decimal, an exponent, a sign, underscores, Unicode
digits) goes through parse_rational and Fraction.  The parser keeps D,
the least common denominator so far, and builds WeightVector(D, p) from
the numerators p = D w.
Bad input raises ParseError, a ValueError whose message is
``path:line: message`` and which keeps no other field.
Reports print values of degree <= 4 in the weights, at most 1 in
magnitude, whose denominators divide 96 D^4: a D of more than
MAX_DENOMINATOR_DIGITS digits is rejected, as Python could not print them.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .graphs import OrientedGraph, UndirectedGraph
from .lagrangian import WeightVector


class ParseError(ValueError):
    """A bad input line; the message alone carries the path and line number."""

    def __init__(self, path: str, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")


def _lines(text: str) -> list[str]:
    r"""text split at \n, \r\n and \r only, not at the \x0c, \x85, ... of str.splitlines."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(text: str):
    for i, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_graph_text(text: str, path: str):
    """Parse graph text into an OrientedGraph or UndirectedGraph."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(path, 1, "empty graph file")
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("digraph", "graph"):
        raise ParseError(path, line_no, f"expected 'digraph <n>' or 'graph <n>', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(path, line_no, f"bad vertex count {parts[1]!r}") from None
    if n < 0:
        raise ParseError(path, line_no, "vertex count must be nonnegative")
    directed = parts[0] == "digraph"

    pairs = []
    seen = set()
    for line_no, line in lines[1:]:
        tok = line.split()
        if len(tok) != 2:
            raise ParseError(path, line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise ParseError(path, line_no, f"non-integer endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(path, line_no, f"endpoint out of range 0..{n - 1}")
        if u == v:
            raise ParseError(path, line_no, f"self-loop at {u}")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(path, line_no, f"duplicate {'arc' if directed else 'edge'} {u} {v}")
        if directed and (v, u) in seen:
            raise ParseError(path, line_no, f"antiparallel pair {u}<->{v}: not an orientation")
        seen.add(key)
        pairs.append((u, v))
    if directed:
        return OrientedGraph(n, pairs)
    return UndirectedGraph(n, pairs)


def _read_text(path: str) -> str:
    with open(path, "rb", buffering=0) as fh:  # readall() reads to EOF, from a pipe too
        data = fh.readall().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_lines(data[:exc.start].decode("utf-8")))  # the bytes before exc.start decode
        raise ParseError(path, line_no, f"not UTF-8 text (byte {data[exc.start]:#04x})") from None


def parse_graph(path: str):
    return parse_graph_text(_read_text(path), path=path)


MAX_DENOMINATOR_DIGITS = (sys.int_info.default_max_str_digits - 4) // 4  # 96 D^4 < 10^4300
_DENOMINATOR_LIMIT = 10**MAX_DENOMINATOR_DIGITS  # the least D with too many digits
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(token: str) -> Fraction:
    """p/q, integer, or decimal literal, parsed exactly.

    A decimal exponent beyond sys.int_info.default_max_str_digits in
    magnitude raises OverflowError before Fraction builds 10^exponent: no
    such weight could be printed in a report.
    """
    match = _EXPONENT.search(token)
    limit = sys.int_info.default_max_str_digits
    if match and abs(int(match.group(1))) > limit:
        raise OverflowError(f"decimal exponent of {token!r} is beyond +-{limit}")
    return Fraction(token)


def _ascii_digits(token: str) -> bool:
    return token.isascii() and token.isdigit()


def parse_weights_text(text: str, expected_n: int, path: str) -> WeightVector:
    """The weights of ``text`` as a WeightVector, built from (d, p).

    A token of ASCII digits, ``p/q`` or a plain integer, is read with int()
    and reduced with one gcd, with no Fraction; any other token goes
    through parse_rational.  A zero denominator is a bad rational either way.
    """
    nums = []  # each weight in lowest terms, a / b
    dens = []
    line_nos = []
    denominator = 1
    too_big = None
    for line_no, line in _content_lines(text):
        a, slash, b = line.partition("/")
        if _ascii_digits(a) and (not slash or _ascii_digits(b)):
            try:
                a, b = int(a), (int(b) if slash else 1)  # int() refuses more than 4300 digits
            except ValueError:
                raise ParseError(path, line_no, f"bad rational {line!r}") from None
            if b == 0:
                raise ParseError(path, line_no, f"bad rational {line!r}")
            if slash:
                g = gcd(a, b)
                a, b = a // g, b // g
        else:
            try:
                w = parse_rational(line)
            except OverflowError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            except (ValueError, ZeroDivisionError):
                raise ParseError(path, line_no, f"bad rational {line!r}") from None
            a, b = w.numerator, w.denominator
            if a < 0:  # a Fraction's denominator is positive
                raise ParseError(path, line_no, f"negative weight {line!r}")
        denominator = lcm(denominator, b)
        if denominator >= _DENOMINATOR_LIMIT:
            raise ParseError(path, line_no, "common denominator of the weights so far has more than "
                             f"{MAX_DENOMINATOR_DIGITS} digits: their Lagrangians could not be printed")
        if a > b and too_big is None:
            too_big = ParseError(path, line_no, f"weight {line!r} exceeds 1")
        nums.append(a)
        dens.append(b)
        line_nos.append(line_no)
    # raised after the loop: a later negative weight is the cause, and is cited instead;
    # raised before the sum check, whose message could have too many digits to print
    if too_big is not None:
        raise too_big
    last = line_nos[-1] if line_nos else 1
    if len(nums) != expected_n:
        # cite the first surplus weight, or the last one when weights are missing
        line_no = line_nos[expected_n] if len(nums) > expected_n else last
        raise ParseError(path, line_no, f"expected {expected_n} weights, got {len(nums)}")
    try:
        return WeightVector(denominator, [a * (denominator // b) for a, b in zip(nums, dens)])
    except ValueError as exc:  # empty, or the sum is not 1
        raise ParseError(path, last, str(exc)) from None


def parse_weights(path: str, expected_n: int) -> WeightVector:
    return parse_weights_text(_read_text(path), expected_n=expected_n, path=path)
