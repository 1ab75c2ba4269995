"""Parser for the concrete term syntax.

Grammar: identifiers [A-Za-z_][A-Za-z0-9_']*, abstraction `\\x.` or the
unicode lambda with multi-binder sugar (`\\x y.e` is `\\x.\\y.e`),
application by juxtaposition associating left, parentheses, abstraction
bodies extending as far right as possible, and `--` line comments.
Projection keywords (tp, car, cdr, pick, drop) are rejected as
identifiers; those tokens belong to printed machine states only.
Parsing is one loop over an explicit stack, so any nesting depth parses.
"""

from __future__ import annotations

import re
from functools import reduce

from .syntax import App, Lam, Node, RESERVED_NAMES, Term, Var

__all__ = ["SourceSpan", "ParseError", "parse_term"]


class SourceSpan(Node):
    __slots__ = __match_args__ = ("start", "end")


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


# Blanks and comments, then one token; `end` matches only once the input is
# used up, and `bad` takes any character no token starts with.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|--[^\n]*)*"
    r"(?:(?P<lam>[\\λ])|(?P<punct>[.()])|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, start, end) of every token; a span is built only for
    an error."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", SourceSpan(*m.span(kind)))
        tokens.append((kind, m[kind], *m.span(kind)))
    return tokens


def _error(message: str, token: tuple[str, str, int, int]) -> ParseError:
    return ParseError(message, SourceSpan(token[2], token[3]))


def _name(token: tuple[str, str, int, int]) -> str:
    text = token[1]
    if text in RESERVED_NAMES:
        raise _error(f"{text!r} is a reserved machine token", token)
    return text


def parse_term(src: str) -> Term:
    """Parse source text into a term, raising ParseError on any bad input."""
    tokens = _tokenize(src)
    # A group is the application spine being read and what opened it: None
    # for the whole input, "(" for a parenthesis, or a lambda's binders.  A
    # lambda's body runs to whatever closes its enclosing group.
    stack: list[tuple[object, list[Term]]] = []
    opener: object = None
    spine: list[Term] = []
    i = 0
    while True:
        kind, text, _, _ = token = tokens[i]
        i += 1
        if kind == "ident":
            spine.append(Var(_name(token)))
        elif text == "(":
            stack.append((opener, spine))
            opener, spine = "(", []
        elif kind == "lam":
            binders = []
            while tokens[i][0] == "ident":
                binders.append(_name(tokens[i]))
                i += 1
            if not binders:
                raise _error("expected an identifier", tokens[i])
            if tokens[i][1] != ".":
                raise _error("expected '.' after binders", tokens[i])
            i += 1
            stack.append((opener, spine))
            opener, spine = binders, []
        else:  # ")", "." or the end close the lambdas they end, then their own group
            if not spine:
                raise _error("expected a term", token)
            while True:
                term = reduce(App, spine)
                if not isinstance(opener, list):
                    break
                for binder in reversed(opener):
                    term = Lam(binder, term)
                opener, spine = stack.pop()
                spine.append(term)
            if opener is None:
                if kind != "end":
                    raise _error("unexpected trailing input", token)
                return term
            if text != ")":
                raise _error("expected ')'", token)
            opener, spine = stack.pop()
            spine.append(term)
