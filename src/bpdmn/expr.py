"""Small expression language for gateway guards and data-mapping copy rules.

Grammar::

    expr := or
    or   := and ('or' and)*
    and  := cmp ('and' cmp)*
    cmp  := term (relop term)?
    term := path | literal | 'not' term | '(' expr ')'

Paths are dot-qualified identifiers (``input.cardNumber``), string literals
are single-quoted, numbers are decimal, booleans are ``true``/``false``.
Comparisons with a null operand evaluate to false; a null operand in a
boolean connective is treated as false as well, so guards over optional
inputs never crash a run.

The lexical rules are one pattern, ``_TOKEN``, whose named groups are the
token kinds, and the README states them in words.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Mapping, NamedTuple

Value = str | int | float | bool | None

# relational operator (as printed) -> its comparison and its other spelling
_RELOPS: dict[str, tuple[Callable[[Value, Value], bool], str | None]] = {
    "=": (operator.eq, None),
    "!=": (operator.ne, "≠"),
    "<": (operator.lt, None),
    "<=": (operator.le, "≤"),
    ">": (operator.gt, None),
    ">=": (operator.ge, "≥"),
}
# every spelling of a relational operator -> the operator it reads as
_SPELLED = {spelling: op for op, (_, other) in _RELOPS.items() for spelling in (op, other) if spelling}

# boolean connective, loosest first -> the value of a left operand that decides it
_CONNECTIVES = {"or": True, "and": False}
_LOOSEST_FIRST = tuple(_CONNECTIVES)
_COMPARISON = len(_CONNECTIVES)  # a comparison binds tighter than any connective
_TERM = _COMPARISON + 1

_BOOLEANS = {"true": True, "false": False}
_KEYWORDS = {*_CONNECTIVES, *_BOOLEANS, "not"}

_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("space", r"\s+"),
            ("number", r"-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"),
            # a letter or _ first; a word starting with another character is refused
            ("ident", r"[^\W\d][\w.]*"),
            # an escape is one unit, so \' never closes the literal
            ("string", r"'(?:[^'\\]|\\['\\]|\\(?!['\\]))*'"),
            ("quote", "'"),
            ("op", "|".join(map(re.escape, sorted(_SPELLED, key=len, reverse=True)))),
            ("lparen", r"\("),
            ("rparen", r"\)"),
            ("other", "."),
        )
    ),
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(['\\])")


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundPathError(ExprError):
    def __init__(self, path: str) -> None:
        super().__init__(f"unbound path: {path}")
        self.path = path


class ExprTypeError(ExprError):
    pass


class Ref(NamedTuple):
    path: tuple[str, ...]

    @property
    def dotted(self) -> str:
        return ".".join(self.path)


class Lit(NamedTuple):
    value: Value


class Cmp(NamedTuple):
    op: str  # a key of _RELOPS
    left: Expression
    right: Expression


class BoolOp(NamedTuple):
    op: str  # a key of _CONNECTIVES
    left: Expression
    right: Expression


class Not(NamedTuple):
    operand: Expression


# The nodes are tuples: they compare and hash by value, so elements may share
# a tree. Cmp and BoolOp have one shape, but no operator is both.
Expression = Ref | Lit | Cmp | BoolOp | Not


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(NamedTuple):
    kind: str  # a group of _TOKEN other than space, quote and other; or 'eof'
    text: str
    pos: int


# builds a token from a tuple in C, without the Python-level ``_Token.__new__``
_new_token = tuple.__new__


def _tokenize(text: str) -> list[_Token]:
    """The tokens of *text*, ``eof`` last, in reverse order: the parser reads
    the next token from the end of the list."""
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == "ident":
            _check_ident(word, match.start())
        elif kind == "space":
            continue
        elif kind == "op":
            word = _SPELLED[word]
        elif kind == "string":
            word = _unquote(word)
        elif kind == "quote":
            raise ExprSyntaxError("unterminated string literal", match.start())
        elif kind == "other":
            raise ExprSyntaxError(f"unexpected character {word!r}", match.start())
        tokens.append(_new_token(_Token, (kind, word, match.start())))
    tokens.append(_new_token(_Token, ("eof", "", len(text))))
    tokens.reverse()
    return tokens


def _check_ident(word: str, pos: int) -> None:
    """Refuse the ident token *word* at *pos* unless it starts with a letter
    or ``_`` and is dot-separated words: ``[^\\W\\d]`` also lets ``²`` start one."""
    if not (word[0].isalpha() or word[0] == "_"):
        raise ExprSyntaxError(f"unexpected character {word[0]!r}", pos)
    if word[-1] == "." or ".." in word:
        raise ExprSyntaxError(f"malformed path {word!r}", pos)


def _unquote(word: str) -> str:
    """The value of the string token *word*: its text between the quotes,
    escapes resolved."""
    return _ESCAPE.sub(r"\1", word[1:-1]) if "\\" in word else word[1:-1]


def _number(text: str, pos: int) -> int | float:
    """The value of the number token *text* at *pos*: a float when it has a
    point or an exponent. A number that is not finite, or an integer of more
    digits than ``int()`` reads, is a syntax error."""
    try:
        value = int(text) if text.lstrip("-").isdecimal() else float(text)
    except ValueError:  # an integer of more digits than int() reads
        raise ExprSyntaxError("number out of range", pos) from None
    if abs(value) == math.inf:
        raise ExprSyntaxError("number out of range", pos)
    return value


# ---------------------------------------------------------------------------
# Parser: it reads *tokens*, the tokens not yet read, from the end, so the
# next token is the last.


def _parse(tokens: list[_Token], level: int = 0) -> Expression:
    """The connectives of *level* and tighter, left-associative, or a
    comparison at level ``_COMPARISON``."""
    if level == _COMPARISON:
        left = _parse_term(tokens)
        if tokens[-1].kind != "op":
            return left
        return Cmp(tokens.pop().text, left, _parse_term(tokens))
    op = _LOOSEST_FIRST[level]
    node = _parse(tokens, level + 1)
    while tokens[-1].text == op and tokens[-1].kind == "ident":
        tokens.pop()
        node = BoolOp(op, node, _parse(tokens, level + 1))
    return node


def _ident_term(text: str, pos: int) -> Ref | Lit:
    """The path or boolean that the ident token *text* at *pos*, not
    ``not``, reads as."""
    if text in _BOOLEANS:
        return Lit(_BOOLEANS[text])
    path = text.split(".")
    if path[0] in _KEYWORDS:
        raise ExprSyntaxError(f"unexpected keyword {text!r}", pos)
    return Ref(tuple(path))


def _parse_term(tokens: list[_Token]) -> Expression:
    kind, text, pos = tokens.pop()
    if kind == "ident":
        if text == "not":
            return Not(_parse_term(tokens))
        return _ident_term(text, pos)
    if kind == "number":
        return Lit(_number(text, pos))
    if kind == "string":
        return Lit(text)
    if kind == "lparen":
        node = _parse(tokens)
        if tokens[-1].kind != "rparen":
            raise ExprSyntaxError(f"expected rparen, found {tokens[-1].text or 'end of input'!r}", tokens[-1].pos)
        tokens.pop()
        return node
    raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", pos)


def parse_expr(text: str) -> Expression:
    """Parse *text* into an expression tree.

    A text that is one path, number or string token, and nothing else, is
    read by one ``fullmatch`` of ``_TOKEN``, with the checks and conversions
    the tokenizer and the term parser apply: no token list is built and no
    precedence level passed. Any other text, a lone ``not`` too, is
    tokenized and parsed. Both routes give the same tree or error, since a
    token that spans the text is the one the tokenizer would read there.

    Raises :class:`ExprSyntaxError` (with a character position) on malformed
    or empty input, and no other exception.
    """
    term = _TOKEN.fullmatch(text)
    if term is not None:
        kind = term.lastgroup
        if kind == "ident":
            if text != "not":  # a lone 'not' lacks its operand, which the parser reports
                _check_ident(text, 0)
                return _ident_term(text, 0)
        elif kind == "string":
            return Lit(_unquote(text))
        elif kind == "number":
            return Lit(_number(text, 0))
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(text)
    try:
        node = _parse(tokens)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", tokens[-1].pos if tokens else len(text)) from None
    if tokens[-1].kind != "eof":
        raise ExprSyntaxError(f"trailing input {tokens[-1].text!r}", tokens[-1].pos)
    return node


def _chain(e: BoolOp) -> list[Expression]:
    """The operands, left to right, of the chain of *e*'s connective that *e*
    heads: ``a or b or c`` parses as ``(a or b) or c``. Walked with a loop, so
    a chain of thousands of terms needs no deep recursion."""
    rights = []
    node: Expression = e
    while isinstance(node, BoolOp) and node.op == e.op:
        rights.append(node.right)
        node = node.left
    return [node, *reversed(rights)]


# ---------------------------------------------------------------------------
# Printer


def _fmt_lit(value: Value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return "null"  # never produced by the parser; printed for diagnostics
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(value)


def _print(e: Expression, within: int) -> str:
    """*e* as text, parenthesized when it binds looser than *within*: a
    connective at its level, then a comparison, then a term."""
    if isinstance(e, Ref):
        return e.dotted
    if isinstance(e, Lit):
        return _fmt_lit(e.value)
    if isinstance(e, Not):
        return f"not {_print(e.operand, _TERM)}"
    if isinstance(e, Cmp):
        level, text = _COMPARISON, f"{_print(e.left, _TERM)} {e.op} {_print(e.right, _TERM)}"
    elif isinstance(e, BoolOp):
        # left-associative: a right operand of the same connective keeps its parentheses
        level = _LOOSEST_FIRST.index(e.op)
        first, *rest = _chain(e)
        text = f" {e.op} ".join([_print(first, level), *(_print(operand, level + 1) for operand in rest)])
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if level < within else text


def print_expr(e: Expression) -> str:
    """Render *e* back to source text; ``parse_expr(print_expr(e)) == e``."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Evaluator


def _truthy(value: Value, connective: str) -> bool:
    # null in a boolean position counts as false (optional-input rule)
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    raise ExprTypeError(f"expected boolean in '{connective}', got {value!r}")


def eval_expr(e: Expression, env: Mapping[str, Value]) -> Value:
    """Strictly evaluate *e* under *env* (dotted path -> value).

    *env* is read only through ``env[path]``, which must raise
    :class:`KeyError` for an unbound path; a ``dict`` subclass whose
    ``__missing__`` reads another mapping qualifies.

    Comparisons with a null operand yield false; ``and``/``or``
    short-circuit. Unbound paths raise :class:`UnboundPathError`; comparing
    operands of different scalar types raises :class:`ExprTypeError`.
    """
    kind = type(e)
    if kind is Ref:
        path = ".".join(e.path)
        try:
            return env[path]
        except KeyError:
            raise UnboundPathError(path) from None
    if kind is Lit:
        return e.value
    if kind is Cmp:
        return _compare(e.op, eval_expr(e.left, env), eval_expr(e.right, env))
    if kind is BoolOp:
        decides = _CONNECTIVES[e.op]
        for operand in _chain(e):
            if _truthy(eval_expr(operand, env), e.op) is decides:
                return decides
        return not decides
    if kind is Not:
        return not _truthy(eval_expr(e.operand, env), "not")
    raise TypeError(f"not an expression: {e!r}")


def _numeric(value: Value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(op: str, left: Value, right: Value) -> bool:
    compare, _ = _RELOPS.get(op, (None, None))
    # two ints, two floats or two strs compare as they are
    if compare is not None and type(left) is type(right) and type(left) in (int, float, str):
        return compare(left, right)
    if left is None or right is None:
        return False
    if compare is None:
        raise ExprTypeError(f"unknown operator {op!r}")
    if isinstance(left, bool) or isinstance(right, bool):
        if not (isinstance(left, bool) and isinstance(right, bool)):
            raise ExprTypeError(f"cannot compare {left!r} with {right!r}")
        if compare not in (operator.eq, operator.ne):
            raise ExprTypeError(f"ordering comparison {op!r} not defined for booleans")
    elif not (_numeric(left) and _numeric(right)) and not (isinstance(left, str) and isinstance(right, str)):
        raise ExprTypeError(f"cannot compare {left!r} with {right!r}")
    return compare(left, right)


def expr_refs(e: Expression) -> set[str]:
    """All dotted paths referenced anywhere in *e*."""
    refs, stack = set(), [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Ref):
            refs.add(e.dotted)
        elif isinstance(e, Not):
            stack.append(e.operand)
        elif isinstance(e, (Cmp, BoolOp)):
            stack += (e.left, e.right)
    return refs
