from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st

from bpdmn.expr import (
    BoolOp,
    Cmp,
    ExprError,
    ExprSyntaxError,
    ExprTypeError,
    Lit,
    Not,
    Ref,
    UnboundPathError,
    Value,
    _CONNECTIVES,
    _RELOPS,
    _chain,
    _parse,
    _tokenize,
    eval_expr,
    expr_refs,
    parse_expr,
    print_expr,
)
from bpdmn.simulator import _Env


def test_parse_simple_comparison():
    e = parse_expr("a.b = 'x'")
    assert e == Cmp("=", Ref(("a", "b")), Lit("x"))


def test_parse_precedence_and_binds_tighter_than_or():
    e = parse_expr("a.p or b.q and c.r")
    assert isinstance(e, BoolOp) and e.op == "or"
    assert isinstance(e.right, BoolOp) and e.right.op == "and"


def test_parse_parens_override_precedence():
    e = parse_expr("(a.p or b.q) and c.r")
    assert isinstance(e, BoolOp) and e.op == "and"


def test_parse_not_term():
    e = parse_expr("not a.p")
    assert e == Not(Ref(("a", "p")))


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
def test_all_relational_operators_parse(op):
    e = parse_expr(f"a.x {op} 3")
    assert isinstance(e, Cmp) and e.op == op


@pytest.mark.parametrize("uni,ascii_", [("≠", "!="), ("≤", "<="), ("≥", ">=")])
def test_unicode_operators_normalize_to_ascii(uni, ascii_):
    e = parse_expr(f"a.x {uni} 3")
    assert isinstance(e, Cmp) and e.op == ascii_
    assert ascii_ in print_expr(e)


def test_string_escapes():
    e = parse_expr(r"a.x = 'it\'s \\ fine'")
    assert e == Cmp("=", Ref(("a", "x")), Lit("it's \\ fine"))
    assert parse_expr(print_expr(e)) == e


@pytest.mark.parametrize(
    "text,pos",
    [("a.b =", 5), ("(a.b = 1", 8), ("a.b ? 1", 4), ("", 0), ("and a.b", 0)],
)
def test_syntax_errors_carry_positions(text, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.position == pos


def test_eval_null_comparison_is_false():
    env = {"a.x": None}
    assert eval_expr(parse_expr("a.x = 1"), env) is False
    assert eval_expr(parse_expr("a.x != 1"), env) is False
    assert eval_expr(parse_expr("a.x < 1"), env) is False


def test_eval_null_in_boolean_connectives_is_false():
    env = {"a.x": None, "a.ok": True}
    assert eval_expr(parse_expr("a.x and a.ok"), env) is False
    assert eval_expr(parse_expr("a.x or a.ok"), env) is True
    assert eval_expr(parse_expr("not a.x"), env) is True


def test_eval_numeric_and_string_comparisons():
    env = {"n.v": 3, "s.v": "abc"}
    assert eval_expr(parse_expr("n.v >= 3"), env) is True
    assert eval_expr(parse_expr("n.v > 3"), env) is False
    assert eval_expr(parse_expr("s.v < 'abd'"), env) is True


def test_eval_unbound_path_raises():
    with pytest.raises(UnboundPathError):
        eval_expr(parse_expr("missing.path = 1"), {})


def test_eval_type_mismatch_raises():
    with pytest.raises(ExprTypeError):
        eval_expr(parse_expr("a.x < 'str'"), {"a.x": 3})


def test_expr_refs_collects_all_paths():
    e = parse_expr("a.x = 1 and (b.y or not c.z.w)")
    assert expr_refs(e) == {"a.x", "b.y", "c.z.w"}


# -- print/parse round trip over random ASTs --------------------------------

_names = st.text(alphabet="abcxyz", min_size=1, max_size=4)
_refs = st.builds(lambda parts: Ref(tuple(parts)), st.lists(_names, min_size=1, max_size=3))
_lits = st.builds(
    Lit,
    st.one_of(
        st.integers(-1000, 1000),
        st.integers(-(10**4000), 10**4000),
        st.booleans(),
        st.text(alphabet="abc '\\", max_size=6),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)
_terms = st.one_of(_refs, _lits)


def _exprs():
    return st.recursive(
        st.one_of(
            _terms,
            st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _terms, _terms),
        ),
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(BoolOp, st.sampled_from(["and", "or"]), inner, inner),
        ),
        max_leaves=12,
    )


@given(_exprs())
def test_print_parse_round_trip(e):
    # repr tells 1 from 1.0 and 0.0 from -0.0, which == does not
    assert repr(parse_expr(print_expr(e))) == repr(e)


def _recursive_eval(e, env):
    """``eval_expr`` as one recursion per connective, short-circuiting on the
    left operand: the reference for the loop over a chain."""
    if isinstance(e, BoolOp):
        decides = e.op == "or"
        for operand in (e.left, e.right):
            value = _recursive_eval(operand, env)
            if value is not None and not isinstance(value, bool):
                raise ExprTypeError(f"expected boolean in '{e.op}', got {value!r}")
            if bool(value) is decides:
                return decides
        return not decides
    if isinstance(e, Not):
        return eval_expr(Not(Lit(_recursive_eval(e.operand, env))), env)
    return eval_expr(e, env)


def _value_or_error(evaluate, e, env):
    try:
        return evaluate(e, env)
    except ExprError as exc:
        return type(exc), str(exc)


@given(_exprs(), st.data())
def test_eval_matches_one_recursion_per_connective(e, data):
    values = st.one_of(st.none(), st.booleans(), st.integers(0, 2), st.just("a"))
    env = {ref: data.draw(values) for ref in sorted(expr_refs(e)) if data.draw(st.booleans())}
    assert _value_or_error(eval_expr, e, env) == _value_or_error(_recursive_eval, e, env)


@pytest.mark.parametrize("op", ["or", "and"])
def test_a_chain_of_thousands_of_terms_needs_no_deep_recursion(op):
    terms = [f"o.v{i % 7}" for i in range(3000)]
    e = parse_expr(f" {op} ".join(terms))
    assert print_expr(e) == f" {op} ".join(terms)
    assert expr_refs(e) == {f"o.v{i}" for i in range(7)}
    env = {f"o.v{i}": op == "and" for i in range(7)}
    assert eval_expr(e, env) is (op == "and")
    # short circuit: the first deciding term ends the walk before an unbound one
    assert eval_expr(parse_expr(f"o.v0 {op} " + f" {op} ".join(["x.y"] * 3000)), {"o.v0": op == "or"}) is (op == "or")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_reads_back_as_printed(x):
    assert repr(parse_expr(print_expr(Lit(x)))) == repr(Lit(x))


# -- the tokenizer and parser before the token pattern, as a reference --------
#
# `ref_tokenize` and `ref_parse_expr` are the character loop and the parser
# that `_TOKEN` and the connective table replaced, unchanged but for their
# names and for `ref_tokenize` appending to a list its caller passes, so the
# caller sees the tokens made before an error. The new code must give the same
# tree, or the same syntax error at the same position, on every string except
# two kinds, on which the number rule changed on purpose: strings holding a
# digit that is not a decimal digit (`²`, `①`: the reference took them for
# digits), and strings on which the reference made a number token that `int()`
# or `float()` cannot read or reads as a value that is not finite (`1e5`,
# `1.2.3`, `1.0e999`: the reference raised `ValueError` or read `inf`).


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    pos: int


_REF_RELOP_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">="}
_REF_KEYWORDS = {"and", "or", "not", "true", "false"}


def ref_tokenize(text: str, tokens: list[_RefToken]) -> list[_RefToken]:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _REF_RELOP_ALIASES:
            tokens.append(_RefToken("op", _REF_RELOP_ALIASES[c], i))
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("!=", "<=", ">="):
            tokens.append(_RefToken("op", two, i))
            i += 2
            continue
        if c in "=<>":
            tokens.append(_RefToken("op", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(_RefToken("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_RefToken("rparen", c, i))
            i += 1
            continue
        if c == "'":
            j = i + 1
            parts: list[str] = []
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ("'", "\\"):
                    parts.append(text[j + 1])
                    j += 2
                elif text[j] == "'":
                    break
                else:
                    parts.append(text[j])
                    j += 1
            else:
                raise ExprSyntaxError("unterminated string literal", i)
            if j >= n:
                raise ExprSyntaxError("unterminated string literal", i)
            tokens.append(_RefToken("string", "".join(parts), i))
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # scientific-notation suffix: 1e-05, 2.5E+3
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k + 1
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_RefToken("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            word = text[i:j]
            if word.endswith(".") or ".." in word:
                raise ExprSyntaxError(f"malformed path {word!r}", i)
            tokens.append(_RefToken("ident", word, i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_RefToken("eof", "", n))
    return tokens


class _RefParser:
    def __init__(self, tokens: list[_RefToken]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.i]

    def next(self) -> _RefToken:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _RefToken:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def parse_expr(self):
        node = self.parse_and()
        while self.peek().kind == "ident" and self.peek().text == "or":
            self.next()
            node = BoolOp("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_cmp()
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.next()
            node = BoolOp("and", node, self.parse_cmp())
        return node

    def parse_cmp(self):
        left = self.parse_term()
        if self.peek().kind == "op":
            op = self.next().text
            right = self.parse_term()
            return Cmp(op, left, right)
        return left

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "not":
                self.next()
                return Not(self.parse_term())
            if tok.text == "true":
                self.next()
                return Lit(True)
            if tok.text == "false":
                self.next()
                return Lit(False)
            if tok.text.split(".", 1)[0] in _REF_KEYWORDS:
                raise ExprSyntaxError(f"unexpected keyword {tok.text!r}", tok.pos)
            self.next()
            return Ref(tuple(tok.text.split(".")))
        if tok.kind == "number":
            self.next()
            if "." in tok.text:
                return Lit(float(tok.text))
            return Lit(int(tok.text))
        if tok.kind == "string":
            self.next()
            return Lit(tok.text)
        if tok.kind == "lparen":
            self.next()
            node = self.parse_expr()
            self.expect("rparen")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


def ref_parse_expr(text: str, tokens: list[_RefToken]):
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _RefParser(ref_tokenize(text, tokens))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return node


def _outcome(parse, text: str, *args):
    """The tree *parse* gives, as its repr (which tells 1 from 1.0), or the
    message and position of its syntax error."""
    try:
        return repr(parse(text, *args))
    except ExprSyntaxError as exc:
        return str(exc), exc.position


def _readable(number: str) -> bool:
    """Whether the reference read its number token *number* as a finite value."""
    try:
        return math.isfinite(float(number) if "." in number else int(number))
    except ValueError:
        return False


# pieces of the language and of its near misses, joined at random
_FRAGMENTS = [
    *" \t\n\u00a0\u2003\x1c",
    *"()'\\.-+_=<>!?$#\"",
    *"≠≤≥",
    "!=", "<=", ">=",
    *"0123456789",
    *"eE",
    "٣", "½", "Ⅷ", "²", "①",
    "a", "b.c", "x_1", "ä", "Ω", "\u0301",
    "and", "or", "not", "true", "false", "true.x", "a.and",
    "1.5", "1e5", "2E+3", "1.2.3", "9..", "1.0e999", "-0", "0.00001",
]
# single tokens of each kind, and words the tokenizer or the term parser refuses
_TOKEN_TEXTS = [
    "a", "b.c", "x_1", "_x", "Ω.v", "not", "and", "or", "true", "false", "true.x", "a.and", "and.x", "a.", "a..b",
    "9..", "²", "1", "-2", "٣", "1.5", "1e5", "1e999", "''", "'s'", "'it\\'s'", "'a\\'b'", "'", "(", ")", "=",
    "≠", ">=", "#",
]
_texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join),
    st.sampled_from(_TOKEN_TEXTS),
)


@settings(max_examples=1000)
@given(_texts)
def test_tokens_and_trees_match_the_reference(text):
    assume(not any(c.isdigit() and not c.isdecimal() for c in text))
    tokens: list[_RefToken] = []
    expected = None
    try:
        expected = _outcome(ref_parse_expr, text, tokens)
    except ValueError:  # int() or float() refused a number token, ruled out below
        pass
    assume(all(_readable(t.text) for t in tokens if t.kind == "number"))
    assert _outcome(parse_expr, text) == expected


def _ladder(text: str):
    """``parse_expr`` with every text, a lone term too, read through the
    precedence ladder: tokens, then ``_parse``, then the trailing-input check."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(text)
    node = _parse(tokens)
    if tokens[-1].kind != "eof":
        raise ExprSyntaxError(f"trailing input {tokens[-1].text!r}", tokens[-1].pos)
    return node


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_TOKEN_TEXTS), min_size=1, max_size=3).map(" ".join))
def test_a_lone_term_parses_as_through_the_precedence_ladder(text):
    assert _outcome(parse_expr, text) == _outcome(_ladder, text)


def test_a_comparison_and_a_connective_never_compare_equal():
    # expression nodes are tuples, and Cmp and BoolOp have one shape
    assert Cmp("=", Ref(("a",)), Lit(1)) == Cmp("=", Ref(("a",)), Lit(1))
    assert set(_RELOPS).isdisjoint(_CONNECTIVES)


@settings(max_examples=500)
@given(_texts)
def test_parse_expr_raises_only_expression_errors(text):
    try:
        parse_expr(text)
    except ExprError:
        pass


@pytest.mark.parametrize(
    "text, value",
    [("1e5", 100000.0), ("2E+3", 2000.0), ("1.", 1.0), ("-0.5e-3", -0.0005), ("0.00001", 1e-05), ("٣", 3)],
)
def test_a_number_is_a_float_exactly_when_it_has_a_point_or_an_exponent(text, value):
    assert repr(parse_expr(text)) == repr(Lit(value))


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("a = 1.0e999", "number out of range", 4),
        ("a = -1e400", "number out of range", 4),
        ("a = " + "9" * 5000, "number out of range", 4),
        ("a = 1.2.3", "unexpected character '.'", 7),
        ("9..", "unexpected character '.'", 2),
        ("a = ²", "unexpected character '²'", 4),
        ("½", "unexpected character '½'", 0),
        ("(" * 5000 + "a", "expression nested too deeply", None),
    ],
    ids=lambda value: f"{len(value)}-chars" if isinstance(value, str) and len(value) > 100 else None,
)
def test_hostile_numbers_are_syntax_errors(text, message, pos):
    with pytest.raises(ExprSyntaxError, match=message) as err:
        parse_expr(text)
    assert pos is None or err.value.position == pos


# -- the evaluator before exact-class dispatch, as a reference ---------------
#
# `ref_eval_expr`, `_ref_truthy` and `_ref_compare` are the evaluator that
# dispatches on the class of each node with `isinstance`, unchanged but for
# their names. The evaluator must give the same value, or raise the same
# exception class with the same message, for every expression and
# environment. The reference reads a plain dict with `in`, which a mapping
# that reads another on a miss does not answer for the other's keys; so it is
# given every entry in one dict.


def _ref_truthy(value: Value, context: str) -> bool:
    # null in a boolean position counts as false (optional-input rule)
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    raise ExprTypeError(f"expected boolean in {context}, got {value!r}")


def ref_eval_expr(e, env: dict[str, Value]) -> Value:
    """Strictly evaluate *e* under *env* (dotted path -> value).

    Comparisons with a null operand yield false; ``and``/``or``
    short-circuit. Unbound paths raise :class:`UnboundPathError`; comparing
    operands of different scalar types raises :class:`ExprTypeError`.
    """
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ref):
        if e.dotted not in env:
            raise UnboundPathError(e.dotted)
        return env[e.dotted]
    if isinstance(e, Not):
        return not _ref_truthy(ref_eval_expr(e.operand, env), "'not'")
    if isinstance(e, BoolOp):
        decides = _CONNECTIVES[e.op]
        for operand in _chain(e):
            if _ref_truthy(ref_eval_expr(operand, env), f"'{e.op}'") is decides:
                return decides
        return not decides
    if isinstance(e, Cmp):
        left = ref_eval_expr(e.left, env)
        right = ref_eval_expr(e.right, env)
        return _ref_compare(e.op, left, right)
    raise TypeError(f"not an expression: {e!r}")


def _ref_compare(op: str, left: Value, right: Value) -> bool:
    if left is None or right is None:
        return False
    compare, _ = _RELOPS.get(op, (None, None))
    if compare is None:
        raise ExprTypeError(f"unknown operator {op!r}")
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if isinstance(left, bool) or isinstance(right, bool):
        if not (isinstance(left, bool) and isinstance(right, bool)):
            raise ExprTypeError(f"cannot compare {left!r} with {right!r}")
        if compare not in (operator.eq, operator.ne):
            raise ExprTypeError(f"ordering comparison {op!r} not defined for booleans")
    elif not (numeric(left) and numeric(right)) and not (isinstance(left, str) and isinstance(right, str)):
        raise ExprTypeError(f"cannot compare {left!r} with {right!r}")
    return compare(left, right)


def _evaluated(evaluate, e, env):
    """The repr of what *evaluate* gives (which tells 1 from 1.0 and True,
    and reads NaN as itself), or the class and message of its error."""
    try:
        return repr(evaluate(e, env))
    except ExprError as exc:
        return type(exc), str(exc)


_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(alphabet="abc'", max_size=3)
)


def _environment(e, data) -> dict[str, Value]:
    """Values for some of the paths *e* reads; the others stay unbound."""
    return {ref: data.draw(_values) for ref in sorted(expr_refs(e)) if data.draw(st.booleans())}


@settings(max_examples=300)
@given(_exprs(), st.data())
def test_eval_matches_the_reference_on_a_dict(e, data):
    env = _environment(e, data)
    assert _evaluated(eval_expr, e, env) == _evaluated(ref_eval_expr, e, env)


@settings(max_examples=300)
@given(_exprs(), st.data())
def test_eval_matches_the_reference_on_an_overlay(e, data):
    env = _environment(e, data)
    own = {path for path in env if data.draw(st.booleans()) or "." not in path}
    bindings = {}
    for path, value in env.items():
        if path not in own:
            obj, _, variable = path.partition(".")
            bindings.setdefault(obj, {})[variable] = value
    overlay = _Env({p: v for p, v in env.items() if p in own}, bindings)
    assert _evaluated(eval_expr, e, overlay) == _evaluated(ref_eval_expr, e, env)


@pytest.mark.parametrize(
    "text, env, expected",
    [
        ("1 = 1.0", {}, "True"),
        ("true = 1", {}, (ExprTypeError, "cannot compare True with 1")),
        ("o.x < 'a'", {"o.x": 3}, (ExprTypeError, "cannot compare 3 with 'a'")),
        ("o.n and x.y", {"o.n": None}, "False"),
    ],
    ids=["int-equals-float", "bool-against-int-raises", "int-against-str-raises", "null-and-unbound-is-false"],
)
def test_eval_pinned_cases(text, env, expected):
    e = parse_expr(text)
    assert _evaluated(eval_expr, e, env) == _evaluated(ref_eval_expr, e, env) == expected
