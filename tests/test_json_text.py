"""The one-pass JSON writer against ``json.dumps(indent=2)``, the encoder it
replaced: the same text for any value the writer takes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from bpdmn.format import json_text

# quotes, backslashes, control characters, non-ASCII text and lone surrogates
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\ud800\udfff'),
        st.characters(),
    ),
    max_size=12,
)

SCALARS = st.one_of(
    TEXT,
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 1.5, float("nan"), float("inf"), float("-inf")]),
)

VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_writer_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=True)


def test_empty_containers_and_singletons():
    for value in ([], {}, [[]], {"a": {}}, [{}], {"": []}, True, False, None, 0, -0.0):
        assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=True)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {"a": object()}, [b"bytes"], {"a"}])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)
