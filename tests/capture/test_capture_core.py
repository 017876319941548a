"""The capture core: argument binder and value capture against their references.

The binder must agree with ``inspect.signature(fn).bind(*a, **kw)`` +
``apply_defaults()`` — same ordered ``arguments``, or ``TypeError`` in the
same cases — and ``_capture_value`` with the recursive form it replaced.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.context import CaptureContext, WorkflowRun
from repro.capture.instrumentation import (
    _capture_value,
    _make_binder,
    binder_for,
    capture_call,
    flow_task,
)
from repro.provenance.keeper import ProvenanceKeeper


# -- functions of every signature shape -------------------------------------------
def plain(a, b):
    return None


def defaults(a, b=2, c="three"):
    return None


def keyword_only(a, *, flag=False, level):
    return None


def only_keywords(*, x, y=1):
    return None


def positional_only(a, b=5, /, c=7):
    return None


def var_positional(a, *rest, key=None):
    return None


def var_keyword(a, b=1, **extra):
    return None


def everything(a, /, b, *rest, c=3, **extra):
    return None


def no_params():
    return None


def _wrapped_target(x, y=10, *, z=None):
    return None


@functools.wraps(_wrapped_target)
def wrapped(*args, **kwargs):
    return _wrapped_target(*args, **kwargs)


class Callable_:
    def __call__(self, p, q=4):
        return None


FUNCTIONS = [
    plain, defaults, keyword_only, only_keywords, positional_only, var_positional,
    var_keyword, everything, no_params, wrapped, Callable_(),
    functools.partial(defaults, 1), functools.partial(defaults, c="bound"),
    Callable_().__call__, lambda v, w=0: None,
]

_values = st.sampled_from([0, 1, "s", None, 2.5, [1], {"k": 1}])
_names = st.sampled_from(
    ["a", "b", "c", "x", "y", "z", "p", "q", "v", "w", "flag", "level", "key", "extra", "zz"]
)


def _reference(fn: Any, args: tuple, kwargs: dict) -> Any:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return TypeError
    bound.apply_defaults()
    return list(bound.arguments.items())


def _actual(fn: Any, args: tuple, kwargs: dict) -> Any:
    try:
        return list(_make_binder(fn)(args, kwargs).items())
    except TypeError:
        return TypeError


class TestBinderParity:
    @settings(max_examples=600, deadline=None)
    @given(
        st.sampled_from(FUNCTIONS),
        st.lists(_values, max_size=4).map(tuple),
        st.dictionaries(_names, _values, max_size=4),
    )
    def test_same_arguments_or_typeerror(self, fn, args, kwargs):
        assert _actual(fn, args, kwargs) == _reference(fn, args, kwargs)

    @pytest.mark.parametrize(
        "fn, args, kwargs",
        [
            (plain, (1, 2), {}),
            (plain, (1,), {"b": 2}),
            (plain, (), {"b": 2, "a": 1}),  # keyword order is not argument order
            (plain, (1, 2, 3), {}),  # too many
            (plain, (1,), {"a": 1, "b": 2}),  # repeated
            (plain, (1,), {}),  # missing
            (plain, (1, 2), {"nope": 0}),  # unknown
            (defaults, (1,), {}),
            (defaults, (1,), {"c": "x"}),
            (keyword_only, (1,), {"level": 3}),
            (keyword_only, (1, True), {"level": 3}),  # keyword-only given positionally
            (keyword_only, (1,), {}),  # required keyword-only missing
            (only_keywords, (), {"x": 1}),
            (no_params, (), {}),
            (no_params, (1,), {}),
            (wrapped, (1,), {"z": 2}),
        ],
    )
    def test_the_cases_worth_naming(self, fn, args, kwargs):
        assert _actual(fn, args, kwargs) == _reference(fn, args, kwargs)

    @pytest.mark.parametrize("builtin", [dict, max, min, getattr, len])
    def test_builtins_without_a_signature_bind_nothing(self, builtin):
        try:
            inspect.signature(builtin)
        except (TypeError, ValueError):
            assert _make_binder(builtin)((1,), {"k": 2}) == {}
        else:
            assert _actual(builtin, ({},), {}) == _reference(builtin, ({},), {})

    def test_signatureless_function_is_captured_with_empty_used(self):
        ctx = CaptureContext()
        make = flow_task("make_dict", context=ctx)(dict)
        assert make(a=1) == {"a": 1}
        ctx.flush()
        payload = ctx.broker.history()[-1].payload
        assert payload["used"] == {} and payload["generated"] == {"a": 1}

    def test_binder_is_computed_once_per_function(self):
        assert binder_for(plain) is binder_for(plain)
        assert binder_for(plain) is not binder_for(defaults)


# -- value capture -----------------------------------------------------------------
def _reference_capture(value: Any) -> Any:
    """``_capture_value`` as it stood before scalars skipped the call frame."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _reference_capture(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if len(value) <= 16:
            return [_reference_capture(v) for v in value]
        return {
            "_summary": f"sequence of {len(value)} items",
            "_head": [_reference_capture(v) for v in value[:4]],
        }
    text = repr(value)
    return text if len(text) <= 512 else text[:512] + "…"


class _Exotic:
    def __init__(self, size: int) -> None:
        self.size = size

    def __repr__(self) -> str:
        return "<" + "e" * self.size + ">"


class _FloatSubclass(float):
    pass


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5),
    st.sampled_from([_Exotic(3), _Exotic(600), _FloatSubclass(1.5), 1 + 2j, b"bytes", {1, 2}]),
)
_keys = st.one_of(st.text(max_size=3), st.integers(0, 5), st.none(), st.booleans())
_nested = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=20),
        st.lists(inner, max_size=20).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=30,
)


class TestCaptureValue:
    @settings(max_examples=300, deadline=None)
    @given(_nested)
    def test_output_unchanged(self, value):
        captured, expected = _capture_value(value), _reference_capture(value)
        assert captured == expected
        assert repr(captured) == repr(expected)  # types and key order too

    def test_named_shapes(self):
        assert _capture_value({1: {2: (3, [4])}}) == {"1": {"2": [3, [4]]}}
        assert _capture_value(list(range(17))) == {
            "_summary": "sequence of 17 items", "_head": [0, 1, 2, 3],
        }
        assert _capture_value(_Exotic(600)).endswith("…")
        assert type(_capture_value(_FloatSubclass(1.5))) is _FloatSubclass


# -- the core itself -----------------------------------------------------------------
class TestCaptureCall:
    @pytest.fixture
    def ctx(self):
        return CaptureContext(hostname="node-x")

    @pytest.fixture
    def keeper(self, ctx):
        keeper = ProvenanceKeeper(ctx.broker)
        keeper.start()
        return keeper

    def test_returns_the_result_and_the_id_it_minted(self, ctx, keeper):
        with WorkflowRun("wf", ctx):
            result, task_id = capture_call(
                ctx, "act", defaults, binder_for(defaults), (1,), {"c": "x"},
                ["up-1"], "node-7",
            )
        assert result is None
        doc = keeper.database.find_one({"task_id": task_id})
        assert doc["activity_id"] == "act" and doc["hostname"] == "node-7"
        assert doc["used"] == {"a": 1, "b": 2, "c": "x", "_upstream": ["up-1"]}
        assert doc["status"] == "FINISHED" and doc["generated"] == {}

    def test_unbindable_call_is_recorded_under_args_and_reraised(self, ctx, keeper):
        @flow_task(context=ctx)
        def needs_two(a, b):
            return a + b

        with pytest.raises(TypeError):
            needs_two(1, extra=5)
        ctx.flush()
        doc = keeper.database.find_one({"activity_id": "needs_two"})
        assert doc["used"] == {"_args": [1], "extra": 5}
        assert doc["status"] == "FAILED"

    def test_wrapper_keeps_its_contract(self, ctx, keeper):
        other = CaptureContext(hostname="elsewhere")
        other_keeper = ProvenanceKeeper(other.broker)
        other_keeper.start()

        @flow_task("renamed", context=ctx)
        def fn(x):
            return {"y": x}

        assert fn.activity_id == "renamed" and fn.__wrapped__.__name__ == "fn"
        assert fn(1, _ctx=other, _upstream=["u"], _hostname="h") == {"y": 1}
        other.flush()
        doc = other_keeper.database.find_one({"activity_id": "renamed"})
        assert doc["used"] == {"x": 1, "_upstream": ["u"]} and doc["hostname"] == "h"
        assert keeper.database.count() == 0
