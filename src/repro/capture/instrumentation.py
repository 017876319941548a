"""``@flow_task``: decorator-based task provenance capture.

The decorator mirrors Flowcept's instrumentation hook: it binds call
arguments to the function signature into ``used``, executes the
function, maps its return value into ``generated``, stamps timestamps,
hostname and telemetry snapshots, and buffers the message.  Failures are
captured (status=FAILED, error recorded) and re-raised — capture must
never swallow application errors.

Conventions for ``generated``:

* a ``dict`` return is stored as-is (each key becomes a dataflow field);
* any other return value is stored under ``{"result": value}``;
* ``None`` produces an empty ``generated``.

Reserved keyword arguments (consumed, not forwarded):

* ``_upstream`` — list of upstream task ids (control-flow edge, recorded
  into ``used._upstream``);
* ``_hostname`` — the simulated/actual node executing the task;
* ``_ctx`` — an explicit :class:`CaptureContext`.
"""

from __future__ import annotations

import functools
import inspect
from collections.abc import Mapping
from typing import Any, Callable, TypeVar

from repro.capture.context import CaptureContext
from repro.provenance.messages import TaskStatus

__all__ = ["flow_task", "capture_call", "binder_for"]

F = TypeVar("F", bound=Callable[..., Any])

#: Values too large to inline into provenance get summarised.
_MAX_REPR = 512

#: Exact types that are captured as they are (subclasses take the slow road).
_PLAIN = frozenset({type(None), bool, int, float, str})


def _capture_value(value: Any) -> Any:
    """Keep JSON-friendly values; summarise anything bulky or exotic."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {
            str(k): v if type(v) in _PLAIN else _capture_value(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        if len(value) <= 16:
            return [v if type(v) in _PLAIN else _capture_value(v) for v in value]
        return {
            "_summary": f"sequence of {len(value)} items",
            "_head": [_capture_value(v) for v in value[:4]],
        }
    text = repr(value)
    return text if len(text) <= _MAX_REPR else text[:_MAX_REPR] + "…"


def _capture_fields(fields: Mapping[Any, Any]) -> dict[Any, Any]:
    """Top level of ``used``/``generated``: keys kept, values captured."""
    return {
        k: v if type(v) in _PLAIN else _capture_value(v) for k, v in fields.items()
    }


def _make_binder(fn: Callable[..., Any]) -> Callable[..., Mapping[str, Any]]:
    """``fn``'s binder: ``(args, kwargs) -> {parameter: value}`` in signature
    order, defaults applied, or ``TypeError`` for a call ``fn`` would reject;
    binds nothing when ``fn`` exposes no signature."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: {}
    params = list(signature.parameters.values())
    plain = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    if any(p.kind not in plain for p in params):

        def bind_general(args: tuple, kwargs: Mapping[str, Any]) -> Mapping[str, Any]:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        return bind_general

    # only named parameters: what Signature.bind + apply_defaults would
    # produce is one pass over the names
    names = tuple(p.name for p in params)
    index = {name: i for i, name in enumerate(names)}
    n_positional = sum(p.kind is plain[0] for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}

    def bind_named(args: tuple, kwargs: Mapping[str, Any]) -> Mapping[str, Any]:
        n_args = len(args)
        if n_args > n_positional:
            raise TypeError("too many positional arguments")
        for key in kwargs:
            if index.get(key, -1) < n_args:
                raise TypeError(f"unexpected or repeated argument {key!r}")
        bound = dict(zip(names, args))
        for name in names[n_args:]:
            if name in kwargs:
                bound[name] = kwargs[name]
            elif name in defaults:
                bound[name] = defaults[name]
            else:
                raise TypeError(f"missing a required argument: {name!r}")
        return bound

    return bind_named


#: The binder of a function, computed once per function (bounded memo).
binder_for = functools.lru_cache(maxsize=256)(_make_binder)


def capture_call(
    ctx: CaptureContext,
    activity_id: str,
    fn: Callable[..., Any],
    binder: Callable[..., Mapping[str, Any]],
    args: tuple,
    kwargs: Mapping[str, Any],
    upstream: Any = None,
    hostname: str | None = None,
) -> tuple[Any, str]:
    """Run ``fn(*args, **kwargs)`` as one captured task.

    Builds the wire dict (Listing 1 key order) once and emits it;
    returns ``(result, task_id)``.  An exception from ``fn`` is recorded
    as a ``FAILED`` task and re-raised.  ``binder`` describes the
    function whose parameters name the ``used`` fields — ``fn`` itself,
    or the function ``fn`` forwards to.
    """
    hostname = hostname or ctx.hostname
    try:
        used = _capture_fields(binder(args, kwargs))
    except TypeError:
        used = {"_args": _capture_value(list(args)), **_capture_fields(kwargs)}
    if upstream:
        used["_upstream"] = list(upstream)

    sampler = ctx.sampler(hostname)
    started_at = ctx.clock.now()
    task_id = ctx.next_task_id(started_at)
    doc: dict[str, Any] = {
        "task_id": task_id,
        "campaign_id": ctx.campaign_id,
        "workflow_id": ctx.workflow_id or "adhoc",  # provlint: disable=falsy-or-default - empty workflow id means unset
        "activity_id": activity_id,
        "used": used,
        "generated": {},
        "started_at": started_at,
        "ended_at": None,
        "duration": None,
        "hostname": hostname,
        "telemetry_at_start": sampler.sample().to_dict(),
        "telemetry_at_end": {},
        "status": TaskStatus.FINISHED.value,
        "type": "task",
    }

    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        doc["ended_at"] = ctx.clock.now()
        doc["status"] = TaskStatus.FAILED.value
        doc["generated"] = {"error": _capture_value(repr(exc))}
        _emit_ended(ctx, doc, sampler)
        raise
    doc["ended_at"] = ctx.clock.now()
    if isinstance(result, dict):
        doc["generated"] = _capture_fields(result)
    elif result is not None:
        doc["generated"] = {"result": _capture_value(result)}
    _emit_ended(ctx, doc, sampler)
    return result, task_id


def _emit_ended(ctx: CaptureContext, doc: dict[str, Any], sampler: Any) -> None:
    doc["duration"] = doc["ended_at"] - doc["started_at"]
    doc["telemetry_at_end"] = sampler.sample().to_dict()
    ctx.emit(doc)


def flow_task(
    activity_id: str | None = None,
    *,
    context: CaptureContext | None = None,
) -> Callable[[F], F]:
    """Decorate a function so each call emits a task provenance message.

    >>> @flow_task()
    ... def square(x):
    ...     return {"y": x * x}
    """

    def decorate(fn: F) -> F:
        act_id = activity_id or fn.__name__
        binder = _make_binder(fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ctx = kwargs.pop("_ctx", None) or context or CaptureContext.default()
            upstream = kwargs.pop("_upstream", None)
            hostname = kwargs.pop("_hostname", None)
            return capture_call(
                ctx, act_id, fn, binder, args, kwargs, upstream, hostname
            )[0]

        wrapper.activity_id = act_id  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate
