"""Rule-by-rule fixture suite: each rule fires on the seeded bug shape,
stays quiet on the corrected shape, and respects suppressions.

The fixtures deliberately reintroduce the repo's historical bugs in
miniature (the PR 6 ``cache or QueryCache()`` shape, the
``MessageBuffer`` publish-under-lock shape, a buffered WAL open) so a
rule regression shows up as "the seeded bug stopped being caught".
"""

from __future__ import annotations

import textwrap

from repro.analysis import run_analysis


def run_on(tmp_path, **files):
    for name, source in files.items():
        path = tmp_path / name.replace("__", "/")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_analysis([str(tmp_path)])


def rules_of(result):
    return [f.rule for f in result.findings]


class TestFalsyOrDefault:
    def test_param_or_constructor_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                class QueryAPI:
                    def __init__(self, store, cache=None):
                        self.cache = cache or QueryCache()
                """
            },
        )
        assert rules_of(result) == ["falsy-or-default"]
        assert result.findings[0].line == 3
        assert "cache" in result.findings[0].message
        assert result.findings[0].hint

    def test_attribute_or_literal_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def render(intent):
                    return intent.limit or 1
                """
            },
        )
        assert rules_of(result) == ["falsy-or-default"]

    def test_is_none_rewrite_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                class QueryAPI:
                    def __init__(self, store, cache=None):
                        self.cache = cache if cache is not None else QueryCache()
                """
            },
        )
        assert result.findings == []

    def test_boolean_test_positions_are_logic_not_defaults(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f(a=None, b=None):
                    if a or b():
                        return 1
                    while a or b():
                        pass
                    assert a or b()
                    return [x for x in range(3) if a or b()]
                """
            },
        )
        assert result.findings == []

    def test_or_none_normalisation_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f(x=None):
                    return x or None
                """
            },
        )
        assert result.findings == []

    def test_local_variable_or_default_not_flagged(self, tmp_path):
        # locals are assigned nearby and reviewable; the rule targets
        # injected parameters and stored state
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f():
                    x = compute()
                    return x or dict()
                """
            },
        )
        assert result.findings == []

    def test_nested_function_params_tracked_separately(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def outer():
                    def inner(cache=None):
                        return cache or dict()
                    return inner
                """
            },
        )
        assert rules_of(result) == ["falsy-or-default"]

    def test_suppressed(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f(body=None):
                    return body or b"{}"  # provlint: disable=falsy-or-default - empty body means empty object
                """
            },
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


BUFFER_BUG = """\
import threading


class MessageBuffer:
    def __init__(self, broker):
        self.broker = broker
        self._pending = []
        self._lock = threading.Lock()

    def append(self, payload):
        with self._lock:
            self._pending.append(payload)
            self._flush_locked()

    def _flush_locked(self):
        self.broker.publish_batch("topic", self._pending)
        self._pending = []
"""


class TestBlockingCallUnderLock:
    def test_publish_under_lock_through_helper_fires(self, tmp_path):
        # the real MessageBuffer bug: the blocking call is one helper
        # frame below the ``with self._lock:`` body — only the call
        # graph sees it
        result = run_on(tmp_path, **{"m.py": BUFFER_BUG})
        assert "blocking-call-under-lock" in rules_of(result)
        finding = next(
            f for f in result.findings if f.rule == "blocking-call-under-lock"
        )
        assert "publish_batch" in finding.message
        assert "_lock" in finding.message
        # the chain names the path from the locked frame to the call
        assert any("_flush_locked" in hop for hop in finding.detail["chain"])

    def test_direct_blocking_call_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading, time


                class Poller:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def tick(self):
                        with self._lock:
                            time.sleep(0.1)
                """
            },
        )
        assert rules_of(result) == ["blocking-call-under-lock"]

    def test_callback_shaped_name_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Registry:
                    def __init__(self, on_change):
                        self._lock = threading.Lock()
                        self.on_change = on_change

                    def set(self, v):
                        with self._lock:
                            self.value = v
                            self.on_change(v)
                """
            },
        )
        assert rules_of(result) == ["blocking-call-under-lock"]

    def test_snapshot_then_publish_outside_lock_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class MessageBuffer:
                    def __init__(self, broker):
                        self.broker = broker
                        self._pending = []
                        self._lock = threading.Lock()

                    def append(self, payload):
                        with self._lock:
                            self._pending.append(payload)
                            batch, self._pending = self._pending, []
                        self.broker.publish_batch("topic", batch)
                """
            },
        )
        assert result.findings == []

    def test_condition_wait_idiom_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Gate:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._cond = threading.Condition(self._lock)

                    def wait_open(self):
                        with self._cond:
                            self._cond.wait()

                    def open(self):
                        with self._cond:
                            self._cond.notify_all()
                """
            },
        )
        assert result.findings == []

    def test_durable_py_is_exempt(self, tmp_path):
        # WAL-under-lock is the durability design, policed by
        # wal-write-discipline instead
        result = run_on(
            tmp_path,
            **{
                "durable.py": """\
                import os, threading


                class Store:
                    def __init__(self, seg):
                        self._lock = threading.RLock()
                        self._seg_file = seg

                    def commit(self, framed):
                        with self._lock:
                            self._seg_file.write(framed)
                            os.fsync(self._seg_file.fileno())
                """
            },
        )
        assert "blocking-call-under-lock" not in rules_of(result)

    def test_suppressed(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Server:
                    def __init__(self):
                        self._lifecycle = threading.Lock()

                    def stop(self, thread):
                        with self._lifecycle:
                            thread.join(timeout=5)  # provlint: disable=blocking-call-under-lock - lifecycle mutex
                """
            },
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestLockOrdering:
    def test_inverted_order_cycle_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Store:
                    def __init__(self):
                        self._shard_lock = threading.Lock()
                        self._stray_lock = threading.Lock()

                    def upsert(self):
                        with self._shard_lock:
                            with self._stray_lock:
                                pass

                    def reap(self):
                        with self._stray_lock:
                            with self._shard_lock:
                                pass
                """
            },
        )
        assert "lock-ordering" in rules_of(result)
        finding = next(f for f in result.findings if f.rule == "lock-ordering")
        assert "cycle" in finding.message

    def test_consistent_global_order_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Store:
                    def __init__(self):
                        self._shard_lock = threading.Lock()
                        self._stray_lock = threading.Lock()

                    def upsert(self):
                        with self._shard_lock:
                            with self._stray_lock:
                                pass

                    def count(self):
                        with self._shard_lock:
                            with self._stray_lock:
                                pass
                """
            },
        )
        assert result.findings == []

    def test_nonreentrant_reacquire_through_callee_fires(self, tmp_path):
        # the deadlock class the MessageBuffer fix removed: a helper
        # re-takes a plain threading.Lock the caller already holds
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Buf:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def flush(self):
                        with self._lock:
                            self.pending_count()

                    def pending_count(self):
                        with self._lock:
                            return 0
                """
            },
        )
        assert "lock-ordering" in rules_of(result)
        finding = next(f for f in result.findings if f.rule == "lock-ordering")
        assert "non-reentrant" in finding.message

    def test_rlock_reacquire_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                import threading


                class Buf:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def flush(self):
                        with self._lock:
                            self.pending_count()

                    def pending_count(self):
                        with self._lock:
                            return 0
                """
            },
        )
        assert result.findings == []


class TestExceptionContract:
    def test_bare_except_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f():
                    try:
                        return 1
                    except:
                        return 2
                """
            },
        )
        assert rules_of(result) == ["exception-contract"]
        assert "bare" in result.findings[0].message

    def test_silent_swallow_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f():
                    try:
                        return 1
                    except Exception:
                        pass
                """
            },
        )
        assert rules_of(result) == ["exception-contract"]

    def test_handled_broad_except_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f(log):
                    try:
                        return 1
                    except Exception as exc:
                        log.warning("boom: %s", exc)
                        return None
                """
            },
        )
        assert result.findings == []

    def test_api_error_envelope_code_outside_stable_set_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "api__schemas.py": """\
                class ErrorCode:
                    NOT_FOUND = "not_found"
                    INTERNAL = "internal"
                """,
                "api__handlers.py": """\
                def handle():
                    return ErrorEnvelope(code="whoopsie", message="x")
                """,
            },
        )
        assert rules_of(result) == ["exception-contract"]
        assert "whoopsie" in result.findings[0].message

    def test_api_stable_code_and_raise_typed_are_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "api__schemas.py": """\
                class ErrorCode:
                    NOT_FOUND = "not_found"
                """,
                "api__handlers.py": """\
                def handle():
                    return ErrorEnvelope(code="not_found", message="x")

                def explode():
                    raise ValueError("typed")
                """,
            },
        )
        assert result.findings == []

    def test_api_raise_bare_exception_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "api__handlers.py": """\
                def handle():
                    raise Exception("untyped")
                """,
            },
        )
        assert rules_of(result) == ["exception-contract"]

    def test_suppressed_alongside_noqa(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "m.py": """\
                def f(sock):
                    try:
                        sock.close()
                    except Exception:  # noqa: BLE001; provlint: disable=exception-contract - socket already gone
                        pass
                """
            },
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestSchemaDiscipline:
    def test_unfrozen_dataclass_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "schemas.py": """\
                from dataclasses import dataclass


                @dataclass
                class QueryRequest:
                    filter: dict | None = None
                """
            },
        )
        assert rules_of(result) == ["schema-discipline"]
        assert "frozen" in result.findings[0].message

    def test_mutable_literal_default_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "schemas.py": """\
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class StatsReply:
                    counts: dict = {}
                """
            },
        )
        assert rules_of(result) == ["schema-discipline"]
        assert "mutable" in result.findings[0].message

    def test_jsonable_without_registration_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "schemas.py": """\
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class Orphan:
                    x: int = 0

                    def _jsonable(self):
                        return {"x": self.x}


                SCHEMA_TYPES = {}
                """
            },
        )
        assert rules_of(result) == ["schema-discipline"]
        assert "SCHEMA_TYPES" in result.findings[0].message

    def test_registered_without_parse_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "schemas.py": """\
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class HalfPair:
                    x: int = 0

                    def _jsonable(self):
                        return {"x": self.x}


                SCHEMA_TYPES = {"v1/half": HalfPair}
                """
            },
        )
        assert rules_of(result) == ["schema-discipline"]
        assert "_parse" in result.findings[0].message

    def test_well_formed_schema_module_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "schemas.py": """\
                from dataclasses import dataclass, field


                @dataclass(frozen=True)
                class StatsReply:
                    counts: dict = field(default_factory=dict)

                    def _jsonable(self):
                        return {"counts": dict(self.counts)}

                    @classmethod
                    def _parse(cls, data):
                        return cls(counts=dict(data["counts"]))


                SCHEMA_TYPES = {"v1/stats_reply": StatsReply}
                """
            },
        )
        assert result.findings == []

    def test_rule_scoped_to_schemas_py(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "models.py": """\
                from dataclasses import dataclass


                @dataclass
                class InternalState:
                    counter: int = 0
                """
            },
        )
        assert result.findings == []


class TestWalWriteDiscipline:
    def test_two_writes_per_record_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "durable.py": """\
                class Store:
                    def append(self, header, payload):
                        self._seg_file.write(header)
                        self._seg_file.write(payload)
                """
            },
        )
        assert rules_of(result) == ["wal-write-discipline"]
        assert "2 times" in result.findings[0].message

    def test_write_in_loop_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "durable.py": """\
                class Store:
                    def append_all(self, frames):
                        for frame in frames:
                            self._seg_file.write(frame)
                """
            },
        )
        assert rules_of(result) == ["wal-write-discipline"]
        assert "loop" in result.findings[0].message

    def test_buffered_binary_open_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "durable.py": """\
                def open_append(path):
                    return open(path, "ab")
                """
            },
        )
        assert rules_of(result) == ["wal-write-discipline"]
        assert "buffering=0" in result.findings[0].message

    def test_writelines_fires(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "durable.py": """\
                class Store:
                    def append_all(self, fobj, frames):
                        fobj.writelines(frames)
                """
            },
        )
        assert rules_of(result) == ["wal-write-discipline"]

    def test_single_framed_unbuffered_write_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "durable.py": """\
                def open_append(path):
                    return open(path, "ab", buffering=0)


                class Store:
                    def append(self, header, payload):
                        framed = header + payload
                        self._seg_file.write(framed)
                """
            },
        )
        assert result.findings == []

    def test_rule_scoped_to_durable_py(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "exporter.py": """\
                class Exporter:
                    def dump(self, fobj, rows):
                        for row in rows:
                            fobj.write(row)
                """
            },
        )
        assert result.findings == []


class TestCacheReadThrough:
    def test_hand_copied_get_put_fires(self, tmp_path):
        # the shape three call sites carried until read_through: here
        # with the version read AFTER the store read, the bug it invites
        result = run_on(
            tmp_path,
            **{
                "query_api.py": """\
                class QueryAPI:
                    def to_frame(self, filt):
                        docs = self.database.find(filt)
                        version = self.database.version()
                        cached = self.cache.get(("to_frame", filt), version)
                        if cached is not MISS:
                            return cached
                        frame = build(docs)
                        self.cache.put(("to_frame", filt), version, frame)
                        return frame
                """
            },
        )
        assert rules_of(result) == ["cache-read-through"] * 2
        assert [f.line for f in result.findings] == [5, 9]
        assert "read_through" in result.findings[0].hint

    def test_bare_and_nested_receivers_fire(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "engine.py": """\
                def run(cache, service, key, version):
                    hit = cache.get(key, version)
                    service.query_cache.put(key, version, hit)
                """
            },
        )
        assert rules_of(result) == ["cache-read-through"] * 2

    def test_read_through_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "query_api.py": """\
                class QueryAPI:
                    def to_frame(self, filt):
                        frame, _hit, _version = self.cache.read_through(
                            ("to_frame", filt), self.database,
                            lambda: build(self.database.find(filt)),
                        )
                        return frame
                """
            },
        )
        assert result.findings == []

    def test_cache_module_itself_and_plain_dict_memos_are_exempt(self, tmp_path):
        result = run_on(
            tmp_path,
            **{
                "query__cache.py": """\
                class QueryCache:
                    def read_through(self, key, store, compute):
                        version = store.version()
                        value = self.cache.get(key, version)
                        self.cache.put(key, version, value)
                """,
                "prompts.py": """\
                _BUILDER_CACHE = {}

                def cached_builder(config):
                    return _BUILDER_CACHE.get(config)
                """,
            },
        )
        assert result.findings == []
