"""The compiled-statement memos in front of ``compile_sql`` / ``parse_query``.

Both compilers are pure functions of their text returning frozen IR, so
a repeated text answers from a bounded memo.  What must hold: only
successes are kept (a failing text re-diagnoses identically every
time), the memo is keyed on the exact text while the result cache stays
keyed on IR, it is bounded in entries and in retained text, and
concurrent callers get equal IR.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import QuerySyntaxError
from repro.query import parse_query
from repro.sql import SqlError, compile_sql
from repro.utils.memo import MEMO_MAX_CHARS, MEMO_MAX_ENTRIES

SQL = "SELECT status, COUNT(*) FROM tasks GROUP BY status"
CODE = "df[df['status'] == 'FAILED'].head(5)"

#: (compile function, a valid text, an invalid text, the error it
#:  raises, a template producing distinct valid texts)
COMPILERS = [
    pytest.param(
        compile_sql, SQL, "SELECT * FROM tasks WHERE", SqlError,
        "SELECT task_id FROM tasks LIMIT {n}",
        id="sql",
    ),
    pytest.param(
        parse_query, CODE, "df.!!!", QuerySyntaxError, "df.head({n})",
        id="pipeline",
    ),
]


@pytest.fixture(autouse=True)
def _fresh_memos():
    compile_sql.memo.cache_clear()
    parse_query.memo.cache_clear()
    yield


@pytest.mark.parametrize("compile_, good, bad, error, template", COMPILERS)
class TestMemo:
    def test_repeat_is_a_memo_hit_with_the_same_ir(
        self, compile_, good, bad, error, template
    ):
        first = compile_(good)
        assert compile_(good) is first
        info = compile_.memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_failures_are_never_memoised(
        self, compile_, good, bad, error, template
    ):
        messages = []
        for _ in range(3):
            with pytest.raises(error) as caught:
                compile_(bad)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1
        info = compile_.memo.cache_info()
        assert info.currsize == 0 and info.misses == 3

    def test_text_variants_are_separate_slots_of_equal_ir(
        self, compile_, good, bad, error, template
    ):
        variants = [good, f"  {good}", good.replace(" ", "  "), f"{good}\n"]
        compiled = [compile_(text) for text in variants]
        assert all(ir == compiled[0] for ir in compiled)
        assert compile_.memo.cache_info().currsize == len(set(variants)) == 4

    def test_bounded_in_entries(
        self, compile_, good, bad, error, template
    ):
        assert compile_.memo.cache_info().maxsize == MEMO_MAX_ENTRIES
        for n in range(MEMO_MAX_ENTRIES + 25):
            compile_(template.format(n=n))
        assert compile_.memo.cache_info().currsize == MEMO_MAX_ENTRIES

    def test_over_length_text_bypasses_the_memo(
        self, compile_, good, bad, error, template
    ):
        long_text = good + " " * (MEMO_MAX_CHARS + 1 - len(good))
        assert len(long_text) == MEMO_MAX_CHARS + 1
        assert compile_(long_text) == compile_(long_text) == compile_(good)
        info = compile_.memo.cache_info()
        assert (info.currsize, info.misses) == (1, 1)  # only the short text
        # the longest text the memo does keep
        compile_(long_text[:-1])
        assert compile_.memo.cache_info().currsize == 2

    def test_concurrent_compiles_return_equal_ir(
        self, compile_, good, bad, error, template
    ):
        expected = compile_(good)
        compile_.memo.cache_clear()
        results: list = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot: int) -> None:
            barrier.wait(timeout=10)
            results[slot] = [compile_(good) for _ in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(
            batch is not None and all(ir == expected for ir in batch)
            for batch in results
        )
        assert compile_.memo.cache_info().currsize == 1


def test_sql_case_variants_compile_to_equal_ir_in_separate_slots():
    lower = "select status, count(*) from tasks group by status"
    assert compile_sql(lower) == compile_sql(SQL)
    assert compile_sql.memo.cache_info().currsize == 2
