"""Bounded memo for pure ``text -> frozen value`` compilers.

:func:`repro.sql.compile_sql` and :func:`repro.query.parse_query` are
pure functions of their text and return frozen IR, and interactive
traffic repeats a handful of statements, so both answer a repeated text
from this memo instead of re-lexing and re-parsing it.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Any, Callable

__all__ = ["text_memo", "MEMO_MAX_ENTRIES", "MEMO_MAX_CHARS"]

#: how many texts one memo holds, and the longest text it will hold as a
#: key — text arrives from models and remote clients, so the memory a
#: memo retains is capped at the product of the two
MEMO_MAX_ENTRIES = 256
MEMO_MAX_CHARS = 2048


def text_memo(compile_: Callable[[str], Any]) -> Callable[[str], Any]:
    """Memoise ``compile_`` on its exact text.

    Keyed on the text as given, so whitespace or case variants are
    separate slots (compiling to equal values).  Only successes are
    kept — ``lru_cache`` never stores a raised exception — so a failing
    text is re-diagnosed, identically, every time.  Thread-safe; two
    threads missing on one text may both compile it.  The LRU is
    exposed as ``.memo`` (``cache_info()`` / ``cache_clear()``).
    """
    cached = lru_cache(maxsize=MEMO_MAX_ENTRIES)(compile_)

    @wraps(compile_)
    def memoised(text: str) -> Any:
        return cached(text) if len(text) <= MEMO_MAX_CHARS else compile_(text)

    memoised.memo = cached
    return memoised
