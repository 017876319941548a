"""cache-read-through: one place reads the store version before the store.

The versioned :class:`~repro.query.QueryCache` is only race-free when
the store's ``version()`` is read **before** the store itself and the
result is stored under that pre-read stamp.  With ``get``/``put`` as
the public surface every call site re-implements that ordering by hand,
and one that reads the version *after* its ``find`` caches rows a
concurrent write already changed under a stamp that still matches —
stale answers until the next write.  ``QueryCache.read_through`` owns
the ordering; this rule keeps it the only way in.

Flags ``<receiver>.get(key, version)`` / ``<receiver>.put(key, version,
value)`` where the receiver's last name contains ``cache`` (``cache``,
``self.cache``, ``service.query_cache``), in every file except
``cache.py`` itself.  Matching the argument count keeps a plain
``dict.get(key)`` memo named ``*_cache`` out of it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.registry import Rule, register


#: positional arity of the two halves ``read_through`` is made of
_ARITY = {"get": 2, "put": 3}


def _receiver_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


@register
class CacheReadThroughRule(Rule):
    id = "cache-read-through"
    summary = "QueryCache.get/put outside query/cache.py; use read_through"
    rationale = (
        "PR 4's versioned cache is race-free only when version() is read "
        "before the store; by PR 15 that ordering was hand-copied at four "
        "call sites, each one edit away from caching stale rows under a "
        "stamp that still matches"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.path.rsplit("/", 1)[-1] == "cache.py":
                continue
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and "cache" in _receiver_name(node.func.value).lower()
                    and _ARITY.get(node.func.attr)
                    == len(node.args) + len(node.keywords)
                ):
                    yield module.finding(
                        self.id,
                        node,
                        f"QueryCache.{node.func.attr}() outside query/cache.py "
                        f"— the caller now owns the version-before-read "
                        f"ordering and can get it wrong",
                        hint="cache.read_through(key, store, compute)",
                    )
