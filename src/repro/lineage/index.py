"""Incrementally maintained task-lineage index.

:class:`ProvenanceGraph` answers traversal questions by scanning every
stored document and rebuilding a networkx graph per query — fine for a
post-mortem, an anti-pattern for the interactive path (§5.4): lineage
answers get slower as the store grows.  :class:`LineageIndex` maintains
the same graph *incrementally* as provenance messages stream in, so a
traversal costs O(answer), not O(store).

Edge semantics are identical to :class:`ProvenanceGraph` by
construction (the parity benchmark and hypothesis tests assert it):

* **control** edges follow ``used._upstream`` parent declarations, and
  only materialise once both endpoints have been observed (out-of-order
  arrivals park in a pending table until the parent shows up);
* **data** edges link a producer of a ``generated`` scalar to every
  consumer that ``used`` the same ``(name, value)`` pair, via the same
  :func:`repro.provenance.graph._value_key` identity (bools and trivial
  numbers never link; self-links are suppressed).

Documents arrive through the same lifecycle as the database: re-delivery
of a ``task_id`` merges exactly like
:meth:`ProvenanceDatabase.upsert` (non-``None`` fields win), the old
document's edge contributions are retracted, and the new ones applied —
so RUNNING -> FINISHED updates, repeated batches, and keeper +
standalone-service double-feeding all converge to the scan-built graph.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterable, Mapping

from repro.errors import ProvenanceError
from repro.provenance.graph import UPSTREAM_FIELD, ProvenanceGraph, _value_key
from repro.storage.documents import merge_upsert_doc

__all__ = ["LineageIndex"]

_CONTROL = 0
_DATA = 1


def _merge_doc(
    old: Mapping[str, Any] | None, new: Mapping[str, Any]
) -> dict[str, Any]:
    """The database's upsert merge, with no prior document allowed."""
    if old is None:
        return dict(new)
    return merge_upsert_doc(old, new)


def _upstream_ids(doc: Mapping[str, Any]) -> tuple[str, ...]:
    upstream = (doc.get("used") or {}).get(UPSTREAM_FIELD) or []
    if isinstance(upstream, str):
        upstream = [upstream]
    # preserve declaration order, drop duplicates (one edge per parent)
    return tuple(dict.fromkeys(upstream))


def _producer_keys(doc: Mapping[str, Any]) -> frozenset:
    return frozenset(
        key
        for name, value in (doc.get("generated") or {}).items()
        if (key := _value_key(name, value)) is not None
    )


def _consumer_keys(doc: Mapping[str, Any]) -> frozenset:
    return frozenset(
        key
        for name, value in (doc.get("used") or {}).items()
        if name != UPSTREAM_FIELD
        and (key := _value_key(name, value)) is not None
    )


class LineageIndex:
    """Live adjacency store over streamed task provenance.

    All public methods are thread-safe; the broker delivers on publisher
    threads while the agent queries from its own.
    """

    def __init__(self, *, record_types: tuple[str, ...] | None = ("task",)) -> None:
        #: which record types participate in lineage.  Task records only
        #: by default: workflow/run and agent records would show up as
        #: isolated nodes and pollute roots/leaves.  ``None`` accepts
        #: everything; documents *without* a ``type`` field always pass
        #: (raw test fixtures), matching a scan over the same documents.
        self._record_types = record_types
        self._lock = threading.RLock()
        # task_id -> node metadata (insertion-ordered, like nx node order)
        self._nodes: dict[str, dict[str, Any]] = {}
        self._docs: dict[str, dict[str, Any]] = {}
        # adjacency: u -> v -> [control_count, data_count] (and mirrored)
        self._out: dict[str, dict[str, list[int]]] = {}
        self._in: dict[str, dict[str, list[int]]] = {}
        # dataflow matching tables
        self._producers: dict[Any, set[str]] = {}
        self._consumers: dict[Any, set[str]] = {}
        # per-task ledgers so re-upserts can retract precisely
        self._task_upstream: dict[str, tuple[str, ...]] = {}
        self._task_prod: dict[str, frozenset] = {}
        self._task_cons: dict[str, frozenset] = {}
        # control edges waiting for their parent: parent -> {child, ...}
        self._pending_control: dict[str, set[str]] = {}
        # workflow_id -> node count, so workflows() is O(workflows)
        # instead of an O(tasks) metadata scan per (NL-parsed) query
        self._wf_counts: dict[str, int] = {}
        self.applied_count = 0
        self.updated_count = 0

    # -- maintenance ------------------------------------------------------------
    def apply(self, doc: Mapping[str, Any]) -> bool:
        """Fold one provenance document in; True if the index changed."""
        with self._lock:
            return self._apply_locked(doc)

    def apply_many(self, docs: Iterable[Mapping[str, Any]]) -> int:
        """Fold a batch under one lock acquisition; returns change count."""
        with self._lock:
            return sum(1 for d in docs if self._apply_locked(d))

    def _apply_locked(self, doc: Mapping[str, Any]) -> bool:
        tid = doc.get("task_id")
        if not tid:
            return False
        rtype = doc.get("type")
        if (
            rtype is not None
            and self._record_types is not None
            and rtype not in self._record_types
        ):
            return False
        old = self._docs.get(tid)
        merged = _merge_doc(old, doc)
        if old is not None:
            if merged == old:
                return False  # idempotent re-delivery
            self._retract(tid)
            self.updated_count += 1
        self._docs[tid] = merged
        old_meta = self._nodes.get(tid)
        is_new = old_meta is None
        self._nodes[tid] = {
            "activity_id": merged.get("activity_id"),
            "workflow_id": merged.get("workflow_id"),
            "status": merged.get("status"),
        }
        new_wf = merged.get("workflow_id")
        old_wf = None if is_new else old_meta.get("workflow_id")
        if old_wf != new_wf:
            if old_wf:
                remaining = self._wf_counts[old_wf] - 1
                if remaining:
                    self._wf_counts[old_wf] = remaining
                else:
                    del self._wf_counts[old_wf]
            if new_wf:
                self._wf_counts[new_wf] = self._wf_counts.get(new_wf, 0) + 1
        if is_new:
            # the parent side of parked control edges just arrived
            for child in self._pending_control.pop(tid, ()):
                self._edge_inc(tid, child, _CONTROL)

        parents = _upstream_ids(merged)
        self._task_upstream[tid] = parents
        for parent in parents:
            if parent in self._nodes:
                self._edge_inc(parent, tid, _CONTROL)
            else:
                self._pending_control.setdefault(parent, set()).add(tid)

        prod = _producer_keys(merged)
        self._task_prod[tid] = prod
        for key in prod:
            for consumer in self._consumers.get(key, ()):
                if consumer != tid:
                    self._edge_inc(tid, consumer, _DATA)
            self._producers.setdefault(key, set()).add(tid)

        cons = _consumer_keys(merged)
        self._task_cons[tid] = cons
        for key in cons:
            for producer in self._producers.get(key, ()):
                if producer != tid:
                    self._edge_inc(producer, tid, _DATA)
            self._consumers.setdefault(key, set()).add(tid)

        self.applied_count += 1
        return True

    def _retract(self, tid: str) -> None:
        """Undo one task's edge contributions (before re-applying)."""
        for parent in self._task_upstream.pop(tid, ()):
            waiting = self._pending_control.get(parent)
            if waiting is not None and tid in waiting:
                waiting.discard(tid)
                if not waiting:
                    del self._pending_control[parent]
            else:
                self._edge_dec(parent, tid, _CONTROL)
        for key in self._task_prod.pop(tid, ()):
            self._producers[key].discard(tid)
            if not self._producers[key]:
                del self._producers[key]
            for consumer in self._consumers.get(key, ()):
                if consumer != tid:
                    self._edge_dec(tid, consumer, _DATA)
        for key in self._task_cons.pop(tid, ()):
            self._consumers[key].discard(tid)
            if not self._consumers[key]:
                del self._consumers[key]
            for producer in self._producers.get(key, ()):
                if producer != tid:
                    self._edge_dec(producer, tid, _DATA)

    def _edge_inc(self, u: str, v: str, kind: int) -> None:
        counts = self._out.setdefault(u, {}).get(v)
        if counts is None:
            counts = [0, 0]
            self._out[u][v] = counts
            self._in.setdefault(v, {})[u] = counts
        counts[kind] += 1

    def _edge_dec(self, u: str, v: str, kind: int) -> None:
        counts = self._out.get(u, {}).get(v)
        if counts is None:
            return
        counts[kind] -= 1
        if counts[_CONTROL] <= 0 and counts[_DATA] <= 0:
            del self._out[u][v]
            del self._in[v][u]
            if not self._out[u]:
                del self._out[u]
            if not self._in[v]:
                del self._in[v]

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def __contains__(self, task_id: str) -> bool:
        with self._lock:
            return task_id in self._nodes

    @property
    def edge_count(self) -> int:
        with self._lock:
            return sum(len(targets) for targets in self._out.values())

    def node(self, task_id: str) -> dict[str, Any]:
        with self._lock:
            self._check(task_id)
            return dict(self._nodes[task_id])

    def workflows(self) -> list[str]:
        with self._lock:
            return list(self._wf_counts)

    def stats(self) -> dict[str, int]:
        with self._lock:
            control = data = 0
            for targets in self._out.values():
                for counts in targets.values():
                    if counts[_CONTROL] > 0:
                        control += 1
                    if counts[_DATA] > 0:
                        data += 1
            return {
                "tasks": len(self._nodes),
                "edges": sum(len(t) for t in self._out.values()),
                "control_edges": control,
                "data_edges": data,
                "pending_control": sum(
                    len(c) for c in self._pending_control.values()
                ),
            }

    def _check(self, task_id: str) -> None:
        if task_id not in self._nodes:
            raise ProvenanceError(f"unknown task {task_id!r}")

    # -- traversal ----------------------------------------------------------------
    def parents(self, task_id: str) -> list[str]:
        with self._lock:
            self._check(task_id)
            return list(self._in.get(task_id, ()))

    def children(self, task_id: str) -> list[str]:
        with self._lock:
            self._check(task_id)
            return list(self._out.get(task_id, ()))

    def upstream(self, task_id: str, max_depth: int | None = None) -> set[str]:
        """Ancestors within ``max_depth`` hops (all of them when None)."""
        return self._reach(task_id, self._in, max_depth)

    def downstream(self, task_id: str, max_depth: int | None = None) -> set[str]:
        """Descendants within ``max_depth`` hops (all of them when None)."""
        return self._reach(task_id, self._out, max_depth)

    def _reach(
        self,
        task_id: str,
        adjacency: Mapping[str, Mapping[str, Any]],
        max_depth: int | None,
    ) -> set[str]:
        with self._lock:
            self._check(task_id)
            seen: set[str] = set()
            frontier = deque([(task_id, 0)])
            while frontier:
                node, depth = frontier.popleft()
                if max_depth is not None and depth >= max_depth:
                    continue
                for neighbour in adjacency.get(node, ()):
                    if neighbour not in seen and neighbour != task_id:
                        seen.add(neighbour)
                        frontier.append((neighbour, depth + 1))
            return seen

    def causal_chain(self, source: str, target: str) -> list[str] | None:
        """Shortest dependency path source -> target, None when unrelated."""
        with self._lock:
            self._check(source)
            self._check(target)
            if source == target:
                return [source]
            came_from: dict[str, str] = {}
            frontier = deque([source])
            while frontier:
                node = frontier.popleft()
                for neighbour in self._out.get(node, ()):
                    if neighbour in came_from or neighbour == source:
                        continue
                    came_from[neighbour] = node
                    if neighbour == target:
                        path = [target]
                        while path[-1] != source:
                            path.append(came_from[path[-1]])
                        return path[::-1]
                    frontier.append(neighbour)
            return None

    def roots(self) -> list[str]:
        with self._lock:
            return [n for n in self._nodes if not self._in.get(n)]

    def leaves(self) -> list[str]:
        with self._lock:
            return [n for n in self._nodes if not self._out.get(n)]

    def is_acyclic(self) -> bool:
        with self._lock:
            return self._topo_order(self._nodes) is not None

    def _topo_order(self, nodes: Mapping[str, Any]) -> list[str] | None:
        """Kahn's algorithm over a node subset; None when cyclic.

        ``nodes`` is a mapping keyed by task id; the queue is seeded in
        its (arrival) order.
        """
        indeg = {
            n: sum(1 for p in self._in.get(n, ()) if p in nodes and p != n)
            for n in nodes
        }
        ready = deque(n for n in nodes if indeg[n] == 0)
        order: list[str] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for child in self._out.get(node, ()):
                if child in nodes and child != node:
                    indeg[child] -= 1
                    if indeg[child] == 0:
                        ready.append(child)
        # a self-loop is a cycle: it never reaches the ready queue
        if len(order) != len(nodes) or any(
            n in self._out.get(n, ()) for n in nodes
        ):
            return None
        return order

    def critical_path(self, workflow_id: str | None = None) -> list[str]:
        """Longest chain of dependent tasks (optionally one workflow's).

        Equally long chains tie on arrival order — the earliest-arrived
        tail, and per node the earliest-arrived parent — so the answer
        does not depend on string hashing.
        """
        with self._lock:
            members: Iterable[str] = self._nodes
            if workflow_id is not None:
                members = [
                    n
                    for n, meta in self._nodes.items()
                    if meta.get("workflow_id") == workflow_id
                ]
            # task id -> arrival rank within the subset
            rank = {n: i for i, n in enumerate(members)}
            order = self._topo_order(rank)
            if order is None:
                raise ProvenanceError("critical path requires an acyclic graph")
            if not order:
                return []
            # longest-path DP in topological order
            best_len: dict[str, int] = {}
            best_prev: dict[str, str | None] = {}
            for node in order:
                length, prev = 0, None
                for parent in self._in.get(node, ()):
                    if parent not in rank:
                        continue
                    via = best_len[parent] + 1
                    if via > length or (via == length and rank[parent] < rank[prev]):
                        length, prev = via, parent
                best_len[node] = length
                best_prev[node] = prev
            tail = max(rank, key=best_len.__getitem__)
            path = [tail]
            while best_prev[path[-1]] is not None:
                path.append(best_prev[path[-1]])  # type: ignore[arg-type]
            return path[::-1]

    def impact_sizes(
        self, task_ids: Iterable[str] | None = None
    ) -> dict[str, int]:
        """Descendant-set size per task (how much each task influenced)."""
        with self._lock:
            ids = list(task_ids) if task_ids is not None else list(self._nodes)
            return {tid: len(self.downstream(tid)) for tid in ids}

    # -- snapshot export ----------------------------------------------------------
    def to_provenance_graph(self) -> ProvenanceGraph:
        """Materialise the live index as a :class:`ProvenanceGraph`.

        The export observes the same last-writer-wins ``kind`` attribute
        networkx gives the scan-built graph (data edges are added after
        control edges there, so a pair connected both ways reads
        ``data``).
        """
        with self._lock:
            pg = ProvenanceGraph([])
            for tid, meta in self._nodes.items():
                pg.graph.add_node(tid, **meta)
            for u, targets in self._out.items():
                for v, counts in targets.items():
                    kind = "data" if counts[_DATA] > 0 else "control"
                    pg.graph.add_edge(u, v, kind=kind)
            return pg
