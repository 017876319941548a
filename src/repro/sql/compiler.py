"""Compiler: checked SQL AST -> the existing query IR.

Nothing here evaluates anything.  A SELECT lowers onto the same
:class:`~repro.query.ast.Pipeline` the pipeline dialect parses to, so
execution, predicate pushdown, shard routing and the versioned
:class:`~repro.query.QueryCache` are all inherited — a SQL query and its
pandas-like equivalent compile to *equal* IR and therefore share one
cache entry.

Lowering shape (mirroring SQL evaluation order)::

    WHERE               -> Filter
    GROUP BY + agg      -> GroupAgg          (AVG -> the IR's "mean")
    HAVING              -> Filter            (aggregate -> its output column)
    ORDER BY            -> Sort
    OFFSET / LIMIT      -> Skip / Head
    select list         -> Project           (last; ORDER BY may reference
                                              non-projected columns)
    COUNT(*)            -> RowCount          (scalar form)
    scalar aggregate    -> Agg
    SELECT DISTINCT col -> Unique            (Project + DropDuplicates when
                                              ordered/limited or multi-column)
"""

from __future__ import annotations

from repro.query import ast as q
from repro.sql import ast as sa
from repro.sql.errors import SqlUnsupportedError
from repro.sql.parser import parse_sql
from repro.sql.semantics import check_statement
from repro.utils.memo import text_memo

__all__ = ["compile_sql", "compile_statement"]


@text_memo
def compile_sql(source: str) -> q.Pipeline:
    """SQL text -> query-IR pipeline; raises a positioned :class:`SqlError`.

    A repeated statement answers from a bounded memo
    (:mod:`repro.utils.memo`); the result cache stays keyed on the IR.
    """
    statement = check_statement(parse_sql(source), source)
    return compile_statement(statement, source)


def compile_statement(statement: sa.SelectStatement,
                      source: str = "") -> q.Pipeline:
    """Lower a *checked* statement (see :func:`check_statement`)."""
    lower = _Lowering(source)
    return lower.statement(statement)


class _Lowering:
    def __init__(self, source: str):
        self.source = source

    def unsupported(self, message: str, pos: sa.Pos) -> SqlUnsupportedError:
        return SqlUnsupportedError(message, source=self.source,
                                   line=pos.line, column=pos.column)

    # -- statement -----------------------------------------------------------
    def statement(self, st: sa.SelectStatement) -> q.Pipeline:
        steps: list[q.Step] = []
        if st.where is not None:
            steps.append(q.Filter(self.predicate(st.where)))

        agg = self._the_aggregate(st)
        if st.group_by:
            assert agg is not None  # the checker guarantees it
            agg_column = self._agg_source_column(agg, st.group_by)
            key_paths = tuple(c.path for c in st.group_by)
            steps.append(
                q.GroupAgg(key_paths, agg_column,
                           sa.AGGREGATE_FUNCS[agg.func])
            )
            if st.having is not None:
                steps.append(
                    q.Filter(self.predicate(st.having, agg_column=agg_column))
                )
            self._frame_tail(steps, st, agg_column=agg_column)
            natural = list(key_paths) + [agg_column]
            selected = [
                item.expr.path if isinstance(item.expr, sa.ColumnRef)
                else agg_column
                for item in st.items
            ]
            if selected != natural:
                steps.append(q.Project(tuple(selected)))
            return q.Pipeline(tuple(steps))

        if agg is not None:
            if isinstance(agg.arg, sa.Star):
                steps.append(q.RowCount())
            else:
                steps.append(
                    q.Agg(agg.arg.path, sa.AGGREGATE_FUNCS[agg.func])
                )
            return q.Pipeline(tuple(steps))

        columns = tuple(
            item.expr.path for item in st.items
            if isinstance(item.expr, sa.ColumnRef)
        )
        if st.distinct:
            bare = (st.limit is None and st.offset is None
                    and not st.order_by)
            if len(columns) == 1 and bare:
                steps.append(q.Unique(columns[0]))
                return q.Pipeline(tuple(steps))
            # SQL's DISTINCT dedups the projected tuple before ORDER BY /
            # LIMIT apply, so projection moves ahead of the tail here
            steps.append(q.Project(columns))
            steps.append(q.DropDuplicates(()))
            self._frame_tail(steps, st)
            return q.Pipeline(tuple(steps))

        self._frame_tail(steps, st)
        if columns:
            steps.append(q.Project(columns))
        return q.Pipeline(tuple(steps))

    def _frame_tail(self, steps: list[q.Step], st: sa.SelectStatement,
                    *, agg_column: str | None = None) -> None:
        """Append Sort / Skip / Head for ORDER BY, OFFSET, LIMIT."""
        if st.order_by:
            keys = []
            ascending = []
            for item in st.order_by:
                if isinstance(item.expr, sa.FuncCall):
                    keys.append(agg_column)
                else:
                    keys.append(item.expr.path)
                ascending.append(item.ascending)
            steps.append(q.Sort(tuple(keys), tuple(ascending)))
        if st.offset is not None and st.offset > 0:
            steps.append(q.Skip(st.offset))
        if st.limit is not None:
            steps.append(q.Head(st.limit))

    def _the_aggregate(self, st: sa.SelectStatement) -> sa.FuncCall | None:
        for item in st.items:
            if isinstance(item.expr, sa.FuncCall):
                return item.expr
        return None

    def _agg_source_column(self, agg: sa.FuncCall,
                           group_by: tuple[sa.ColumnRef, ...]) -> str:
        if isinstance(agg.arg, sa.ColumnRef):
            return agg.arg.path
        # grouped COUNT(*): count any always-present column — the first
        # grouping key is non-null within its own group by construction
        return group_by[0].path

    # -- predicates ----------------------------------------------------------
    def predicate(self, pred: sa.SqlPredicate, *,
                  agg_column: str | None = None) -> q.Predicate:
        if isinstance(pred, sa.AndExpr):
            return q.And(self.predicate(pred.left, agg_column=agg_column),
                         self.predicate(pred.right, agg_column=agg_column))
        if isinstance(pred, sa.OrExpr):
            return q.Or(self.predicate(pred.left, agg_column=agg_column),
                        self.predicate(pred.right, agg_column=agg_column))
        if isinstance(pred, sa.NotExpr):
            return q.Not(self.predicate(pred.operand, agg_column=agg_column))
        if isinstance(pred, sa.Comparison):
            if isinstance(pred.left, sa.FuncCall):
                # HAVING AGG(col) <op> v: the grouped frame keeps the
                # aggregate under its source column name
                column = agg_column if agg_column is not None else \
                    self._agg_source_column(pred.left, ())
                return q.Compare(q.Field(column), pred.op, pred.value)
            return q.Compare(q.Field(pred.left.path), pred.op, pred.value)
        if isinstance(pred, sa.InList):
            base = q.IsIn(q.Field(pred.column.path), tuple(pred.values))
            return q.Not(base) if pred.negated else base
        if isinstance(pred, sa.LikePredicate):
            base = self.like(pred)
            return q.Not(base) if pred.negated else base
        if isinstance(pred, sa.BetweenPredicate):
            base = q.Between(q.Field(pred.column.path), pred.low, pred.high)
            return q.Not(base) if pred.negated else base
        if isinstance(pred, sa.NullTest):
            field = q.Field(pred.column.path)
            return q.NotNull(field) if pred.negated else q.IsNull(field)
        raise self.unsupported(
            f"cannot lower predicate {type(pred).__name__}", sa.Pos()
        )

    def like(self, pred: sa.LikePredicate) -> q.Predicate:
        """LIKE -> the IR's anchored string predicates.

        Only the three anchored shapes (``x%``, ``%x``, ``%x%``) and
        wildcard-free patterns translate; inner ``%`` or any ``_`` has
        no IR equivalent and is rejected explicitly.
        """
        pattern = pred.pattern
        field = q.Field(pred.column.path)
        starts = pattern.startswith("%")
        ends = pattern.endswith("%")
        inner = pattern[1 if starts else 0: len(pattern) - 1 if ends else
                        len(pattern)]
        if "%" in inner or "_" in pattern:
            raise self.unsupported(
                f"LIKE pattern {pattern!r} is not supported; only 'x%', "
                "'%x', '%x%' and wildcard-free patterns translate",
                pred.pos,
            )
        if starts and ends:
            return q.StrContains(field, inner)
        if ends:
            return q.StrStartsWith(field, inner)
        if starts:
            return q.StrEndsWith(field, inner)
        return q.Compare(field, "==", inner)
