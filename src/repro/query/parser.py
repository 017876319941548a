"""Parser: pandas-like query code -> :class:`~repro.query.ast.Pipeline`.

A hand-written tokeniser + recursive-descent parser over the surface
syntax the agent (and the simulated LLMs) emit.  Anything outside the
grammar raises :class:`~repro.errors.QuerySyntaxError` with the offending
position — the judge treats that as a syntax failure, exactly like the
paper's rule for invalid generated code.

Supported grammar (informally)::

    query    := "len(" chain ")" | chain
    chain    := "df" postfix*
    postfix  := "[" ( STRING | strlist | predicate ) "]"
              | ".sort_values(" sortargs ")"
              | ".head(" INT ")" | ".tail(" INT ")" | ".iloc[" INT ":]"
              | ".groupby(" keys ")" "[" STRING "]" "." AGG "()"
              | ".drop_duplicates(" ["subset=" strlist] ")"
              | ".nlargest(" INT "," STRING ")"     (desugars to sort+head)
              | ".nsmallest(" INT "," STRING ")"
              | "." AGG "()"        (after a column select)
              | ".unique()"         (after a column select)
    predicate  := orexpr ; orexpr := andexpr ("|" andexpr)* ; ...
    comparison := "df[" STRING "]" ( OP literal | ".str.contains(...)"
                 | ".isin([...])" | ".between(a, b)" | ".notna()" | ".isna()"
                 | ".str.startswith(...)" | ".str.endswith(...)" )
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import QuerySyntaxError
from repro.query import ast as q
from repro.dataframe.aggregations import is_known as is_known_agg
from repro.utils.memo import text_memo

__all__ = ["parse_query", "tokenize"]


# ---------------------------------------------------------------------------
# Tokeniser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<STRING>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<NUMBER>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\.\d+|-?\d+(?:[eE][+-]?\d+)?)
  | (?P<OP>==|!=|<=|>=|<|>)
  | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<PUNCT>[()\[\].,&|~=:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(code: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(code)
    while i < n:
        m = _TOKEN_RE.match(code, i)
        if not m:
            raise QuerySyntaxError(f"unexpected character {code[i]!r} at position {i}")
        kind = m.lastgroup if m.lastgroup is not None else ""
        text = m.group()
        if kind != "WS":
            tokens.append(Token(kind, text, i))
        i = m.end()
    return tokens


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, code: str):
        self.code = code
        self.tokens = tokenize(code)
        self.i = 0

    # -- token utilities -----------------------------------------------------
    def peek(self, offset: int = 0) -> Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError(f"unexpected end of query: {self.code!r}")
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise QuerySyntaxError(
                f"expected {text!r} but found {tok.text!r} at position {tok.pos}"
            )
        return tok

    def at(self, text: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.text == text

    def at_kind(self, kind: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.kind == kind

    # -- entry ------------------------------------------------------------------
    def parse(self) -> q.Pipeline:
        row_count = False
        if self.at("len"):
            self.next()
            self.expect("(")
            steps = self.parse_chain()
            self.expect(")")
            row_count = True
        else:
            steps = self.parse_chain()
        if self.peek() is not None:
            tok = self.peek()
            raise QuerySyntaxError(
                f"trailing content at position {tok.pos}: {tok.text!r}"
            )
        if row_count:
            if steps and isinstance(steps[-1], q.TERMINAL_STEPS):
                raise QuerySyntaxError("len() cannot wrap a scalar-producing query")
            steps = steps + [q.RowCount()]
        return q.Pipeline(tuple(steps))

    # -- chain ------------------------------------------------------------------
    def parse_chain(self) -> list[q.Step]:
        tok = self.next()
        if tok.text != "df":
            raise QuerySyntaxError(
                f"query must start with 'df', found {tok.text!r} at {tok.pos}"
            )
        steps: list[q.Step] = []
        pending_column: str | None = None  # set after df[...]["col"]

        while True:
            if self.at("["):
                if pending_column is not None:
                    raise QuerySyntaxError(
                        "cannot index again after selecting a single column"
                    )
                self.next()
                nxt = self.peek()
                if nxt is None:
                    raise QuerySyntaxError("unclosed '['")
                if nxt.kind == "STRING":
                    # single column select: terminal agg must follow
                    pending_column = _unquote(self.next().text)
                    self.expect("]")
                elif nxt.text == "[":
                    cols = self.parse_string_list()
                    self.expect("]")
                    steps.append(q.Project(tuple(cols)))
                else:
                    pred = self.parse_predicate()
                    self.expect("]")
                    steps.append(q.Filter(pred))
            elif self.at("."):
                self.next()
                name_tok = self.next()
                name = name_tok.text
                if pending_column is not None:
                    # df[...]["col"].<agg>()
                    if name == "unique":
                        self.expect("(")
                        self.expect(")")
                        steps.append(q.Unique(pending_column))
                    elif name == "agg":
                        self.expect("(")
                        agg_tok = self.next()
                        if agg_tok.kind != "STRING":
                            raise QuerySyntaxError(
                                f"agg() expects a string at {agg_tok.pos}"
                            )
                        agg = _unquote(agg_tok.text)
                        self.expect(")")
                        self._check_agg(agg, name_tok.pos)
                        steps.append(q.Agg(pending_column, agg))
                    else:
                        self.expect("(")
                        self.expect(")")
                        self._check_agg(name, name_tok.pos)
                        steps.append(q.Agg(pending_column, name))
                    pending_column = None
                elif name == "sort_values":
                    steps.append(self.parse_sort())
                elif name == "head":
                    steps.append(q.Head(self.parse_single_int()))
                elif name == "tail":
                    steps.append(q.Tail(self.parse_single_int()))
                elif name == "iloc":
                    steps.append(self.parse_iloc())
                elif name == "groupby":
                    steps.append(self.parse_groupby())
                elif name == "drop_duplicates":
                    steps.append(self.parse_drop_duplicates())
                elif name == "nlargest":
                    n, col = self.parse_n_and_column()
                    steps.append(q.Sort((col,), (False,)))
                    steps.append(q.Head(n))
                elif name == "nsmallest":
                    n, col = self.parse_n_and_column()
                    steps.append(q.Sort((col,), (True,)))
                    steps.append(q.Head(n))
                else:
                    raise QuerySyntaxError(
                        f"unknown method .{name} at position {name_tok.pos}"
                    )
            else:
                break

        if pending_column is not None:
            # bare df["col"] — treat as single-column projection
            steps.append(q.Project((pending_column,)))
        return steps

    def _check_agg(self, name: str, pos: int) -> None:
        if not is_known_agg(name):
            raise QuerySyntaxError(f"unknown aggregation .{name}() at position {pos}")

    # -- postfix helpers --------------------------------------------------------
    def parse_single_int(self) -> int:
        self.expect("(")
        tok = self.next()
        if tok.kind != "NUMBER" or "." in tok.text or "e" in tok.text.lower():
            raise QuerySyntaxError(f"expected integer at position {tok.pos}")
        self.expect(")")
        return int(tok.text)

    def parse_iloc(self) -> q.Skip:
        # only the row-skip slice form df.iloc[n:] is part of the grammar
        self.expect("[")
        tok = self.next()
        if tok.kind != "NUMBER" or "." in tok.text or "e" in tok.text.lower() \
                or tok.text.startswith("-"):
            raise QuerySyntaxError(
                f".iloc expects a non-negative integer at position {tok.pos}"
            )
        self.expect(":")
        self.expect("]")
        return q.Skip(int(tok.text))

    def parse_n_and_column(self) -> tuple[int, str]:
        self.expect("(")
        n_tok = self.next()
        if n_tok.kind != "NUMBER":
            raise QuerySyntaxError(f"expected integer at position {n_tok.pos}")
        self.expect(",")
        col_tok = self.next()
        if col_tok.kind != "STRING":
            raise QuerySyntaxError(f"expected column string at position {col_tok.pos}")
        self.expect(")")
        return int(float(n_tok.text)), _unquote(col_tok.text)

    def parse_string_list(self) -> list[str]:
        self.expect("[")
        out: list[str] = []
        if not self.at("]"):
            while True:
                tok = self.next()
                if tok.kind != "STRING":
                    raise QuerySyntaxError(
                        f"expected string in list at position {tok.pos}"
                    )
                out.append(_unquote(tok.text))
                if self.at(","):
                    self.next()
                    if self.at("]"):
                        break
                else:
                    break
        self.expect("]")
        return out

    def parse_sort(self) -> q.Sort:
        self.expect("(")
        if self.at("["):
            keys = self.parse_string_list()
        else:
            tok = self.next()
            if tok.kind != "STRING":
                raise QuerySyntaxError(f"expected sort key at position {tok.pos}")
            keys = [_unquote(tok.text)]
        ascending: list[bool] = [True] * len(keys)
        if self.at(","):
            self.next()
            kw = self.next()
            if kw.text != "ascending":
                raise QuerySyntaxError(
                    f"expected 'ascending=' at position {kw.pos}, found {kw.text!r}"
                )
            self.expect("=")
            if self.at("["):
                self.next()
                vals: list[bool] = []
                while True:
                    vals.append(self.parse_bool())
                    if self.at(","):
                        self.next()
                    else:
                        break
                self.expect("]")
                ascending = vals
            else:
                ascending = [self.parse_bool()] * len(keys)
        self.expect(")")
        if len(ascending) != len(keys):
            raise QuerySyntaxError("ascending list length must match sort keys")
        return q.Sort(tuple(keys), tuple(ascending))

    def parse_bool(self) -> bool:
        tok = self.next()
        if tok.text == "True":
            return True
        if tok.text == "False":
            return False
        raise QuerySyntaxError(f"expected True/False at position {tok.pos}")

    def parse_groupby(self) -> q.GroupAgg:
        self.expect("(")
        if self.at("["):
            keys = self.parse_string_list()
        else:
            tok = self.next()
            if tok.kind != "STRING":
                raise QuerySyntaxError(
                    f"expected groupby key at position {tok.pos}"
                )
            keys = [_unquote(tok.text)]
        self.expect(")")
        self.expect("[")
        col_tok = self.next()
        if col_tok.kind != "STRING":
            raise QuerySyntaxError(
                f"expected selected column at position {col_tok.pos}"
            )
        column = _unquote(col_tok.text)
        self.expect("]")
        self.expect(".")
        agg_tok = self.next()
        agg = agg_tok.text
        if agg == "agg":
            self.expect("(")
            inner = self.next()
            if inner.kind != "STRING":
                raise QuerySyntaxError(f"agg() expects a string at {inner.pos}")
            agg = _unquote(inner.text)
            self.expect(")")
        else:
            self.expect("(")
            self.expect(")")
        self._check_agg(agg, agg_tok.pos)
        return q.GroupAgg(tuple(keys), column, agg)

    def parse_drop_duplicates(self) -> q.DropDuplicates:
        self.expect("(")
        subset: list[str] = []
        if self.at("subset"):
            self.next()
            self.expect("=")
            if self.at("["):
                subset = self.parse_string_list()
            else:
                tok = self.next()
                if tok.kind != "STRING":
                    raise QuerySyntaxError(
                        f"expected subset column at position {tok.pos}"
                    )
                subset = [_unquote(tok.text)]
        self.expect(")")
        return q.DropDuplicates(tuple(subset))

    # -- predicates ------------------------------------------------------------------
    def parse_predicate(self) -> q.Predicate:
        return self.parse_or()

    def parse_or(self) -> q.Predicate:
        left = self.parse_and()
        while self.at("|"):
            self.next()
            right = self.parse_and()
            left = q.Or(left, right)
        return left

    def parse_and(self) -> q.Predicate:
        left = self.parse_unary()
        while self.at("&"):
            self.next()
            right = self.parse_unary()
            left = q.And(left, right)
        return left

    def parse_unary(self) -> q.Predicate:
        if self.at("~"):
            self.next()
            return q.Not(self.parse_unary())
        if self.at("("):
            self.next()
            inner = self.parse_or()
            self.expect(")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> q.Predicate:
        tok = self.next()
        if tok.text != "df":
            raise QuerySyntaxError(
                f"predicate must reference df[...], found {tok.text!r} at {tok.pos}"
            )
        self.expect("[")
        col_tok = self.next()
        if col_tok.kind != "STRING":
            raise QuerySyntaxError(f"expected column string at position {col_tok.pos}")
        field = q.Field(_unquote(col_tok.text))
        self.expect("]")

        nxt = self.peek()
        if nxt is None:
            raise QuerySyntaxError("incomplete comparison")
        if nxt.kind == "OP":
            op = self.next().text
            value = self.parse_literal()
            return q.Compare(field, op, value)
        if nxt.text == ".":
            self.next()
            meth = self.next()
            if meth.text == "str":
                self.expect(".")
                str_meth = self.next()
                self.expect("(")
                arg_tok = self.next()
                if arg_tok.kind != "STRING":
                    raise QuerySyntaxError(
                        f"expected string argument at position {arg_tok.pos}"
                    )
                arg = _unquote(arg_tok.text)
                # optional case= kwarg for contains
                case = True
                if self.at(","):
                    self.next()
                    kw = self.next()
                    if kw.text != "case":
                        raise QuerySyntaxError(
                            f"unknown kwarg {kw.text!r} at position {kw.pos}"
                        )
                    self.expect("=")
                    case = self.parse_bool()
                self.expect(")")
                if str_meth.text == "contains":
                    return q.StrContains(field, arg, case)
                if str_meth.text == "startswith":
                    return q.StrStartsWith(field, arg)
                if str_meth.text == "endswith":
                    return q.StrEndsWith(field, arg)
                raise QuerySyntaxError(
                    f"unknown .str method {str_meth.text!r} at {str_meth.pos}"
                )
            if meth.text == "isin":
                self.expect("(")
                values = self.parse_literal()
                if not isinstance(values, list):
                    raise QuerySyntaxError("isin() expects a list literal")
                self.expect(")")
                return q.IsIn(field, tuple(values))
            if meth.text == "between":
                self.expect("(")
                low = self.parse_literal()
                self.expect(",")
                high = self.parse_literal()
                self.expect(")")
                return q.Between(field, low, high)
            if meth.text == "notna":
                self.expect("(")
                self.expect(")")
                return q.NotNull(field)
            if meth.text == "isna":
                self.expect("(")
                self.expect(")")
                return q.IsNull(field)
            raise QuerySyntaxError(
                f"unknown predicate method .{meth.text} at position {meth.pos}"
            )
        raise QuerySyntaxError(
            f"expected comparison after column at position {nxt.pos}"
        )

    def parse_literal(self) -> Any:
        tok = self.next()
        if tok.kind == "STRING":
            return _unquote(tok.text)
        if tok.kind == "NUMBER":
            text = tok.text
            if "." in text or "e" in text.lower():
                return float(text)
            return int(text)
        if tok.text == "True":
            return True
        if tok.text == "False":
            return False
        if tok.text == "None":
            return None
        if tok.text == "[":
            values: list[Any] = []
            if not self.at("]"):
                while True:
                    values.append(self.parse_literal())
                    if self.at(","):
                        self.next()
                        if self.at("]"):
                            break
                    else:
                        break
            self.expect("]")
            return values
        raise QuerySyntaxError(f"bad literal {tok.text!r} at position {tok.pos}")


@text_memo
def parse_query(code: str) -> q.Pipeline:
    """Parse query code into a Pipeline, or raise QuerySyntaxError.

    A repeated text answers from a bounded memo (:mod:`repro.utils.memo`).
    """
    code = code.strip()
    if not code:
        raise QuerySyntaxError("empty query")
    return _Parser(code).parse()
