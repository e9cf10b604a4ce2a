"""Declarative constraint spec + compiler → vectorized Arrow predicates.

The reference's shapes graph (SHACL NodeShape/PropertyShape declarations,
cached once in ``src/extended_shacl_validator.py:44-120``) becomes a
*compiled constraint spec*: a list of constraint dataclasses compiled once on
the driver into vectorized ``pyarrow.compute`` predicates, then shipped
(small, picklable) into ``map_batches`` tasks.

Constraint inventory mirrors SURVEY.md §2.2 (C1–C20):

=====================  ==========================================
row-local (stateless)  Datatype (C3), NodeKind/Pattern (C5/C8),
                       Min/MaxInclusive/Exclusive (C6/C7),
                       Min/MaxLength (C9), In (C10),
                       Equals/Disjoint/LessThan[OrEquals] (C12–C14),
                       Not/And/Or/Xone (C15–C18), Custom (C19),
                       required (row-form MinCount, C1)
grouped (shuffle)      MinCount/MaxCount over group keys (C1/C2),
                       UniqueLang ≡ MaxCount(1) on keys+[lang] (C11)
referential (join)     Class/FK existence (C4)
=====================  ==========================================

Violation masks are ``True == violating``.  Null handling follows SHACL
value-node semantics: a NULL value never violates a *value* constraint (it
has no value nodes); absence is the business of ``Required``/``MinCount``.

Severity propagation (C20): every constraint carries
``severity ∈ {Violation, Warning, Info}`` copied onto violation rows
(reference: extended_shacl_validator.py:306-309).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .model import (
    SEVERITY_VIOLATION,
    SH,
    ViolationType,
    classify_violation_type,
    signature_key,
    signature_string,
)

# ---------------------------------------------------------------------------
# Constraint declarations
# ---------------------------------------------------------------------------


@dataclass
class Constraint:
    """Base: one constraint over one column (or a column pair / group)."""

    column: Optional[str] = None
    shape_id: str = ""
    severity: str = SEVERITY_VIOLATION
    message: Optional[str] = None  # override the default template
    #: reported sh:path when it differs from the evaluated column (the
    #: Turtle long form checks a projected column — e.g. ``kind`` — but
    #: must report the original predicate IRI as the violated path)
    path: Optional[str] = None
    #: batch column rendered into the violation ``value`` field when it
    #: differs from the evaluated column (same long-form need: report the
    #: offending object value, not the projection it was checked through)
    value_column: Optional[str] = None

    component: str = ""  # SHACL constraint-component local name

    @property
    def constraint_id(self) -> str:
        return f"{SH}{self.component}"

    def params(self) -> Dict[str, Any]:
        """Constraint parameters recorded in the violation ``context``."""
        return {}

    def default_message(self) -> str:
        return f"Value violates {self.component}"

    def resolved_shape_id(self) -> str:
        return self.shape_id or f"{SH.replace('#', '/')}shape/{self.column}"


# --- row-local value constraints -------------------------------------------


@dataclass
class Required(Constraint):
    """Row-form sh:minCount 1: the column must be non-null / non-empty.

    (C1 row form; grouped form is :class:`MinCount`.)
    """

    min_count: int = 1
    treat_empty_string_as_null: bool = True
    component: str = "MinCountConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"minCount": self.min_count}

    def default_message(self) -> str:
        return f"Less than {self.min_count} values on {self.column}"

    def mask(self, batch: pa.Table) -> pa.ChunkedArray:
        col = batch[self.column]
        m = pc.is_null(col)
        if self.treat_empty_string_as_null and (
            pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
        ):
            m = pc.or_(m, pc.equal(pc.coalesce(col, ""), ""))
        return pc.fill_null(m, True)


@dataclass
class Datatype(Constraint):
    """sh:datatype (C3): the value parses as the declared Arrow type."""

    datatype: str = "int64"  # any pa type name: int64, float64, date32, ...
    component: str = "DatatypeConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"datatype": self.datatype}

    def default_message(self) -> str:
        return f"Value is not of datatype {self.datatype}"

    def mask(self, batch: pa.Table) -> pa.Array:
        col = batch[self.column]
        target = pa.type_for_alias(self.datatype)
        if col.type.equals(target):
            return pa.array(np.zeros(len(batch), dtype=bool))
        # safe-cast probe: a value that fails the cast violates the datatype
        try:
            pc.cast(col, target, safe=True)
            return pa.array(np.zeros(len(batch), dtype=bool))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            pass
        # per-value probe, vectorised where possible
        if pa.types.is_string(col.type) and pa.types.is_integer(target):
            ok = pc.match_substring_regex(col, r"^[+-]?\d+$")
            return pc.fill_null(pc.invert(ok), False)
        if pa.types.is_string(col.type) and pa.types.is_floating(target):
            ok = pc.match_substring_regex(
                col, r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$"
            )
            return pc.fill_null(pc.invert(ok), False)
        # fallback: chunk-level python probe (cold path, small chunks)
        vals = col.to_pylist()
        bad = np.zeros(len(vals), dtype=bool)
        for i, v in enumerate(vals):
            if v is None:
                continue
            try:
                pa.array([v]).cast(target, safe=True)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, ValueError):
                bad[i] = True
        return pa.array(bad)


@dataclass
class Pattern(Constraint):
    """sh:pattern (+sh:flags folded into the regex) (C5/C8)."""

    pattern: str = ""
    flags: Optional[str] = None
    component: str = "PatternConstraintComponent"

    def params(self) -> Dict[str, Any]:
        p: Dict[str, Any] = {"pattern": self.pattern}
        if self.flags:
            p["flags"] = self.flags
        return p

    def default_message(self) -> str:
        return f"Value does not match pattern '{self.pattern}'"

    def _full_pattern(self) -> str:
        if self.flags:
            return f"(?{self.flags}){self.pattern}"
        return self.pattern

    def mask(self, batch: pa.Table) -> pa.ChunkedArray:
        col = batch[self.column]
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = pc.cast(col, pa.string())
        try:
            ok = pc.match_substring_regex(col, self._full_pattern())
        except pa.ArrowInvalid:
            # Arrow uses RE2, which rejects lookarounds/backrefs that SHACL
            # (ECMA regex) allows — fall back to Python re for those
            flags = re.IGNORECASE if (self.flags and "i" in self.flags) else 0
            rx = re.compile(self.pattern, flags)
            ok = pa.array(
                [None if v is None else bool(rx.search(v))
                 for v in col.to_pylist()]
            )
        return pc.fill_null(pc.invert(ok), False)


@dataclass
class RegexMatch(Constraint):
    """Violation iff ``REPLACE(value, pattern, '')`` CHANGES the value —
    i.e. the regex finds a non-empty match.  The inverse of
    :class:`Pattern` (sh:pattern flags NON-matching values), with exact
    SPARQL-``REPLACE`` semantics: a regex that only matches the empty
    string never changes the value, so it never violates.

    Compiled from the shark shapes' BIND/REPLACE subject-naming blocks
    (``/root/reference/data/shark_shapes.ttl:200-214, 231-245``):
    ``BIND(REPLACE(STR($this), rx, '') as ?s) . FILTER(STR($this) !=
    STR(?s))`` selects (= violates) exactly when the replace changed the
    IRI.  ``patterns`` holds one or more regexes with any SPARQL flags
    already folded inline (``(?i)...``); a value violates when ANY of
    them matches (the multi-BIND ``||`` form ORs per-regex filters).
    """

    patterns: Sequence[str] = field(default_factory=list)
    name: str = "regex"
    component: str = "SPARQLConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name, "patterns": list(self.patterns)}

    def default_message(self) -> str:
        return f"Value matches forbidden pattern(s) {list(self.patterns)}"

    def mask(self, batch: pa.Table):
        col = batch[self.column]
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(
                col.type):
            col = pc.cast(col, pa.string())
        viol = None
        for p in self.patterns:
            try:
                repl = pc.replace_substring_regex(
                    col, pattern=p, replacement="")
                m = pc.invert(pc.equal(repl, col))
            except pa.ArrowInvalid:
                # RE2 rejects lookarounds/backrefs Python re accepts
                rx = re.compile(p)
                m = pa.array(
                    [None if v is None else rx.sub("", v) != v
                     for v in col.to_pylist()]
                )
            viol = m if viol is None else pc.or_(viol, m)
        if viol is None:
            return pa.nulls(batch.num_rows, pa.bool_()).fill_null(False)
        return pc.fill_null(viol, False)


@dataclass
class MinLength(Constraint):
    """sh:minLength (C9)."""

    min_length: int = 0
    component: str = "MinLengthConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"minLength": self.min_length}

    def default_message(self) -> str:
        return f"String length is less than {self.min_length}"

    def mask(self, batch: pa.Table) -> pa.ChunkedArray:
        n = pc.utf8_length(batch[self.column])
        return pc.fill_null(pc.less(n, self.min_length), False)


@dataclass
class MaxLength(Constraint):
    """sh:maxLength (C9)."""

    max_length: int = 2**31
    component: str = "MaxLengthConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"maxLength": self.max_length}

    def default_message(self) -> str:
        return f"String length is greater than {self.max_length}"

    def mask(self, batch: pa.Table) -> pa.ChunkedArray:
        n = pc.utf8_length(batch[self.column])
        return pc.fill_null(pc.greater(n, self.max_length), False)


def _bound_mask(col, op, bound):
    try:
        return pc.fill_null(pc.invert(op(col, bound)), False)
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
        # non-numeric column under a numeric bound (e.g. untyped Turtle
        # literals hydrated as strings): a value that doesn't parse as a
        # number is not comparable → violation (pyshacl semantics);
        # parsed values compare normally.  Cold path, per-value probe.
        vals = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col).to_pylist()
        parsed, unparseable = [], []
        for v in vals:
            try:
                parsed.append(None if v is None else float(v))
                unparseable.append(False)
            except (TypeError, ValueError):
                parsed.append(None)
                unparseable.append(v is not None)
        arr = pa.array(parsed, pa.float64())
        cmp_bad = pc.fill_null(pc.invert(op(arr, float(bound))), False)
        return pc.or_(cmp_bad, pa.array(unparseable))


@dataclass
class MinInclusive(Constraint):
    """sh:minInclusive (C6)."""

    bound: Any = 0
    component: str = "MinInclusiveConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"minInclusive": self.bound}

    def default_message(self) -> str:
        return f'Value is not >= Literal("{self.bound}")'

    def mask(self, batch: pa.Table):
        return _bound_mask(batch[self.column], pc.greater_equal, self.bound)


@dataclass
class MinExclusive(Constraint):
    bound: Any = 0
    component: str = "MinExclusiveConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"minExclusive": self.bound}

    def default_message(self) -> str:
        return f'Value is not > Literal("{self.bound}")'

    def mask(self, batch: pa.Table):
        return _bound_mask(batch[self.column], pc.greater, self.bound)


@dataclass
class MaxInclusive(Constraint):
    bound: Any = 0
    component: str = "MaxInclusiveConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"maxInclusive": self.bound}

    def default_message(self) -> str:
        return f'Value is not <= Literal("{self.bound}")'

    def mask(self, batch: pa.Table):
        return _bound_mask(batch[self.column], pc.less_equal, self.bound)


@dataclass
class MaxExclusive(Constraint):
    bound: Any = 0
    component: str = "MaxExclusiveConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"maxExclusive": self.bound}

    def default_message(self) -> str:
        return f'Value is not < Literal("{self.bound}")'

    def mask(self, batch: pa.Table):
        return _bound_mask(batch[self.column], pc.less, self.bound)


@dataclass
class NodeKind(Constraint):
    """sh:nodeKind (C5): value-form check — the tabular analog of
    IRI/BlankNode/Literal kinds is a syntax regex on the column (e.g.
    commit ~ ``^[0-9a-f]{40}$``); classified VALUE_TYPE like the
    reference (extended_shacl_validator.py:273)."""

    pattern: str = ""
    kind: str = "Literal"  # label recorded in context
    component: str = "NodeKindConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"nodeKind": self.kind, "pattern": self.pattern}

    def default_message(self) -> str:
        return f"Value is not a well-formed {self.kind}"

    def mask(self, batch: pa.Table):
        col = batch[self.column]
        if not pa.types.is_string(col.type):
            col = pc.cast(col, pa.string())
        ok = pc.match_substring_regex(col, self.pattern)
        return pc.fill_null(pc.invert(ok), False)


@dataclass
class InSet(Constraint):
    """sh:in (C10): membership in an allowed value set."""

    allowed: Sequence[Any] = field(default_factory=list)
    component: str = "InConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"in": list(self.allowed)}

    def default_message(self) -> str:
        return f"Value is not in {sorted(map(str, self.allowed))}"

    def mask(self, batch: pa.Table):
        col = batch[self.column]
        ok = pc.is_in(col, value_set=pa.array(list(self.allowed)))
        # a NULL has no value node → never violates sh:in (Required covers it)
        bad = pc.and_(pc.invert(ok), pc.is_valid(col))
        return pc.fill_null(bad, False)


@dataclass
class NodeConformance(Constraint):
    """sh:node (C-node): a value violates when it is one of the
    KNOWN-nonconforming nodes.  The nonconforming set is computed
    upstream (the referenced node shape's row-local facets evaluated
    over the value nodes' own properties — ``sources/ttl.py``
    ``validate_ttl_long``); this constraint just emits ONE violation
    per (focus, nonconforming value), mirroring pyshacl's single
    NodeConstraintComponent result per value."""

    nonconforming: Sequence[Any] = field(default_factory=list)
    node_shape: str = ""
    component: str = "NodeConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"node": self.node_shape}

    def default_message(self) -> str:
        return f"Value does not conform to shape {self.node_shape}"

    def mask(self, batch: pa.Table):
        col = batch[self.column]
        if not self.nonconforming:
            import numpy as np

            return pa.array(np.zeros(len(batch), dtype=bool))
        bad = pc.is_in(col, value_set=pa.array(list(self.nonconforming)))
        return pc.fill_null(pc.and_(bad, pc.is_valid(col)), False)


@dataclass
class Closed(InSet):
    """sh:closed (with sh:ignoredProperties): a focus node may only
    carry predicates declared by the shape's property paths or listed
    as ignored — every other (predicate, value) pair violates.  Same
    membership mask as :class:`InSet` over the predicate column, but
    reported under the SHACL closed component (pyshacl parity: rdf:type
    is NOT implicitly allowed; list it in sh:ignoredProperties)."""

    component: str = "ClosedConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"closed": True, "ignoredOrDeclared": list(self.allowed)}

    def default_message(self) -> str:
        return "Predicate is not allowed (closed shape)"


@dataclass
class LanguageIn(InSet):
    """sh:languageIn (C10): allowed language tags — an InSet over the lang
    column with the languageIn component id (classified OTHER like the
    reference's fallback, extended_shacl_validator.py:284-285)."""

    component: str = "LanguageInConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"languageIn": list(self.allowed)}

    def default_message(self) -> str:
        return f"Language tag is not in {sorted(map(str, self.allowed))}"


# --- property-pair constraints (C12–C14) -----------------------------------


@dataclass
class _PairConstraint(Constraint):
    other_column: str = ""

    def params(self) -> Dict[str, Any]:
        return {self._param_name: self.other_column}

    def _cols(self, batch: pa.Table):
        a, b = batch[self.column], batch[self.other_column]
        if not a.type.equals(b.type):
            # an all-null side (e.g. a padded absent-predicate pivot
            # column) adopts the other's type — null never violates
            # anyway.  Other mismatches stay untouched: Arrow's compare
            # kernels handle mixed numeric widths natively, and a
            # genuinely incomparable pair should raise, not silently
            # fall back to lexicographic comparison.
            if a.null_count == len(a):
                a = pc.cast(a, b.type)
            elif b.null_count == len(b):
                b = pc.cast(b, a.type)
        return a, b


@dataclass
class Equals(_PairConstraint):
    """sh:equals (C12)."""

    component: str = "EqualsConstraintComponent"
    _param_name = "equals"

    def default_message(self) -> str:
        return f"Value of {self.column} must equal value of {self.other_column}"

    def mask(self, batch: pa.Table):
        a, b = self._cols(batch)
        return pc.fill_null(pc.invert(pc.equal(a, b)), False)


@dataclass
class Disjoint(_PairConstraint):
    """sh:disjoint (C13): per-row, the two columns must differ."""

    component: str = "DisjointConstraintComponent"
    _param_name = "disjoint"

    def default_message(self) -> str:
        return f"Value of {self.column} must not equal value of {self.other_column}"

    def mask(self, batch: pa.Table):
        a, b = self._cols(batch)
        return pc.fill_null(pc.equal(a, b), False)


@dataclass
class LessThan(_PairConstraint):
    """sh:lessThan (C14)."""

    component: str = "LessThanConstraintComponent"
    _param_name = "lessThan"

    def default_message(self) -> str:
        return f"Value of {self.column} must be < value of {self.other_column}"

    def mask(self, batch: pa.Table):
        a, b = self._cols(batch)
        return pc.fill_null(pc.invert(pc.less(a, b)), False)


@dataclass
class LessThanOrEquals(_PairConstraint):
    """sh:lessThanOrEquals (C14)."""

    component: str = "LessThanOrEqualsConstraintComponent"
    _param_name = "lessThanOrEquals"

    def default_message(self) -> str:
        return f"Value of {self.column} must be <= value of {self.other_column}"

    def mask(self, batch: pa.Table):
        a, b = self._cols(batch)
        return pc.fill_null(pc.invert(pc.less_equal(a, b)), False)


# --- logical constraints (C15–C18) -----------------------------------------


def _np_mask(m) -> np.ndarray:
    if isinstance(m, (pa.Array, pa.ChunkedArray)):
        return np.asarray(m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m)
    return np.asarray(m, dtype=bool)


@dataclass
class Not(Constraint):
    """sh:not (C15): violation when the inner constraint is *satisfied*."""

    inner: Optional[Constraint] = None
    #: SHACL value-node semantics: a NULL has no value nodes, so it can
    #: never violate a negated/list shape.  Opt-in (the Turtle compiler
    #: sets it — pivot columns are null for absent predicates); the
    #: default keeps the spec-level truth-table behavior existing
    #: oracles pin.
    excuse_nulls: bool = False
    component: str = "NotConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"not": self.inner.component if self.inner else None}

    def default_message(self) -> str:
        return f"Value conforms to negated shape ({self.inner.component})"

    def mask(self, batch: pa.Table):
        out = ~_np_mask(self.inner.mask(batch))
        if self.excuse_nulls and self.column is not None:
            out &= _np_mask(pc.is_valid(batch[self.column]))
        return pa.array(out)


@dataclass
class _ListConstraint(Constraint):
    shapes: List[Constraint] = field(default_factory=list)
    excuse_nulls: bool = False  # see Not.excuse_nulls

    def params(self) -> Dict[str, Any]:
        return {self._param_name: [s.component for s in self.shapes]}

    def _masks(self, batch: pa.Table) -> np.ndarray:
        """Stacked violation masks, shape (n_shapes, n_rows)."""
        return np.stack([_np_mask(s.mask(batch)) for s in self.shapes])

    def _excused(self, batch: pa.Table, out: np.ndarray) -> np.ndarray:
        if self.excuse_nulls and self.column is not None:
            out = out & _np_mask(pc.is_valid(batch[self.column]))
        return out


@dataclass
class And(_ListConstraint):
    """sh:and (C16): all sub-shapes must conform."""

    component: str = "AndConstraintComponent"
    _param_name = "and"

    def default_message(self) -> str:
        return "Node does not conform to all shapes in sh:and list"

    def mask(self, batch: pa.Table):
        return pa.array(self._excused(batch, self._masks(batch).any(axis=0)))


@dataclass
class Or(_ListConstraint):
    """sh:or (C17): at least one sub-shape must conform."""

    component: str = "OrConstraintComponent"
    _param_name = "or"

    def default_message(self) -> str:
        return "Node does not conform to any shape in sh:or list"

    def mask(self, batch: pa.Table):
        return pa.array(self._excused(batch, self._masks(batch).all(axis=0)))


@dataclass
class Xone(_ListConstraint):
    """sh:xone (C18): exactly one sub-shape must conform."""

    component: str = "XoneConstraintComponent"
    _param_name = "xone"

    def default_message(self) -> str:
        return "Node does not conform to exactly one shape in sh:xone list"

    def mask(self, batch: pa.Table):
        conforming = (~self._masks(batch)).sum(axis=0)
        return pa.array(self._excused(batch, conforming != 1))


# --- user extension (C19) ---------------------------------------------------


@dataclass
class CustomConstraint(Constraint):
    """SPARQL-constraint analog (C19): arbitrary user predicate.

    ``fn(batch: pa.Table) -> bool mask (True == violating)``.  This is the
    engine's user-extension surface (reference plugin point:
    synthetic_data_generator.py:144-177, shark_shapes.ttl:48-149).
    """

    fn: Optional[Callable[[pa.Table], Any]] = None
    name: str = "custom"
    component: str = "SPARQLConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name}

    def default_message(self) -> str:
        return f"Custom constraint '{self.name}' failed"

    def mask(self, batch: pa.Table):
        m = self.fn(batch)
        if isinstance(m, np.ndarray):
            return pa.array(m.astype(bool))
        return pc.fill_null(m, False)


_DUCK_CON = None  # lazy per-worker-process DuckDB connection for SqlCheck


def _duck():
    global _DUCK_CON
    if _DUCK_CON is None:
        import duckdb

        _DUCK_CON = duckdb.connect()
        # single-threaded + insertion-order-preserving scans: the returned
        # mask must align row-for-row with the input batch
        _DUCK_CON.execute("SET threads TO 1")
        _DUCK_CON.execute("SET preserve_insertion_order = true")
    return _DUCK_CON


@dataclass
class SqlCheck(Constraint):
    """Declarative C19 variant: "constraint as data".

    The reference ships arbitrary SPARQL strings inside its shapes
    (``data/shark_shapes.ttl:48-149``, generated by
    ``synthetic_data_generator.py:144-177``); the tabular analog is a SQL
    boolean expression over the batch's columns, evaluated zero-copy by
    DuckDB on each Arrow batch — no Python callable required, so the
    constraint is pure data (serializable, storable, auditable).

    ``where``: rows where the expression is TRUE are violations (mirrors
    SPARQL constraints, which SELECT the violating bindings).
    ``columns``: the columns the SQL reads — declared explicitly so
    ``required_columns()`` can still prune the Parquet read.
    """

    where: str = "FALSE"
    name: str = "sql"
    columns: Sequence[str] = field(default_factory=list)
    component: str = "SPARQLConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name, "sql": self.where}

    def default_message(self) -> str:
        return f"SQL constraint '{self.name}' failed"

    def mask(self, batch: pa.Table):
        con = _duck()
        con.register("__batch__", batch)
        try:
            out = con.execute(
                f"SELECT coalesce(({self.where}), FALSE) AS __viol__ "
                f"FROM __batch__"
            ).fetch_arrow_table()
        finally:
            con.unregister("__batch__")
        return out["__viol__"].combine_chunks()


# --- grouped / referential declarations (compiled elsewhere) ----------------


@dataclass
class MinCount(Constraint):
    """sh:minCount over group keys (C1): each group must have >= k rows
    with a non-null value in ``column`` (``column=None`` counts rows)."""

    group_by: Sequence[str] = field(default_factory=list)
    min_count: int = 1
    component: str = "MinCountConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"minCount": self.min_count}

    def default_message(self) -> str:
        return f"Group has fewer than {self.min_count} values for {self.column}"


@dataclass
class MaxCount(Constraint):
    """sh:maxCount over group keys (C2) — also the uniqueness check
    (max_count=1 on a natural key ⇒ duplicate detection), and with
    ``group_by=keys+[lang_col]`` the sh:uniqueLang analog (C11)."""

    group_by: Sequence[str] = field(default_factory=list)
    max_count: int = 1
    component: str = "MaxCountConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"maxCount": self.max_count}

    def default_message(self) -> str:
        return f"Group has more than {self.max_count} values for {self.column}"


@dataclass
class UniqueLang(MaxCount):
    """sh:uniqueLang (C11): no two values may share a language tag per
    focus group — MaxCount(1) on ``group_by + [lang_column]`` with the
    uniqueLang component id (shark_shapes.ttl:37,45)."""

    lang_column: str = "lang"
    component: str = "UniqueLangConstraintComponent"

    def __post_init__(self):
        self.max_count = 1
        if self.lang_column not in self.group_by:
            self.group_by = list(self.group_by) + [self.lang_column]

    def params(self) -> Dict[str, Any]:
        return {"uniqueLang": True}

    def default_message(self) -> str:
        return (
            f"More than one value shares a language tag "
            f"({self.lang_column}) per {list(self.group_by[:-1])}"
        )


@dataclass
class Referential(Constraint):
    """sh:class / FK existence (C4): every value of ``column`` must exist in
    the referenced key set (an anti-join in the validate scan's exchange
    finds dangles; the referenced side need not fit on the driver).

    A NULL FK is *not* a violation by default — consistent with the rest of
    the engine's SHACL null semantics (``InSet`` etc. excuse nulls; a
    missing value is ``Required``'s job, not a dangling reference) and with
    the SQL ``NOT IN`` oracle, which never returns NULL keys.  Set
    ``null_is_violation=True`` to flag nulls too (mirror the oracle with
    ``OR fk IS NULL`` in that case)."""

    ref_table: str = ""  # label only (for messages/params)
    ref_column: str = ""
    null_is_violation: bool = False
    component: str = "ClassConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"class": f"{self.ref_table}.{self.ref_column}"}

    def default_message(self) -> str:
        return (
            f"Value of {self.column} has no referent in "
            f"{self.ref_table}.{self.ref_column}"
        )


def _monotone_violating_runs(order_sorted, vals) -> int:
    """Number of equal-``order`` runs whose min value is below the max
    over strictly-smaller-order rows, for ONE group already sorted by
    the order column — the tie-robust non-decreasing check shared by
    :meth:`GroupPredicate.fn` and the vectorized bucket sweep."""
    import numpy as np

    n = len(order_sorted)
    if n < 2:
        return 0
    new_run = np.concatenate([[True], order_sorted[1:] != order_sorted[:-1]])
    starts = np.flatnonzero(new_run)
    run_max = np.maximum.reduceat(vals, starts)
    run_min = np.minimum.reduceat(vals, starts)
    if len(starts) < 2:
        return 0
    prefix = np.maximum.accumulate(run_max)[:-1]
    return int(np.count_nonzero(run_min[1:] < prefix))


@dataclass(frozen=True)
class GroupPredicate:
    """Declarative group predicate — the vectorizable GroupedSparql
    subset (VERDICT r3 item 5).  A focus group violates when

        <agg over its (optionally equality-filtered) rows> <op> <value>

    - ``agg='count'``: number of matching rows;
      ``agg='distinct'``: number of distinct ``agg_col`` values among
      matching rows;
      ``agg='monotone'``: number of order-runs whose minimum
      ``agg_col`` value falls BELOW the maximum over rows with a
      strictly smaller ``order_col`` — tie-robust "values must not
      decrease along the order" (0 ≡ non-decreasing).
    - ``where_col``/``where_val``: optional row filter
      (``row[where_col] == where_val``) applied before aggregating —
      e.g. restrict a triples group to one predicate IRI.
    - ``op``: one of ``>= > <= < == !=``; a key whose filtered metric
      is empty counts as 0 (so ``< k`` minCount-style forms work).

    This covers the reference's within-subject self-join ``sh:sparql``
    shapes ("$this p ?v1 . $this p ?v2 . FILTER(?v1 != ?v2)" ≡
    distinct(p) >= 2) and per-group ordered-monotonicity patterns
    without per-group Python: the engine evaluates them as Arrow /
    numpy segment kernels over the key-sorted runs of each exchange
    block.  A null focus key is a group of its own (SQL ``GROUP BY``)."""

    agg: str = "count"
    agg_col: Optional[str] = None
    op: str = ">="
    value: int = 2
    where_col: Optional[str] = None
    where_val: Optional[str] = None
    order_col: Optional[str] = None

    def __post_init__(self):
        if self.agg not in ("count", "distinct", "monotone"):
            raise ValueError(f"unknown agg {self.agg!r}")
        if self.agg == "distinct" and not self.agg_col:
            raise ValueError("agg='distinct' requires agg_col")
        if self.agg == "monotone" and not (self.agg_col and self.order_col):
            raise ValueError("agg='monotone' requires agg_col and "
                             "order_col")
        if self.op not in (">=", ">", "<=", "<", "==", "!="):
            raise ValueError(f"unknown op {self.op!r}")

    def compare(self, metric, value=None):
        """Vectorized comparison (numpy/Arrow-compatible operands)."""
        import operator

        ops = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
               "<": operator.lt, "==": operator.eq, "!=": operator.ne}
        return ops[self.op](metric, self.value if value is None else value)

    def fn(self, g) -> bool:
        """The same predicate on one focus group: a ``GroupedSparql``
        with ``fn=pred.fn`` and no ``predicate`` is the per-group twin
        the vectorized sweep is checked against."""
        import numpy as np
        import pyarrow.compute as _pc

        sel = g
        if self.where_col is not None:
            sel = sel.filter(_pc.equal(sel[self.where_col],
                                       self.where_val))
        if self.agg == "count":
            metric = sel.num_rows
        elif self.agg == "distinct":
            # drop nulls BEFORE unique: SQL COUNT(DISTINCT) and SPARQL
            # COUNT(DISTINCT ?x) ignore unbound/null, and the vectorized
            # bucket sweep's Arrow "count" agg is only_valid — keeping
            # null here would silently diverge from both (ADVICE r4)
            col = sel[self.agg_col]
            metric = len(_pc.unique(_pc.drop_null(
                col.combine_chunks() if hasattr(col, "combine_chunks")
                else col)))
        else:  # monotone
            t = sel.sort_by(self.order_col)
            oc = t[self.order_col]
            vc = t[self.agg_col]
            o = np.asarray((oc.combine_chunks() if hasattr(
                oc, "combine_chunks") else oc).to_numpy(
                    zero_copy_only=False))
            v = np.asarray((vc.combine_chunks() if hasattr(
                vc, "combine_chunks") else vc).to_numpy(
                    zero_copy_only=False))
            metric = _monotone_violating_runs(o, v)
        return bool(self.compare(metric))


@dataclass
class GroupedSparql(Constraint):
    """SPARQL graph-pattern constraint over a focus GROUP (C19, grouped
    form) — the worked escape hatch for the reference's multi-row
    ``sh:sparql`` shapes whose WHERE clause joins several triples of one
    focus node (e.g. "Classes must have at most one superclass",
    shark_shapes.ttl:48-67, or the hierarchy-cycle / self-inverse
    patterns, shark_shapes.ttl:139-149, 218-230).  Those cannot be a
    row-local mask: the violation is a property of the whole row-group of
    one focus node.

    Tabular analog: ``fn(group: pa.Table) -> bool`` — True when the group
    (all rows sharing ``group_by``, co-located by the engine's
    hash-routed exchange) violates.  A null key forms its own group, as
    under SQL ``GROUP BY``.  One violation row is emitted per violating
    group, mirroring SPARQL ``SELECT DISTINCT $this``; the violation
    ``value``/``actualCount`` carry the group row count, like the
    grouped cardinality checks.

    ``columns`` must list every non-key column ``fn`` reads so the
    exchange ships only those (prune-at-the-read still applies).

    Partitioning assumption (documented contract): one exchange block
    fits in a worker's heap.  A block is one hash range of everything
    the plan's one exchange carries: this check's pruned rows, those of
    the spec's other GroupedSparql checks, the cardinality partials and
    the row-local violation rows.  Focus groups are bounded by the data
    model (rows per subject), not by corpus size, so this holds at
    100 TB; a mega-group (skewed key) should be pre-capped upstream.
    """

    group_by: Sequence[str] = field(default_factory=list)
    columns: Sequence[str] = field(default_factory=list)
    fn: Optional[Callable[[pa.Table], Any]] = None
    #: declarative predicate (count/distinct/monotone + comparison):
    #: when set, the engine evaluates this constraint fully vectorized —
    #: numpy/Arrow kernels over the key-sorted runs of each exchange
    #: block — removing the Python-per-focus-group floor of the ``fn``
    #: escape hatch (VERDICT r3 item 5).  ``fn`` is ignored when
    #: ``predicate`` is given.
    predicate: Optional[GroupPredicate] = None
    name: str = "sparql-group"
    #: skew guard (``fn`` form): a focus group larger than this raises
    #: instead of silently OOMing the exchange worker — a mega-group
    #: means the data model's rows-per-subject bound is broken upstream
    max_group_rows: int = 5_000_000
    #: contract flag: ``fn`` reads ONLY rows whose ``predicate`` column
    #: equals ``path`` (and returns False for a group without such
    #: rows).  When set, the engine prunes all other rows BEFORE the
    #: exchange — a group without the predicate never
    #: shuffles at all (the sparse-predicate exchange cut; the
    #: violation row's actualCount then counts the path rows only).
    #: The auto-translated self-ref / shared-REPLACE-image fns satisfy
    #: this; hand-written fns must opt in explicitly.
    path_rows_only: bool = False
    component: str = "SPARQLConstraintComponent"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name}

    def default_message(self) -> str:
        return f"SPARQL group constraint '{self.name}' failed"

    def read_columns(self) -> List[str]:
        """The columns the check reads, each once: its ``group_by`` keys,
        its declared ``columns``, then whatever a declarative
        ``predicate`` needs."""
        p = self.predicate
        extra = [] if p is None else [p.agg_col, p.where_col, p.order_col]
        return list(dict.fromkeys(
            [*self.group_by, *self.columns, *filter(None, extra)]))


@dataclass
class SiblingAntiJoin(GroupedSparql):
    """The shark NOT-EXISTS superclass shape (C19, join form;
    ``/root/reference/data/shark_shapes.ttl:48-67``, VERDICT r4 item 3):

        $this <path> ?v1 .  $this <path> ?v2 .  FILTER(?v1 != ?v2)
        FILTER NOT EXISTS {?v1 <edge_pred> ?v2}
        FILTER NOT EXISTS {?v2 <edge_pred> ?v1}
        [FILTER(?vi != <const>) ...]  [FILTER($this != ?vi) ...]

    A focus node violates iff, among the DISTINCT objects of ``path``
    on the node (minus ``exclude`` constants, minus the node itself when
    ``exclude_self``), SOME unordered pair is unrelated in EITHER
    direction under ``edge_pred`` in the FULL data graph — "a class with
    two genuinely distinct superclasses".

    Unlike plain :class:`GroupedSparql`, the predicate is join-aware: it
    consults the global ``edge_pred`` relation, not just the focus
    group's own rows.  One engine plan
    (:func:`xpshacl_ray.stages.grouped.evaluate_sibling_join`): the
    candidate ``(lo, hi)`` pairs of each focus node's distinct values
    meet the normalized undirected edge pairs in a hash-routed exchange
    on the pair key, and a pair with no edge row marks its subjects
    violating — reduced in Arrow, no driver-side edge set at any scale.
    ``fn`` stays unset: the declaration is pure data.
    """

    edge_pred: str = ""
    exclude: Sequence[str] = field(default_factory=list)
    exclude_self: bool = False
    name: str = "sibling-antijoin"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name, "path": self.path,
                "edgePredicate": self.edge_pred,
                "exclude": list(self.exclude),
                "excludeSelf": self.exclude_self}

    def default_message(self) -> str:
        return (f"Node has two {self.path} values unrelated under "
                f"{self.edge_pred}")


@dataclass
class NodeIsolation(GroupedSparql):
    """The shark unconnected-classes / must-have-instances shapes (C19,
    anti-join form; ``/root/reference/data/shark_shapes.ttl:86-99,
    118-136``, round-5 frontier): a focus node violates iff it has NO
    outgoing triple of any ``outgoing`` predicate AND appears as the
    OBJECT of no ``incoming`` predicate anywhere in the FULL graph —
    conjunctive ``FILTER NOT EXISTS`` over single-triple patterns (the
    ``OPTIONAL {?v a $this} … HAVING(COUNT(?v)=0)`` spelling of
    must-have-instances is the incoming=rdf:type special case).

    Engine plan: a join check of the scan's one exchange
    (:func:`xpshacl_ray.stages.grouped.evaluate_scan`).  Its probe rows
    are each batch's triple count per focus node (``group_by``, one
    column); its build rows are each block's distinct witness nodes
    (subjects of ``outgoing`` / objects of ``incoming`` triples) of the
    FULL graph, its referenced side, keyed by its ``name`` in ``refs``.
    The sweep keeps the focus nodes absent from that range's witnesses.
    No broadcast and no per-group Python; a Dataset side is scanned, so
    its witness set is never held on the driver.
    """

    outgoing: Sequence[str] = field(default_factory=list)
    incoming: Sequence[str] = field(default_factory=list)
    name: str = "node-isolation"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name, "outgoing": list(self.outgoing),
                "incoming": list(self.incoming)}

    def default_message(self) -> str:
        return ("Node has no edge of "
                f"{list(self.outgoing)} and is referenced by none of "
                f"{list(self.incoming)}")


@dataclass
class TransitiveCycle(GroupedSparql):
    """The shark hierarchy-cycle shape (C19, transitive-closure form;
    ``/root/reference/data/shark_shapes.ttl:128-137``):
    ``$this <path>+ $this`` — a focus node violates iff it lies on a
    directed cycle of the ``path`` relation in the FULL graph.  No
    single groupby can express transitive closure; the Turtle validate
    binds the iterative plan
    :func:`xpshacl_ray.functions.graph.cycle_members` (distributed trim
    to fixpoint — a DAG, the healthy-hierarchy common case, trims to
    empty with zero driver work — then exact Tarjan SCC on the surviving
    cyclic core).  Its ``node`` column is the check's referenced side,
    keyed by its ``name`` in ``refs``: a join check of the scan's one
    exchange (:func:`xpshacl_ray.stages.grouped.evaluate_scan`), built
    like :class:`NodeIsolation` but keeping the focus nodes PRESENT in
    that range's member nodes."""

    name: str = "transitive-cycle"

    def params(self) -> Dict[str, Any]:
        return {"name": self.name, "path": self.path}

    def default_message(self) -> str:
        return f"Node lies on a {self.path} cycle"


ROW_LOCAL_TYPES = (
    Required,
    NodeConformance,
    Datatype,
    Pattern,
    RegexMatch,
    NodeKind,
    MinLength,
    MaxLength,
    MinInclusive,
    MinExclusive,
    MaxInclusive,
    MaxExclusive,
    InSet,
    Equals,
    Disjoint,
    LessThan,
    LessThanOrEquals,
    Not,
    And,
    Or,
    Xone,
    CustomConstraint,
    SqlCheck,
)
GROUPED_TYPES = (MinCount, MaxCount, GroupedSparql)


# ---------------------------------------------------------------------------
# Spec + compilation
# ---------------------------------------------------------------------------


@dataclass
class ValidationSpec:
    """The engine's shapes graph: constraints + table wiring.

    ``id_columns`` are passed through onto violation rows (lineage);
    ``focus_template`` renders the focus node, e.g. ``"doc:{doc_id}"`` or
    ``"file://{repo}/{path}@{commit}"``.
    """

    constraints: List[Constraint]
    id_columns: Sequence[str] = ()
    focus_template: str = "row:{__index__}"

    def row_local(self) -> List[Constraint]:
        return [c for c in self.constraints if isinstance(c, ROW_LOCAL_TYPES)]

    def grouped(self) -> List[Constraint]:
        return [c for c in self.constraints if isinstance(c, GROUPED_TYPES)]

    def referential(self) -> List[Referential]:
        return [c for c in self.constraints if isinstance(c, Referential)]


@dataclass
class CompiledConstraint:
    """A constraint with its static violation-row fields precomputed."""

    constraint: Constraint
    constraint_id: str
    shape_id: str
    property_path: Optional[str]
    violation_type: str
    severity: str
    message: str
    context_json: str
    signature: str
    sig_key: str
    #: batch column rendered as the violation ``value`` (defaults to the
    #: evaluated column; see Constraint.value_column)
    value_column: Optional[str] = None


def _json_default(o):
    return str(o)


def compile_constraint(c: Constraint) -> CompiledConstraint:
    cid = c.constraint_id
    vtype = classify_violation_type(cid)
    path = c.path or c.column
    # Signature params are deliberately empty, mirroring the reference's
    # signature factory (violation_signature_factory.py:9-10).
    sig = signature_string(cid, path, vtype, {})
    params = c.params()
    return CompiledConstraint(
        constraint=c,
        constraint_id=cid,
        shape_id=c.resolved_shape_id(),
        property_path=path,
        violation_type=vtype.value,
        severity=c.severity,
        message=c.message or c.default_message(),
        context_json=json.dumps(params, sort_keys=True, default=_json_default),
        signature=sig,
        sig_key=signature_key(sig),
        value_column=c.value_column or c.column,
    )


def compile_spec(spec: ValidationSpec) -> "CompiledSpec":
    return CompiledSpec(
        row_local=[compile_constraint(c) for c in spec.row_local()],
        grouped=[compile_constraint(c) for c in spec.grouped()],
        referential=[compile_constraint(c) for c in spec.referential()],
        id_columns=list(spec.id_columns),
        focus_template=spec.focus_template,
    )


@dataclass
class CompiledSpec:
    row_local: List[CompiledConstraint]
    grouped: List[CompiledConstraint]
    referential: List[CompiledConstraint]
    id_columns: List[str]
    focus_template: str

    def all_compiled(self) -> List[CompiledConstraint]:
        return self.row_local + self.grouped + self.referential

    def required_columns(self) -> List[str]:
        """Columns the spec actually reads — for pruning at the read."""
        cols: List[str] = list(self.id_columns)
        cols += re.findall(r"{(\w+)}", self.focus_template)

        def walk(c: Constraint):
            if c.column:
                cols.append(c.column)
            if isinstance(c, _PairConstraint):
                cols.append(c.other_column)
            if isinstance(c, Not) and c.inner is not None:
                walk(c.inner)
            if isinstance(c, _ListConstraint):
                for s in c.shapes:
                    walk(s)
            if isinstance(c, (MinCount, MaxCount)):
                cols.extend(c.group_by)
            if isinstance(c, GroupedSparql):
                cols.extend(c.read_columns())
            if isinstance(c, SqlCheck):
                cols.extend(c.columns)

        for c in self.all_compiled():
            walk(c.constraint)
        seen, out = set(), []
        for col in cols:
            if col != "__index__" and col not in seen:
                seen.add(col)
                out.append(col)
        return out
