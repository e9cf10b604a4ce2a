"""Turtle ingestion shim — the on-ramp from the reference's ``.ttl``
fixtures to the engine's tabular model.

The reference's entry point parses RDF with
``Graph().parse(path, format="ttl")`` (``/root/reference/src/main.py``);
this module gives a user holding those same fixtures a direct path into
the Ray engine with NO rdflib dependency: a stdlib recursive-descent
parser for the Turtle subset the fixtures use (prefixes, ``a``, ``;``/``,``
continuations, blank-node property lists, typed/tagged literals, bare
numeric literals), then

- :func:`entity_table` pivots the triples into one Arrow row per subject
  of a target class (columns = predicate IRIs, numeric xsd datatypes
  hydrated to int64/float64), and
- :func:`shapes_to_specs` compiles ``sh:NodeShape``/``sh:property`` blocks
  (minCount 1, datatype, min/maxInclusive, min/maxExclusive, min/maxLength,
  pattern) into :class:`~xpshacl_ray.spec.ValidationSpec` per target class,
  with pyshacl-style bound-literal messages
  (``Value is not >= Literal("0", datatype=xsd:integer)``) for byte-level
  message parity with the reference's README example.

Scope: the declarative subset the reference's example fixtures exercise,
plus the standard-SHACL spellings a reference user would reach for next:
``sh:in ( ... )`` RDF collections (→ ``InSet``), ``sh:message`` overrides,
and the LONG-FORM constraints the single-value entity pivot cannot see —
``sh:maxCount``/``sh:minCount > 1``, ``sh:nodeKind``, ``sh:class`` and
``sh:languageIn`` — evaluated over the triples table by
:func:`validate_ttl_long` (multi-valued predicates keep every value
there).  SPARQL-string constraints go through
:class:`xpshacl_ray.spec.SqlCheck` / ``CustomCheck`` instead; property
paths beyond a single predicate are out of scope (documented, not
silent).
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pyarrow as pa
import pyarrow.compute as pc

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_FIRST = RDF_NS + "first"
RDF_REST = RDF_NS + "rest"
RDF_NIL = RDF_NS + "nil"
SH_NS = "http://www.w3.org/ns/shacl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

_INT_TYPES = {XSD + t for t in
              ("integer", "int", "long", "short", "byte",
               "nonNegativeInteger", "positiveInteger")}
_FLOAT_TYPES = {XSD + t for t in ("decimal", "double", "float")}


@dataclass(frozen=True)
class Triple:
    s: str
    p: str
    o: str
    kind: str  # "iri" | "bnode" | "literal"
    datatype: Optional[str] = None
    lang: Optional[str] = None


# ---------------------------------------------------------------------------
# tokenizer + recursive-descent parser (Turtle subset)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<prefix_kw>@prefix\b)
    | (?P<iriref><[^>]*>)
    | (?P<longstring>\"{3}(?s:(?:\"{1,2}(?!\")|[^"\\]|\\.)*)\"{3})
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dtype_marker>\^\^)
    | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
    | (?P<number>[+-]?(?:\d+\.\d+|\d+))
    | (?P<bool_kw>\b(?:true|false)\b(?!:))
    | (?P<pname>[A-Za-z_][\w.-]*)?:(?P<local>[A-Za-z0-9_](?:[\w.-]*[\w-])?|)
    | (?P<a_kw>\ba\b)
    | (?P<punct>[.;,\[\]()])
    """,
    re.X,
)

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def _unescape(s: str) -> str:
    out, i = [], 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            out.append(_ESCAPES.get(s[i + 1], s[i + 1]))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ValueError(
                    f"turtle parse error at offset {pos}: {text[pos:pos+30]!r}")
            pos = m.end()
            kind = m.lastgroup
            if kind in ("ws", "comment"):
                continue
            if kind == "local":  # pname match sets the last group to local
                kind = "pname"
            self.tokens.append((kind, m))
        self.i = 0
        self.prefixes: Dict[str, str] = {}
        self.triples: List[Triple] = []
        self._bnode = itertools.count()

    # --- token helpers ---
    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def _expect_punct(self, ch: str):
        kind, m = self._next()
        if kind != "punct" or m.group("punct") != ch:
            raise ValueError(f"expected {ch!r}, got {m.group(0) if m else 'EOF'}")

    def _resolve_pname(self, m) -> str:
        prefix = m.group("pname") or ""
        local = m.group("local")
        if prefix not in self.prefixes:
            raise ValueError(f"undefined prefix {prefix!r}:")
        return self.prefixes[prefix] + local

    # --- grammar ---
    def parse(self) -> "_Parser":
        while self.i < len(self.tokens):
            kind, m = self._peek()
            if kind == "prefix_kw":
                self._next()
                _, pm = self._next()  # pname token "ex:"
                prefix = pm.group("pname") or ""
                _, im = self._next()
                self.prefixes[prefix] = im.group("iriref")[1:-1]
                self._expect_punct(".")
            else:
                subj = self._node(as_subject=True)
                self._predicate_object_list(subj)
                self._expect_punct(".")
        return self

    def _node(self, as_subject=False) -> str:
        kind, m = self._next()
        if kind == "iriref":
            return m.group("iriref")[1:-1]
        if kind == "pname":
            return self._resolve_pname(m)
        if kind == "punct" and m.group("punct") == "[":
            label = f"_:b{next(self._bnode)}"
            nk, nm = self._peek()
            if not (nk == "punct" and nm.group("punct") == "]"):
                self._predicate_object_list(label)
            self._expect_punct("]")
            return label
        raise ValueError(f"unexpected token {m.group(0)!r} for node")

    def _predicate_object_list(self, subj: str) -> None:
        while True:
            kind, m = self._next()
            if kind == "a_kw":
                pred = RDF_TYPE
            elif kind == "iriref":
                pred = m.group("iriref")[1:-1]
            elif kind == "pname":
                pred = self._resolve_pname(m)
            else:
                raise ValueError(f"unexpected predicate {m.group(0)!r}")
            self._object_list(subj, pred)
            kind, m = self._peek()
            if kind == "punct" and m.group("punct") == ";":
                self._next()
                # trailing ';' before '.' or ']' is legal Turtle
                nk, nm = self._peek()
                if nk == "punct" and nm.group("punct") in (".", "]"):
                    return
                continue
            return

    def _object_list(self, subj: str, pred: str) -> None:
        while True:
            self._object(subj, pred)
            kind, m = self._peek()
            if kind == "punct" and m.group("punct") == ",":
                self._next()
                continue
            return

    def _object(self, subj: str, pred: str) -> None:
        kind, m = self._peek()
        if kind == "longstring":  # \"\"\"...\"\"\" — newlines allowed
            self._next()
            lex = _unescape(m.group("longstring")[3:-3])
            dt, lang = None, None
            nk, nm = self._peek()
            if nk == "dtype_marker":
                self._next()
                dk, dm = self._next()
                dt = (dm.group("iriref")[1:-1] if dk == "iriref"
                      else self._resolve_pname(dm))
            elif nk == "langtag":
                self._next()
                lang = nm.group("langtag")[1:]
            self.triples.append(Triple(subj, pred, lex, "literal", dt, lang))
            return
        if kind == "bool_kw":
            self._next()
            self.triples.append(Triple(subj, pred, m.group("bool_kw"),
                                       "literal", XSD + "boolean"))
            return
        if kind == "string":
            self._next()
            lex = _unescape(m.group("string")[1:-1])
            dt, lang = None, None
            nk, nm = self._peek()
            if nk == "dtype_marker":
                self._next()
                dk, dm = self._next()
                dt = (dm.group("iriref")[1:-1] if dk == "iriref"
                      else self._resolve_pname(dm))
            elif nk == "langtag":
                self._next()
                lang = nm.group("langtag")[1:]
            self.triples.append(Triple(subj, pred, lex, "literal", dt, lang))
            return
        if kind == "number":
            self._next()
            lex = m.group("number")
            dt = XSD + ("decimal" if "." in lex else "integer")
            self.triples.append(Triple(subj, pred, lex, "literal", dt))
            return
        if kind == "punct" and m.group("punct") == "[":
            label = self._node()
            self.triples.append(Triple(subj, pred, label, "bnode"))
            return
        if kind == "punct" and m.group("punct") == "(":
            self._next()
            head = self._parse_collection()
            self.triples.append(
                Triple(subj, pred, head,
                       "iri" if head == RDF_NIL else "bnode"))
            return
        node = self._node()
        self.triples.append(Triple(subj, pred, node, "iri"))

    def _parse_collection(self) -> str:
        """RDF collection ``( e1 e2 ... )`` → standard rdf:first/rest
        chain over fresh blank nodes; returns the head cell (rdf:nil when
        empty).  Elements may be any object form, including nested
        collections."""
        cells: List[str] = []
        while True:
            kind, m = self._peek()
            if kind is None:
                raise ValueError("unterminated RDF collection: expected ')'")
            if kind == "punct" and m.group("punct") == ")":
                self._next()
                break
            cell = f"_:b{next(self._bnode)}"
            cells.append(cell)
            self._object(cell, RDF_FIRST)
        if not cells:
            return RDF_NIL
        for a, b in zip(cells, cells[1:] + [RDF_NIL]):
            self.triples.append(
                Triple(a, RDF_REST, b, "iri" if b == RDF_NIL else "bnode"))
        return cells[0]


def parse_turtle(text: str) -> Tuple[List[Triple], Dict[str, str]]:
    """Parse to a DEDUPLICATED triple list (first-occurrence order):
    an RDF graph is a SET of triples, so a statement written twice is
    one triple — rdflib/pyshacl semantics; a duplicated statement must
    not double a sh:maxCount tally."""
    p = _Parser(text).parse()
    seen = set()
    out = []
    for t in p.triples:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out, p.prefixes


def load_turtle(path: str) -> Tuple[List[Triple], Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_turtle(f.read())


# ---------------------------------------------------------------------------
# triples → Arrow entity table
# ---------------------------------------------------------------------------


def triples_table(triples: List[Triple]) -> pa.Table:
    """Raw triples as an Arrow table (subject/predicate/object/kind/...)."""
    return pa.table(
        {
            "subject": pa.array([t.s for t in triples], pa.string()),
            "predicate": pa.array([t.p for t in triples], pa.string()),
            "object": pa.array([t.o for t in triples], pa.string()),
            "kind": pa.array([t.kind for t in triples], pa.string()),
            "datatype": pa.array([t.datatype for t in triples], pa.string()),
            "lang": pa.array([t.lang for t in triples], pa.string()),
        }
    )


def entity_table(triples: List[Triple],
                 target_class: Optional[str] = None,
                 subjects: Optional[List[str]] = None) -> pa.Table:
    """One row per subject (of ``target_class`` if given); one column per
    predicate (full IRI), holding the FIRST value; numeric xsd datatypes
    hydrate to int64/float64 when every value parses.

    ``subjects`` overrides the rdf:type scan with an explicit focus-node
    list (the extended-target kinds: targetNode / targetSubjectsOf /
    targetObjectsOf — see :func:`target_subjects`).

    Multi-valued predicates keep the first value — grouped cardinality
    checks should run on :func:`triples_table` with the engine's grouped
    MinCount/MaxCount instead (documented scope)."""
    if subjects is not None:
        seen = set()
        uniq: List[str] = []
        for s in subjects:
            if s not in seen:
                seen.add(s)
                uniq.append(s)
        subjects = uniq
    else:
        subjects = []
        seen = set()
        for t in triples:
            if t.p == RDF_TYPE and (target_class is None
                                    or t.o == target_class):
                if t.s not in seen:
                    seen.add(t.s)
                    subjects.append(t.s)
    by_sp: Dict[Tuple[str, str], Triple] = {}
    preds: List[str] = []
    for t in triples:
        if t.p == RDF_TYPE or t.s not in seen:
            continue
        if (t.s, t.p) not in by_sp:
            by_sp[(t.s, t.p)] = t
        if t.p not in preds:
            preds.append(t.p)
    cols: Dict[str, pa.Array] = {"subject": pa.array(subjects, pa.string())}
    for p in preds:
        vals = [by_sp.get((s, p)) for s in subjects]
        dts = {v.datatype for v in vals if v is not None}
        lex = [None if v is None else v.o for v in vals]
        if dts and dts <= _INT_TYPES:
            try:
                cols[p] = pa.array(
                    [None if x is None else int(x) for x in lex], pa.int64())
                continue
            except ValueError:
                pass
        if dts and dts <= (_INT_TYPES | _FLOAT_TYPES):
            try:
                cols[p] = pa.array(
                    [None if x is None else float(x) for x in lex],
                    pa.float64())
                continue
            except ValueError:
                pass
        cols[p] = pa.array(lex, pa.string())
    return pa.table(cols)


# ---------------------------------------------------------------------------
# SHACL shapes (.ttl) → ValidationSpec per target class
# ---------------------------------------------------------------------------


def _xsd_curie(iri: Optional[str]) -> Optional[str]:
    if iri and iri.startswith(XSD):
        return "xsd:" + iri[len(XSD):]
    return iri


def _literal_msg(op: str, t: Triple) -> str:
    """pyshacl-style bound rendering: bare turtle ints carry
    datatype=xsd:integer, matching the reference README output."""
    if t.datatype:
        return f'Value is not {op} Literal("{t.o}", datatype={_xsd_curie(t.datatype)})'
    return f'Value is not {op} Literal("{t.o}")'


def _sp_index(triples: List[Triple]) -> Dict[Tuple[str, str], List[Triple]]:
    """(subject, predicate) → triples index shared by the shape walkers."""
    obj: Dict[Tuple[str, str], List[Triple]] = {}
    for t in triples:
        obj.setdefault((t.s, t.p), []).append(t)
    return obj


def _types_by_subject(triples: List[Triple]) -> Dict[str, set]:
    """Each subject's explicit ``rdf:type`` objects."""
    types: Dict[str, set] = {}
    for t in triples:
        if t.p == RDF_TYPE:
            types.setdefault(t.s, set()).add(t.o)
    return types


def _first(obj, s, p) -> Optional[Triple]:
    lst = obj.get((s, p))
    return lst[0] if lst else None


def rdf_list_triples(obj, head: Optional[str]) -> List[Triple]:
    """Walk an ``rdf:first``/``rdf:rest`` chain from ``head``; returns the
    element triples in list order (cycle-safe, empty for rdf:nil)."""
    out: List[Triple] = []
    seen = set()
    while head and head != RDF_NIL and head not in seen:
        seen.add(head)
        f = _first(obj, head, RDF_FIRST)
        if f is not None:
            out.append(f)
        r = _first(obj, head, RDF_REST)
        head = r.o if r is not None else None
    return out


def _hydrate_list_values(elems: List[Triple]) -> List:
    """Literal list elements → python values matching the entity pivot's
    hydration (all-int → int, numeric → float, else lexical string; IRIs
    keep the full IRI string)."""
    dts = {t.datatype for t in elems if t.kind == "literal"}
    if elems and dts and dts <= _INT_TYPES:
        try:
            return [int(t.o) for t in elems]
        except ValueError:
            pass
    if elems and dts and dts <= (_INT_TYPES | _FLOAT_TYPES):
        try:
            return [float(t.o) for t in elems]
        except ValueError:
            pass
    return [t.o for t in elems]


def resolve_path(obj, path_t: Triple) -> Optional[List[Tuple]]:
    """``sh:path`` node → ordered steps, or ``None`` for malformed
    path nodes.  The FULL recursive SHACL path grammar is covered
    (mirrors pyshacl's path evaluation — the reference delegates ALL
    path handling to pyshacl).  Step kinds:

    - ``("fwd", p)`` / ``("inv", p)`` — plain IRI / ``[sh:inversePath
      <p>]`` (inverses are normalized down to atoms at parse time:
      ``^(a/b) == ^b/^a``, ``^(a|b) == ^a|^b``, ``^(a*) == (^a)*``,
      ``^^a == a`` — relation-transpose laws, so the walker never
      needs a general inverse);
    - ``("alt", [step, ...])`` — ``[sh:alternativePath (…)]`` over
      ANY sub-paths (atoms, sequences, closures, nested composites);
    - ``("seq", [step, ...])`` — a NESTED sequence (an RDF list used
      as an operand of another composite);
    - ``("star"|"plus"|"opt", step)`` — ``sh:zeroOrMorePath`` /
      ``sh:oneOrMorePath`` / ``sh:zeroOrOnePath`` over ANY sub-path
      (closure semantics: star includes the start node);
    - the TOP LEVEL is a list of steps (a sequence), as before.

    Only genuinely malformed path nodes (a bnode with none of the
    path predicates, a cyclic bnode structure, a literal) return
    None; :func:`unsupported_path_shapes` surfaces those as data
    (the same never-mistranslate contract the sh:sparql translator
    carries)."""
    def node(o: str, kind: str, seen: frozenset) -> Optional[Tuple]:
        """Recursive path-node parser (cycle-safe over bnode ids)."""
        if kind == "iri":
            return ("fwd", o)
        if kind != "bnode" or o in seen:
            return None
        seen = seen | {o}
        if _first(obj, o, RDF_FIRST) is not None:
            elems = rdf_list_triples(obj, o)
            subs = [node(e.o, e.kind, seen) for e in elems]
            if not subs or any(s is None for s in subs):
                return None
            return subs[0] if len(subs) == 1 else ("seq", subs)
        inv = _first(obj, o, SH_NS + "inversePath")
        if inv is not None:
            sub = node(inv.o, inv.kind, seen)
            return None if sub is None else invert_path(sub)
        alt = _first(obj, o, SH_NS + "alternativePath")
        if alt is not None:
            elems = rdf_list_triples(obj, alt.o)
            subs = [node(e.o, e.kind, seen) for e in elems]
            if not subs or any(s is None for s in subs):
                return None
            return ("alt", subs)
        for pred, k in ((SH_NS + "zeroOrMorePath", "star"),
                        (SH_NS + "oneOrMorePath", "plus"),
                        (SH_NS + "zeroOrOnePath", "opt")):
            t = _first(obj, o, pred)
            if t is not None:
                sub = node(t.o, t.kind, seen)
                return None if sub is None else (k, sub)
        return None

    top = node(path_t.o, path_t.kind, frozenset())
    if top is None:
        return None
    return list(top[1]) if top[0] == "seq" else [top]


def invert_path(st: Tuple) -> Tuple:
    """Transpose of a path step, with inverses pushed down to atoms:
    ``(a/b)^T = b^T/a^T``, ``(a|b)^T = a^T|b^T``, ``(a*)^T = (a^T)*``,
    ``(a^T)^T = a`` — standard relation-algebra laws, so evaluation
    only ever needs atom-level inverse indexes."""
    d = st[0]
    if d == "fwd":
        return ("inv", st[1])
    if d == "inv":
        return ("fwd", st[1])
    if d == "seq":
        return ("seq", [invert_path(s) for s in reversed(st[1])])
    if d == "alt":
        return ("alt", [invert_path(s) for s in st[1]])
    return (d, invert_path(st[1]))  # star / plus / opt


def path_str(steps: List[Tuple]) -> str:
    """SPARQL-ish display string for a resolved path: ``^`` marks an
    inverse step, ``/`` separates sequence steps, ``|`` alternatives,
    ``* + ?`` the closures — this is what lands in the violation row's
    ``property_path`` column."""
    def one(st) -> str:
        d = st[0]
        if d == "fwd":
            return st[1]
        if d == "inv":
            return "^" + st[1]
        if d == "alt":
            return "(" + "|".join(one(b) for b in st[1]) + ")"
        if d == "seq":
            return "(" + "/".join(one(b) for b in st[1]) + ")"
        return one(st[1]) + {"star": "*", "plus": "+", "opt": "?"}[d]
    return "/".join(one(st) for st in steps)


def unsupported_path_shapes(triples: List[Triple]) -> List[Dict[str, str]]:
    """Property shapes whose ``sh:path`` node is MALFORMED (a bnode
    carrying none of the SHACL path predicates, a cyclic bnode
    structure, an empty list, a literal), surfaced as data:
    ``[{"shape", "pshape", "target", "path_node"}]``.  The full
    recursive path grammar now resolves (nested composites included),
    so this only fires on graphs that are not valid SHACL — those
    shapes are never evaluated: a malformed path must not silently
    become a (nonexistent) pivot column, and a wrong approximation is
    worse than an explicit gap."""
    obj = _sp_index(triples)
    out = []
    for shape, target in _shape_target_keys(triples, obj):
        for pt in obj.get((shape, SH_NS + "property"), []):
            if _deactivated(obj, pt.o):
                continue
            path_t = _first(obj, pt.o, SH_NS + "path")
            if path_t is None:
                continue
            if resolve_path(obj, path_t) is None:
                out.append({"shape": shape, "pshape": pt.o,
                            "target": target, "path_node": path_t.o})
    return out


#: extended-target sentinel prefixes — a target key is either a plain
#: class IRI (sh:targetClass, the overwhelmingly common case, kept
#: unprefixed for artifact/golden stability) or one of these
TARGET_NODE = "target:node="
TARGET_SUBJECTS_OF = "target:subjectsOf="
TARGET_OBJECTS_OF = "target:objectsOf="
#: a shape with SEVERAL targets gets ONE union key (SHACL focus set =
#: union of all targets; every focus node is evaluated ONCE) — parts
#: joined by an unencodable-in-IRIs separator
TARGET_UNION = "target:union="
_UNION_SEP = "\x1f"


def _node_shapes_with_target(triples, obj) -> List[Tuple[str, str]]:
    """[(shape, target_key)] for `a sh:NodeShape` / `a sh:Shape`
    declarations — ONE place for the type spellings the reference
    fixtures use.

    A shape may declare SEVERAL ``sh:targetClass`` values (the shark
    PropertyShape targets rdf:Property, owl:DatatypeProperty AND
    owl:ObjectProperty — ``shark_shapes.ttl:152-155``); SHACL semantics
    are the union of the targets, so one (shape, target) pair is
    yielded per declared target, in declaration order.  Beyond
    ``sh:targetClass`` (plain class-IRI key), ``sh:targetNode`` /
    ``sh:targetSubjectsOf`` / ``sh:targetObjectsOf`` yield sentinel
    keys (``TARGET_NODE`` etc.) that :func:`target_subjects` resolves
    to focus-node sets — the reference gets all four target kinds free
    from pyshacl."""
    out = []
    for t in triples:
        if t.p == RDF_TYPE and t.o in (SH_NS + "NodeShape", SH_NS + "Shape"):
            if _deactivated(obj, t.s):
                continue  # sh:deactivated true: shape is skipped entirely
            for tc in obj.get((t.s, SH_NS + "targetClass"), []):
                out.append((t.s, tc.o))
            for tn in obj.get((t.s, SH_NS + "targetNode"), []):
                out.append((t.s, TARGET_NODE + tn.o))
            for ts in obj.get((t.s, SH_NS + "targetSubjectsOf"), []):
                out.append((t.s, TARGET_SUBJECTS_OF + ts.o))
            for to in obj.get((t.s, SH_NS + "targetObjectsOf"), []):
                out.append((t.s, TARGET_OBJECTS_OF + to.o))
    return out


def _deactivated(obj, node: str) -> bool:
    """``sh:deactivated true`` — pyshacl skips such shapes (node OR
    property shapes) without evaluating any of their constraints."""
    d = _first(obj, node, SH_NS + "deactivated")
    return d is not None and d.o == "true"


def _severity(obj, pshape: str, shape: str) -> str:
    """``sh:severity`` of the property shape (falling back to its node
    shape), mapped to the engine's Violation/Warning/Info strings —
    default sh:Violation, unknown IRIs kept as Violation (never
    silently downgraded)."""
    t = (_first(obj, pshape, SH_NS + "severity")
         or _first(obj, shape, SH_NS + "severity"))
    if t is None:
        return "Violation"
    local = t.o.rsplit("#", 1)[-1]
    return local if local in ("Violation", "Warning", "Info") \
        else "Violation"


def _shape_target_keys(triples, obj) -> List[Tuple[str, str]]:
    """ONE (shape, target_key) per shape: the single declared target,
    or a ``TARGET_UNION`` key over all of them.  SHACL's focus set is
    the UNION of a shape's targets and each focus node is validated
    once — per-target evaluation would double-report a node matched by
    two targets (the shark ClassShape targets ``owl:Class`` AND
    ``sh:targetSubjectsOf rdfs:subClassOf``; most typed classes match
    both)."""
    by_shape: Dict[str, List[str]] = {}
    order: List[str] = []
    for shape, target in _node_shapes_with_target(triples, obj):
        if shape not in by_shape:
            by_shape[shape] = []
            order.append(shape)
        if target not in by_shape[shape]:
            by_shape[shape].append(target)
    out = []
    for shape in order:
        ts = by_shape[shape]
        out.append((shape, ts[0] if len(ts) == 1
                    else TARGET_UNION + _UNION_SEP.join(ts)))
    return out


def target_subjects(data_triples: List[Triple], target: str,
                    types: Optional[Dict[str, set]] = None) -> List[str]:
    """Focus-node set for a target key, in first-seen order:

    - plain class IRI → subjects with an EXPLICIT ``rdf:type`` triple
      (no-inference semantics, matching pyshacl's default);
    - ``TARGET_NODE + n`` → exactly ``n`` (a declared focus node is in
      scope whether or not it appears in the data graph);
    - ``TARGET_SUBJECTS_OF + p`` → distinct subjects of ``p`` triples;
    - ``TARGET_OBJECTS_OF + p`` → distinct objects of ``p`` triples
      (literal objects included — constraints over their properties
      simply find no values, as in pyshacl);
    - ``TARGET_UNION + k1␟k2…`` → deduped union of the parts."""
    if target.startswith(TARGET_UNION):
        parts = target[len(TARGET_UNION):].split(_UNION_SEP)
        out, seen = [], set()
        for part in parts:
            for s in target_subjects(data_triples, part, types):
                if s not in seen:
                    seen.add(s)
                    out.append(s)
        return out
    if target.startswith(TARGET_NODE):
        return [target[len(TARGET_NODE):]]
    if target.startswith(TARGET_SUBJECTS_OF):
        p = target[len(TARGET_SUBJECTS_OF):]
        out, seen = [], set()
        for t in data_triples:
            if t.p == p and t.s not in seen:
                seen.add(t.s)
                out.append(t.s)
        return out
    if target.startswith(TARGET_OBJECTS_OF):
        p = target[len(TARGET_OBJECTS_OF):]
        out, seen = [], set()
        for t in data_triples:
            if t.p == p and t.o not in seen:
                seen.add(t.o)
                out.append(t.o)
        return out
    if types is not None:
        return [s for s, ts in types.items() if target in ts]
    out, seen = [], set()
    for t in data_triples:
        if t.p == RDF_TYPE and t.o == target and t.s not in seen:
            seen.add(t.s)
            out.append(t.s)
    return out


def _subject_spec(constraints: List):
    """The spec of ``constraints`` over one Turtle table: focus = the
    ``subject`` column, the one id column all the tables share."""
    from ..spec import ValidationSpec

    return ValidationSpec(constraints=constraints, id_columns=["subject"],
                          focus_template="{subject}")


def shapes_to_specs(triples: List[Triple], long_form: bool = False):
    """Compile NodeShapes into {target_class: ValidationSpec}.

    ``long_form=True`` omits the row-form Required approximation for
    ``sh:minCount > 1`` shapes — :func:`validate_ttl_long` evaluates those
    exactly (including zero-valued subjects), so keeping the row form too
    would double-report."""
    from ..spec import ValidationSpec

    obj = _sp_index(triples)
    specs: Dict[str, ValidationSpec] = {}
    for shape, target in _shape_target_keys(triples, obj):
        constraints = _row_local_constraints(obj, shape, long_form)
        if constraints:
            specs[target] = _subject_spec(constraints)
    return specs


def _row_local_constraints(obj, shape: str, long_form: bool) -> List:
    """Row-local (entity-pivot) constraints of one node shape's direct-
    IRI-path property shapes — shared by :func:`shapes_to_specs` and
    the ``sh:node`` inner-shape evaluation (which checks VALUE nodes'
    own properties against a referenced shape)."""
    from ..spec import Required

    def first(s, p):
        return _first(obj, s, p)

    constraints: List = []
    for pt in obj.get((shape, SH_NS + "property"), []):
        pshape = pt.o
        if _deactivated(obj, pshape):
            continue
        path_t = first(pshape, SH_NS + "path")
        if path_t is None:
            continue
        if path_t.kind != "iri":
            # complex path (inverse / sequence): evaluated exactly by
            # validate_ttl_long's path walker; unsupported operators
            # are surfaced by unsupported_path_shapes().  Either way
            # a blank-node id must never become a pivot column name.
            continue
        col = path_t.o
        # sh:message overrides every constraint message of this
        # property shape (pyshacl reports the custom message verbatim;
        # shark_shapes.ttl puts one on nearly every shape)
        msg_t = first(pshape, SH_NS + "message")
        msg = msg_t.o if msg_t is not None else None
        sev = _severity(obj, pshape, shape)
        start = len(constraints)
        mc = first(pshape, SH_NS + "minCount")
        if mc is not None and int(mc.o) >= 1 and not (
                long_form and int(mc.o) > 1):
            # minCount 1 → row-form Required (MinCountConstraintComponent);
            # minCount > 1 is exact only in the grouped form over the
            # triples table (validate_ttl_long) — the row form here is
            # its zero-values approximation for the default path
            constraints.append(
                Required(column=col, shape_id=pshape, message=msg,
                         min_count=int(mc.o),
                         treat_empty_string_as_null=False))
        constraints.extend(
            _value_facet_constraints(obj, pshape, col, pshape, msg))
        # property-pair constraints (C12–C14) — compared over the
        # pivot's FIRST values, the same documented single-value scope
        # every row-local facet here carries; engine null semantics
        # (a NULL never violates a value constraint) apply
        from ..spec import Disjoint, Equals, LessThan, LessThanOrEquals

        for pn, pcls in (("equals", Equals), ("disjoint", Disjoint),
                         ("lessThan", LessThan),
                         ("lessThanOrEquals", LessThanOrEquals)):
            b = first(pshape, SH_NS + pn)
            if b is not None and b.kind == "iri":
                constraints.append(pcls(
                    column=col, other_column=b.o, shape_id=pshape,
                    message=msg))
        # sh:not / sh:and / sh:or / sh:xone over VALUE-facet operand
        # shapes (C15–C18 from Turtle): each operand blank node carries
        # row-local value facets applied to the SAME path; multi-facet
        # operands fold into an inner And.  Operands with STRUCTURE
        # (sh:class / sh:node / sh:property / ...) or no recognizable
        # value facet make the whole operator untranslated here — never
        # a silently wrong truth table; the LONG form evaluates those
        # exactly through the recursive _NodeChecker
        # (validate_ttl_long "logical" facets).  All wired with
        # excuse_nulls: a focus with no value has no value nodes.
        from ..spec import And, Not, Or, Xone

        nt = first(pshape, SH_NS + "not")
        if nt is not None and not _structural_shape(obj, nt.o):
            inner = _value_facet_constraints(obj, nt.o, col, pshape, None)
            if inner:
                constraints.append(Not(
                    column=col, shape_id=pshape, message=msg,
                    excuse_nulls=True,
                    inner=inner[0] if len(inner) == 1
                    else And(column=col, shapes=inner)))
        for lp, lcls in (("or", Or), ("and", And), ("xone", Xone)):
            lt = first(pshape, SH_NS + lp)
            if lt is None:
                continue
            elems = rdf_list_triples(obj, lt.o)
            subs: List = []
            for e in elems:
                fc = ([] if _structural_shape(obj, e.o)
                      else _value_facet_constraints(obj, e.o, col,
                                                    pshape, None))
                if not fc:
                    subs = []
                    break
                subs.append(fc[0] if len(fc) == 1
                            else And(column=col, shapes=fc))
            if subs:
                constraints.append(lcls(
                    column=col, shape_id=pshape, message=msg,
                    excuse_nulls=True, shapes=subs))
        if sev != "Violation":
            for c in constraints[start:]:
                c.severity = sev
    return constraints


def _value_facet_constraints(obj, node: str, col: str, shape_id: str,
                             msg: Optional[str]) -> List:
    """Row-local VALUE facets declared on ``node`` (a property shape or
    a logical-operator operand), applied to column ``col``: datatype,
    numeric bounds, lengths, pattern, sh:in.  No cardinality facets —
    those are group semantics and stay with their dedicated paths."""
    from ..spec import (
        Datatype,
        InSet,
        MaxExclusive,
        MaxInclusive,
        MaxLength,
        MinExclusive,
        MinInclusive,
        MinLength,
        Pattern,
    )

    out: List = []
    # shark_shapes.ttl writes the nonstandard `sh:dataType`
    # (capital T) — accept both spellings like the reference does
    dt = (_first(obj, node, SH_NS + "datatype")
          or _first(obj, node, SH_NS + "dataType"))
    if dt is not None:
        arrow = ("int64" if dt.o in _INT_TYPES
                 else "float64" if dt.o in _FLOAT_TYPES
                 else "string")
        out.append(Datatype(column=col, shape_id=shape_id, message=msg,
                            datatype=arrow))
    for pred, cls, op in (
        ("minInclusive", MinInclusive, ">="),
        ("maxInclusive", MaxInclusive, "<="),
        ("minExclusive", MinExclusive, ">"),
        ("maxExclusive", MaxExclusive, "<"),
    ):
        b = _first(obj, node, SH_NS + pred)
        if b is not None:
            bound = float(b.o) if "." in b.o else int(b.o)
            out.append(cls(column=col, shape_id=shape_id, bound=bound,
                           message=msg or _literal_msg(op, b)))
    for pred, cls, kw in (
        ("minLength", MinLength, "min_length"),
        ("maxLength", MaxLength, "max_length"),
    ):
        b = _first(obj, node, SH_NS + pred)
        if b is not None:
            out.append(cls(column=col, shape_id=shape_id, message=msg,
                           **{kw: int(b.o)}))
    pat = _first(obj, node, SH_NS + "pattern")
    if pat is not None:
        fl = _first(obj, node, SH_NS + "flags")
        out.append(Pattern(column=col, shape_id=shape_id, message=msg,
                           pattern=pat.o,
                           flags=fl.o if fl is not None else None))
    in_t = _first(obj, node, SH_NS + "in")
    if in_t is not None:
        elems = rdf_list_triples(obj, in_t.o)
        out.append(InSet(column=col, shape_id=shape_id, message=msg,
                         allowed=_hydrate_list_values(elems)))
    return out


def closed_node_shapes(triples: List[Triple]):
    """``sh:closed true`` node shapes → ``[(target_key, shape,
    allowed_predicates, message)]`` where allowed = the shape's direct
    predicate-IRI property paths ∪ ``sh:ignoredProperties``.  Complex
    paths do NOT whitelist a predicate (per the SHACL spec: only IRI
    paths count), and ``rdf:type`` is only allowed when ignored —
    pyshacl-consistent."""
    obj = _sp_index(triples)
    out = []
    for shape, target in _shape_target_keys(triples, obj):
        cl = _first(obj, shape, SH_NS + "closed")
        if cl is None or cl.o != "true":
            continue
        allowed = set()
        for pt in obj.get((shape, SH_NS + "property"), []):
            if _deactivated(obj, pt.o):
                continue
            path_t = _first(obj, pt.o, SH_NS + "path")
            if path_t is not None and path_t.kind == "iri":
                allowed.add(path_t.o)
        ig = _first(obj, shape, SH_NS + "ignoredProperties")
        if ig is not None:
            allowed.update(t.o for t in rdf_list_triples(obj, ig.o))
        msg = _first(obj, shape, SH_NS + "message")
        out.append((target, shape, sorted(allowed),
                    msg.o if msg is not None else None,
                    _severity(obj, shape, shape)))
    return out


_NODE_KINDS = {  # sh:nodeKind IRI → Triple.kind regex
    "IRI": "iri", "BlankNode": "bnode", "Literal": "literal",
    "BlankNodeOrIRI": "bnode|iri", "BlankNodeOrLiteral": "bnode|literal",
    "IRIOrLiteral": "iri|literal",
}

#: constraint predicates BEYOND the pure value-facet grammar — a
#: qualifiedValueShape declaring any of these needs the full recursive
#: _NodeChecker to count conformance (the vectorized value-facet mask
#: path would ignore them, silently inflating the count)
_STRUCTURAL_SHAPE_PREDS = tuple(SH_NS + p for p in (
    "property", "node", "class", "nodeKind", "hasValue", "languageIn",
    "not", "and", "or", "xone", "closed"))


#: node-level constraint predicates a TARGETED shape can apply to the
#: focus node itself — evaluated by the recursive checker in
#: validate_ttl_long (sh:property / sh:closed excluded: dedicated paths)
_NODE_LEVEL_PREDS = tuple(SH_NS + p for p in (
    "datatype", "dataType", "minInclusive", "maxInclusive",
    "minExclusive", "maxExclusive", "minLength", "maxLength",
    "pattern", "in", "nodeKind", "class", "languageIn", "hasValue",
    "node", "not", "and", "or", "xone"))


def _structural_shape(obj, node: str) -> bool:
    """True when ``node`` declares any constraint predicate beyond the
    pure value-facet grammar — such an operand shape needs the full
    recursive _NodeChecker, and the vectorized/row-local paths must
    not evaluate a truncated version of it."""
    return any((str(node), p) in obj for p in _STRUCTURAL_SHAPE_PREDS)


def long_form_property_shapes(triples: List[Triple]):
    """Property-shape facets that the single-value entity pivot cannot
    evaluate — they need every value of a multi-valued predicate, i.e. the
    TRIPLES table: ``sh:maxCount``, ``sh:minCount > 1``, ``sh:nodeKind``,
    ``sh:class`` and ``sh:languageIn`` (literal or RDF-collection form).

    Returns ``[(target_class, pshape, predicate, facets)]`` where facets
    is a dict with any of ``max_count``/``min_count``/``node_kind``/
    ``class_iri``/``language_in``/``message``.

    COMPLEX paths (inverse / sequence — :func:`resolve_path`) also land
    here: their facets carry ``steps`` (the resolved step list) and the
    ROW-LOCAL facets too (``pattern``/``min_length``/``max_length``/
    ``datatype``/``in_set``/``min_count`` down to 1) — the entity pivot
    cannot see path-walked values, so every facet of a complex-path
    shape is evaluated over the walked value rows.  Unresolvable paths
    are skipped (surfaced by :func:`unsupported_path_shapes`)."""
    obj = _sp_index(triples)
    out = []
    for shape, target in _shape_target_keys(triples, obj):
        for pt in obj.get((shape, SH_NS + "property"), []):
            pshape = pt.o
            if _deactivated(obj, pshape):
                continue
            path_t = _first(obj, pshape, SH_NS + "path")
            if path_t is None:
                continue
            steps = resolve_path(obj, path_t)
            if steps is None:
                continue  # unsupported form: surfaced as data, not run
            complex_path = len(steps) > 1 or steps[0][0] != "fwd"
            facets: Dict[str, object] = {}
            sev = _severity(obj, pshape, shape)
            if sev != "Violation":
                facets["severity"] = sev
            if complex_path:
                facets["steps"] = steps
                mn1 = _first(obj, pshape, SH_NS + "minCount")
                if mn1 is not None and int(mn1.o) == 1:
                    facets["min_count"] = 1
                pat = _first(obj, pshape, SH_NS + "pattern")
                if pat is not None:
                    facets["pattern"] = pat.o
                for k in ("minLength", "maxLength"):
                    b = _first(obj, pshape, SH_NS + k)
                    if b is not None:
                        facets[{"minLength": "min_length",
                                "maxLength": "max_length"}[k]] = int(b.o)
                dt = (_first(obj, pshape, SH_NS + "datatype")
                      or _first(obj, pshape, SH_NS + "dataType"))
                if dt is not None:
                    facets["datatype"] = dt.o
                in_t = _first(obj, pshape, SH_NS + "in")
                if in_t is not None:
                    facets["in_set"] = _hydrate_list_values(
                        rdf_list_triples(obj, in_t.o))
                bounds = []
                for bk in ("minInclusive", "maxInclusive",
                           "minExclusive", "maxExclusive"):
                    b = _first(obj, pshape, SH_NS + bk)
                    if b is not None:
                        bounds.append((bk, float(b.o) if "." in b.o
                                       else int(b.o)))
                if bounds:
                    facets["bounds"] = bounds
            msg_t = _first(obj, pshape, SH_NS + "message")
            if msg_t is not None:
                facets["message"] = msg_t.o
            mx = _first(obj, pshape, SH_NS + "maxCount")
            if mx is not None:
                facets["max_count"] = int(mx.o)
            mn = _first(obj, pshape, SH_NS + "minCount")
            if mn is not None and int(mn.o) > 1:
                facets["min_count"] = int(mn.o)
            nk = _first(obj, pshape, SH_NS + "nodeKind")
            if nk is not None and nk.o.rsplit("#", 1)[-1] in _NODE_KINDS:
                facets["node_kind"] = nk.o.rsplit("#", 1)[-1]
            cl = _first(obj, pshape, SH_NS + "class")
            if cl is not None:
                facets["class_iri"] = cl.o
            hv = _first(obj, pshape, SH_NS + "hasValue")
            if hv is not None:
                # sh:hasValue needs ALL values of the path (violation =
                # NO value equals the required one) — long-form only.
                # FULL RDF term identity: "active"@en must not satisfy
                # hasValue "active" (lexical, kind and lang all match)
                facets["has_value"] = (hv.o, hv.kind, hv.lang or "")
            nd = _first(obj, pshape, SH_NS + "node")
            if nd is not None:
                # sh:node: every value must CONFORM to the referenced
                # node shape — full RECURSIVE conformance via
                # _NodeChecker (nested sh:node, grouped facets, paths,
                # logical operators, closed; unbounded depth)
                facets["node_shape"] = nd.o
            qv = _first(obj, pshape, SH_NS + "qualifiedValueShape")
            if qv is not None:
                # sh:qualifiedValueShape + qualifiedMin/MaxCount: count
                # the value nodes CONFORMING to the qualified shape.
                # Pure value-facet shapes (the logical-operator operand
                # grammar) count on the vectorized mask path; shapes
                # with STRUCTURE (sh:property / sh:node / sh:class /
                # nodeKind / logicals / closed / hasValue / languageIn)
                # count through the full recursive _NodeChecker — and a
                # MIXED shape (pattern + class) must go there too, or
                # the ignored facet silently inflates the count
                qmin = _first(obj, pshape, SH_NS + "qualifiedMinCount")
                qmax = _first(obj, pshape, SH_NS + "qualifiedMaxCount")
                structural = _structural_shape(obj, qv.o)
                # sh:qualifiedValueShapesDisjoint: a value counts only
                # when it conforms to Q and to NO sibling qualified
                # shape (the qualified shapes of the node shape's OTHER
                # property shapes) — spec §4.5.3.  Sibling conformance
                # needs full verdicts, so disjoint forces the checker
                dj = _first(obj, pshape,
                            SH_NS + "qualifiedValueShapesDisjoint")
                siblings = []
                if dj is not None and dj.o == "true":
                    for pt2 in obj.get((shape, SH_NS + "property"), []):
                        if pt2.o == pshape or _deactivated(obj, pt2.o):
                            continue
                        qv2 = _first(obj, pt2.o,
                                     SH_NS + "qualifiedValueShape")
                        if qv2 is not None and qv2.o != qv.o:
                            siblings.append(qv2.o)
                if ((qmin is not None or qmax is not None)
                        and (structural or siblings
                             or _value_facet_constraints(
                                 obj, qv.o, "object", pshape, None))):
                    facets["qualified"] = {
                        "shape": qv.o,
                        "min": int(qmin.o) if qmin is not None else None,
                        "max": int(qmax.o) if qmax is not None else None,
                        "checker": structural or bool(siblings),
                        "siblings": siblings,
                    }
            ul = _first(obj, pshape, SH_NS + "uniqueLang")
            if ul is not None and ul.o == "true":
                facets["unique_lang"] = True
            li = _first(obj, pshape, SH_NS + "languageIn")
            if li is not None:
                if li.kind == "literal":
                    # the reference writes the nonstandard single-literal
                    # form Literal("en") (synthetic_data_generator.py:97)
                    facets["language_in"] = [li.o]
                else:
                    facets["language_in"] = [
                        t.o for t in rdf_list_triples(obj, li.o)]
            # logical operators whose operands go BEYOND the value-facet
            # grammar (sh:class / sh:node / sh:property / mixes): the
            # row-local path skips these (never a truncated truth
            # table); here they evaluate exactly per value through the
            # recursive _NodeChecker
            logical = []
            nt = _first(obj, pshape, SH_NS + "not")
            if nt is not None and _structural_shape(obj, nt.o):
                logical.append(("not", [nt.o]))
            for lp in ("and", "or", "xone"):
                lt = _first(obj, pshape, SH_NS + lp)
                if lt is None:
                    continue
                ops = [t.o for t in rdf_list_triples(obj, lt.o)]
                if ops and any(_structural_shape(obj, o) for o in ops):
                    logical.append((lp, ops))
            if logical:
                facets["logical"] = logical
            if set(facets) - {"message", "steps", "severity"}:
                out.append((target, pshape,
                            path_str(steps) if complex_path else path_t.o,
                            facets))
    return out


def _path_atoms(st) -> List[Tuple[str, str]]:
    """All (fwd|inv, predicate) atoms anywhere in a step's AST."""
    d = st[0]
    if d in ("fwd", "inv"):
        return [st]
    if d in ("alt", "seq"):
        return [a for b in st[1] for a in _path_atoms(b)]
    return _path_atoms(st[1])  # star / plus / opt


class _PathIndex:
    """Pre-built forward/inverse adjacency for evaluating resolved
    SHACL path ASTs over the (small, driver-parsed) data graph.

    Node identity is the full RDF term ``(lexical, kind, lang,
    datatype)``; forward steps follow triples whose subject is a
    non-literal frontier node, inverse steps follow triples whose
    OBJECT term equals the frontier node (matching lang/datatype, so
    ``"x"@en`` and ``"x"@fr`` stay distinct).  ``datatype_identity=
    False`` drops the literal datatype from inverse matching — used by
    the sh:node conformance checker, whose starting terms come from the
    violation table's (object, kind, lang) columns where no datatype
    survives.  Driver-side by design — TTL inputs are small by
    construction (the 100 TB path is Parquet, where paths become
    joins)."""

    def __init__(self, data_triples: List[Triple],
                 fwd_preds: Optional[set] = None,
                 inv_preds: Optional[set] = None,
                 datatype_identity: bool = True):
        self.dt_id = datatype_identity
        self.fwd_idx: Dict[Tuple[str, str], List[Triple]] = {}
        self.inv_idx: Dict[Tuple, List[str]] = {}
        for t in data_triples:
            if fwd_preds is None or t.p in fwd_preds:
                self.fwd_idx.setdefault((t.s, t.p), []).append(t)
            if inv_preds is None or t.p in inv_preds:
                k = ((t.o, t.kind, t.lang, t.datatype, t.p)
                     if datatype_identity else (t.o, t.kind, t.lang, t.p))
                self.inv_idx.setdefault(k, []).append(t.s)

    def succ(self, node, d, p):
        if d == "fwd":
            if node[1] == "literal":
                return ()  # literals have no outgoing edges
            return [(t.o, t.kind, t.lang, t.datatype)
                    for t in self.fwd_idx.get((node[0], p), ())]
        k = ((node[0], node[1], node[2], node[3], p)
             if self.dt_id else (node[0], node[1], node[2], p))
        return [(u, "bnode" if u.startswith("_:") else "iri", None, None)
                for u in self.inv_idx.get(k, ())]

    def _hop(self, frontier, atom):
        nxt = set()
        for node in frontier:
            nxt.update(self.succ(node, *atom))
        return nxt

    def apply(self, frontier, st):
        """Evaluate ONE step (arbitrarily nested AST) over a node set."""
        d = st[0]
        if d in ("fwd", "inv"):
            return self._hop(frontier, st)
        if d == "seq":
            for sub in st[1]:
                frontier = self.apply(frontier, sub)
                if not frontier:
                    break
            return frontier
        if d == "alt":
            nxt = set()
            for b in st[1]:
                nxt |= self.apply(frontier, b)
            return nxt
        if d == "opt":
            return frontier | self.apply(frontier, st[1])
        clo = self.closure(frontier, st[1])
        # star: zero applications keep the start nodes
        return frontier | clo if d == "star" else clo

    def closure(self, frontier, sub):
        """All nodes reachable via >=1 application of an arbitrary
        sub-path (cycle-safe — node sets are finite)."""
        seen: set = set()
        cur = self.apply(frontier, sub)
        while cur:
            fresh = cur - seen
            if not fresh:
                break
            seen |= fresh
            cur = self.apply(fresh, sub)
        return seen

    def walk(self, start_node, steps):
        """Full resolved path from ONE start node → the distinct
        value-node set (4-tuples)."""
        frontier = {start_node}
        for st in steps:
            frontier = self.apply(frontier, st)
            if not frontier:
                break
        return frontier


def _walk_path_rows(data_triples: List[Triple], subjects: List[str],
                    steps: List[Tuple[str, str]]):
    """Evaluate a resolved property path over the data graph for each
    focus subject: returns ``{subject: [(value, kind, lang), ...]}``
    with DISTINCT value nodes (SHACL counts value nodes, not derivation
    paths — a value reachable two ways is one value).  Term identity
    and walking semantics live in :class:`_PathIndex`."""
    fwd_preds = {p for st in steps for d, p in _path_atoms(st)
                 if d == "fwd"}
    inv_preds = {p for st in steps for d, p in _path_atoms(st)
                 if d == "inv"}
    idx = _PathIndex(data_triples, fwd_preds, inv_preds)
    out: Dict[str, list] = {}
    for s in subjects:
        skind = "bnode" if s.startswith("_:") else "iri"
        frontier = idx.walk((s, skind, None, None), steps)
        # sort key tolerates None lang alongside tagged values ("x" and
        # "x"@en are DISTINCT value nodes that must co-exist)
        out[s] = sorted(((v, k, lg) for v, k, lg, _dt in frontier),
                        key=lambda t: (t[0], t[1], t[2] is not None,
                                       t[2] or ""))
    return out


_INT_LEX_RE = re.compile(r"^[+-]?\d+$")


def _lex_num(v) -> Optional[float]:
    """Lexical form → float, or None when not numeric."""
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


class _NodeChecker:
    """Recursive ``sh:node`` conformance over the driver-parsed data
    graph — unbounded nesting depth (the round-4 implementation pivoted
    the referenced shape's row-local facets only, depth 1).

    A term ``(value, kind, lang)`` CONFORMS to a node shape S when it
    satisfies every constraint S declares:

    - node-level value facets applied to the term itself: sh:datatype
      (int/float lexical probe, string = untagged literal), numeric
      bounds, min/maxLength, sh:pattern (+flags, partial match like the
      engine's Pattern), sh:in, sh:nodeKind, sh:class (direct rdf:type
      membership), sh:hasValue (full term equality), sh:languageIn;
    - node-level sh:not / sh:and / sh:or / sh:xone and node-level
      sh:node — operands are evaluated as FULL node shapes (recursion);
    - every sh:property shape of S: the full path grammar is walked
      from the term (literals have no outgoing edges), then
      sh:min/maxCount over the distinct value-node count, all value
      facets above over EVERY walked value, sh:uniqueLang, sh:hasValue
      (SOME value equals), property pairs (sh:equals / sh:disjoint /
      sh:lessThan(OrEquals) with full value-SET semantics — the SHACL
      definitions, not the pivot's first-value scope), qualified counts
      (sh:qualifiedValueShape evaluated as a full shape, recursion) and
      nested sh:node (recursion);
    - sh:closed (+ sh:ignoredProperties): the term's own predicates
      must all be declared or ignored.

    RECURSIVE shape graphs (a shape reaching itself through sh:node or
    a logical operand) are undefined by the SHACL spec — pyshacl (the
    reference's engine, src/xpshacl_engine.py delegates everything
    here) raises ShapeRecursionError.  Here a (term, shape) pair
    already under evaluation is ASSUMED conforming (the
    greatest-fixed-point reading), so cyclic shapes terminate
    deterministically instead of erroring; results are memoized.
    Driver-side by design — TTL inputs are small by construction (the
    100 TB path is Parquet, where sh:node becomes the engine's
    referential joins)."""

    def __init__(self, data_triples: List[Triple], shape_obj,
                 types: Dict[str, set]):
        self.obj = shape_obj
        self.types = types
        self.idx = _PathIndex(data_triples, None, None,
                              datatype_identity=False)
        self.preds: Dict[str, set] = {}
        for t in data_triples:
            self.preds.setdefault(t.s, set()).add(t.p)
        self.memo: Dict[Tuple, bool] = {}
        # a DEEP acyclic sh:node chain (follower graphs) recurses one
        # (term, shape) frame set per hop; CPython 3.11 frames are
        # heap-allocated, so raising the guard proportional to the
        # (driver-parsed, small-by-construction) graph is safe —
        # memoization keeps the total work linear
        self._reclimit = 10_000 + 8 * len(data_triples)

    def _ensure_depth(self):
        import sys

        if sys.getrecursionlimit() < self._reclimit:
            sys.setrecursionlimit(self._reclimit)

    # -- public ---------------------------------------------------------
    def conforms(self, term, shape: str,
                 _active: frozenset = frozenset()) -> bool:
        term = (term[0], term[1], term[2] or "")
        key = (term, shape)
        if key in self.memo:
            return self.memo[key]
        if key in _active:
            return True  # recursion guard: assume-conforming
        if not _active:
            self._ensure_depth()
        if _deactivated(self.obj, shape):
            self.memo[key] = True
            return True
        ok = self._check(term, shape, _active | {key})
        self.memo[key] = ok
        return ok

    # -- shape evaluation -------------------------------------------------
    def _check(self, term, shape: str, active: frozenset) -> bool:
        obj = self.obj
        v, kind, _lang = term
        if not all(self.node_level_verdicts(term, shape,
                                            active).values()):
            return False
        for pt in obj.get((shape, SH_NS + "property"), ()):
            if not self._property_ok(pt.o, term, active):
                return False
        cl = _first(obj, shape, SH_NS + "closed")
        if cl is not None and cl.o == "true" and kind != "literal":
            allowed = set()
            for pt in obj.get((shape, SH_NS + "property"), ()):
                if _deactivated(obj, pt.o):
                    continue
                path_t = _first(obj, pt.o, SH_NS + "path")
                if path_t is not None and path_t.kind == "iri":
                    allowed.add(path_t.o)
            ig = _first(obj, shape, SH_NS + "ignoredProperties")
            if ig is not None:
                allowed.update(t.o for t in rdf_list_triples(obj, ig.o))
            if self.preds.get(v, set()) - allowed:
                return False
        return True

    def _logical_ok(self, node: str, term, active: frozenset) -> bool:
        """sh:not/and/or/xone declared on ``node``, operands evaluated
        as full node shapes against ``term``."""
        return all(ok for _c, ok in self._logical_checks(node, term,
                                                         active))

    def _logical_checks(self, node: str, term, active: frozenset):
        """Yield ``(SHACL component name, ok)`` per logical operator
        declared on ``node`` (operands = full node shapes, recursion)."""
        obj = self.obj
        nt = _first(obj, node, SH_NS + "not")
        if nt is not None:
            yield ("NotConstraintComponent",
                   not self.conforms(term, nt.o, active))
        for pred, need, comp in (
            ("and", "all", "AndConstraintComponent"),
            ("or", "any", "OrConstraintComponent"),
            ("xone", "one", "XoneConstraintComponent"),
        ):
            lt = _first(obj, node, SH_NS + pred)
            if lt is None:
                continue
            hits = [self.conforms(term, e.o, active)
                    for e in rdf_list_triples(obj, lt.o)]
            yield comp, (all(hits) if need == "all"
                         else any(hits) if need == "any"
                         else sum(hits) == 1)

    def node_level_verdicts(self, term, shape: str,
                            _active: frozenset = frozenset()):
        """``{SHACL component: ok}`` for the NODE-LEVEL constraints of
        ``shape`` applied directly to ``term``: value facets (incl.
        nodeKind / class / languageIn), sh:hasValue, node-level sh:node
        and the logical operators.  Property shapes and sh:closed are
        NOT included — they have dedicated evaluation paths
        (:func:`validate_ttl_long`, :func:`closed_node_shapes`)."""
        term = (term[0], term[1], term[2] or "")
        obj = self.obj
        out: Dict[str, bool] = {}

        def fold(comp, ok):
            out[comp] = out.get(comp, True) and ok

        for comp, ok in self._facet_checks(shape, term):
            fold(comp, ok)
        hv = _first(obj, shape, SH_NS + "hasValue")
        if hv is not None:
            fold("HasValueConstraintComponent",
                 term == (hv.o, hv.kind, hv.lang or ""))
        for nd in obj.get((shape, SH_NS + "node"), ()):
            fold("NodeConstraintComponent",
                 self.conforms(term, nd.o, _active))
        for comp, ok in self._logical_checks(shape, term, _active):
            fold(comp, ok)
        return out

    def _property_ok(self, pshape: str, term, active: frozenset) -> bool:
        obj = self.obj
        if _deactivated(obj, pshape):
            return True
        path_t = _first(obj, pshape, SH_NS + "path")
        if path_t is None:
            return True
        steps = resolve_path(obj, path_t)
        if steps is None:
            return True  # malformed path: surfaced as data, never run
        v, kind, lang = term
        frontier = self.idx.walk((v, kind, lang or None, None), steps)
        vals = sorted({(w, k2, lg2 or "") for w, k2, lg2, _dt in frontier})
        mc = _first(obj, pshape, SH_NS + "minCount")
        if mc is not None and len(vals) < int(mc.o):
            return False
        mx = _first(obj, pshape, SH_NS + "maxCount")
        if mx is not None and len(vals) > int(mx.o):
            return False
        for val in vals:
            if not self._facets_ok(pshape, val):
                return False
            if not self._logical_ok(pshape, val, active):
                return False
        li = _first(obj, pshape, SH_NS + "languageIn")
        if li is not None:
            tags = ([li.o] if li.kind == "literal"
                    else [t.o for t in rdf_list_triples(obj, li.o)])
            if any(val[2] not in tags or val[1] != "literal"
                   for val in vals):
                return False
        ul = _first(obj, pshape, SH_NS + "uniqueLang")
        if ul is not None and ul.o == "true":
            tagged = [val[2] for val in vals if val[2]]
            if len(tagged) != len(set(tagged)):
                return False
        hv = _first(obj, pshape, SH_NS + "hasValue")
        if hv is not None and (hv.o, hv.kind, hv.lang or "") not in vals:
            return False
        for nd in obj.get((pshape, SH_NS + "node"), ()):
            for val in vals:
                if not self.conforms(val, nd.o, active):
                    return False
        for pn, op in (("equals", "eq"), ("disjoint", "dj"),
                       ("lessThan", "<"), ("lessThanOrEquals", "<=")):
            b = _first(obj, pshape, SH_NS + pn)
            if b is None or b.kind != "iri":
                continue
            other = sorted({(w, k2, lg2 or "")
                            for w, k2, lg2, _dt in self.idx.walk(
                                (v, kind, lang or None, None),
                                [("fwd", b.o)])})
            if op == "eq" and set(vals) != set(other):
                return False
            if op == "dj" and not set(vals).isdisjoint(other):
                return False
            if op in ("<", "<=") and not all(
                    self._lt(x, y, op == "<=")
                    for x in vals for y in other):
                return False
        qv = _first(obj, pshape, SH_NS + "qualifiedValueShape")
        if qv is not None:
            qmin = _first(obj, pshape, SH_NS + "qualifiedMinCount")
            qmax = _first(obj, pshape, SH_NS + "qualifiedMaxCount")
            if qmin is not None or qmax is not None:
                n = sum(self.conforms(val, qv.o, active) for val in vals)
                if qmin is not None and n < int(qmin.o):
                    return False
                if qmax is not None and n > int(qmax.o):
                    return False
        return True

    @staticmethod
    def _lt(x, y, or_equal: bool) -> bool:
        """SHACL lessThan over two terms: numeric when both parse,
        else lexical string order on two literals; any other pairing
        (IRI/bnode operands, mixed numeric/non-numeric) violates."""
        a, b = _lex_num(x[0]), _lex_num(y[0])
        if a is not None and b is not None:
            return a <= b if or_equal else a < b
        if x[1] == "literal" and y[1] == "literal" and (
                a is None) == (b is None):
            return x[0] <= y[0] if or_equal else x[0] < y[0]
        return False

    # -- term-level value facets ------------------------------------------
    def _facets_ok(self, node: str, term) -> bool:
        """Row-local value facets declared on ``node`` (the same grammar
        :func:`_value_facet_constraints` compiles for the engine),
        evaluated on ONE term, plus sh:nodeKind / sh:class / node-level
        sh:languageIn."""
        return all(ok for _c, ok in self._facet_checks(node, term))

    def _facet_checks(self, node: str, term):
        """Yield ``(SHACL component name, ok)`` per value facet declared
        on ``node`` — the decomposed form of :meth:`_facets_ok`, so
        node-level violations can report the true per-facet component."""
        obj = self.obj
        v, kind, lang = term
        dt = (_first(obj, node, SH_NS + "datatype")
              or _first(obj, node, SH_NS + "dataType"))
        if dt is not None:
            if kind != "literal":
                ok = False
            elif dt.o in _INT_TYPES:
                ok = bool(_INT_LEX_RE.match(v))
            elif dt.o in _FLOAT_TYPES:
                ok = _lex_num(v) is not None
            else:
                ok = not lang  # xsd:string etc. excludes rdf:langString
            yield "DatatypeConstraintComponent", ok
        for pred, lo_ok, hi_ok in (
            ("minInclusive", True, None), ("maxInclusive", None, True),
            ("minExclusive", False, None), ("maxExclusive", None, False),
        ):
            b = _first(obj, node, SH_NS + pred)
            if b is None:
                continue
            x, bound = _lex_num(v), _lex_num(b.o)
            if x is None or bound is None:
                ok = False  # non-comparable value violates a bound
            elif lo_ok is True:
                ok = x >= bound
            elif lo_ok is False:
                ok = x > bound
            elif hi_ok is True:
                ok = x <= bound
            else:
                ok = x < bound
            yield pred[0].upper() + pred[1:] + "ConstraintComponent", ok
        for pred, cmp_len in (("minLength", lambda n, k: n >= k),
                              ("maxLength", lambda n, k: n <= k)):
            b = _first(obj, node, SH_NS + pred)
            if b is not None:
                yield (pred[0].upper() + pred[1:] + "ConstraintComponent",
                       kind != "bnode" and cmp_len(len(v), int(b.o)))
        pat = _first(obj, node, SH_NS + "pattern")
        if pat is not None:
            fl = _first(obj, node, SH_NS + "flags")
            rx = (f"(?{fl.o}){pat.o}" if fl is not None and fl.o
                  else pat.o)
            yield ("PatternConstraintComponent",
                   kind != "bnode" and bool(re.search(rx, v)))
        in_t = _first(obj, node, SH_NS + "in")
        if in_t is not None:
            allowed = _hydrate_list_values(rdf_list_triples(obj, in_t.o))
            x = _lex_num(v)
            yield "InConstraintComponent", any(
                (isinstance(a, (int, float)) and x is not None
                 and float(a) == x)
                or (isinstance(a, str) and a == v)
                for a in allowed)
        nk = _first(obj, node, SH_NS + "nodeKind")
        if nk is not None:
            short = nk.o.rsplit("#", 1)[-1]
            if short in _NODE_KINDS:
                yield ("NodeKindConstraintComponent",
                       kind in _NODE_KINDS[short].split("|"))
        cl = _first(obj, node, SH_NS + "class")
        if cl is not None:
            yield ("ClassConstraintComponent",
                   kind != "literal" and cl.o in self.types.get(v, ()))
        li = _first(obj, node, SH_NS + "languageIn")
        if li is not None and obj.get((node, SH_NS + "path")) is None:
            # node-level languageIn (the property-shape form is counted
            # over ALL values by the caller)
            tags = ([li.o] if li.kind == "literal"
                    else [t.o for t in rdf_list_triples(obj, li.o)])
            yield ("LanguageInConstraintComponent",
                   kind == "literal" and lang in tags)


def validate_ttl_long(data_triples: List[Triple],
                      shape_triples: List[Triple]):
    """Long-form constraints over the triples table: grouped cardinality
    (sh:maxCount / sh:minCount > 1 per focus subject), sh:nodeKind,
    sh:class (referential against the class's member set),
    sh:languageIn and sh:uniqueLang — everything the first-value entity
    pivot can't see — plus sh:closed and the node-level constraints of
    targeted shapes.

    The parts are :func:`_long_form_parts`' tables, validated together
    by one :func:`~xpshacl_ray.pipelines.validate.validate_parts` call
    (one scan, one exchange).  Returns the materialized violations
    Dataset, or None when no long-form shapes apply."""
    parts = _long_form_parts(data_triples, shape_triples)
    return _validate_tables(parts) if parts else None


def _validate_tables(parts: List[Tuple[pa.Table, object, Optional[dict]]]):
    """:func:`~xpshacl_ray.pipelines.validate.validate_parts` over
    ``(table, ValidationSpec, ref_keys)`` parts: one scan and at most one
    exchange for all of them."""
    import ray.data

    from ..pipelines.validate import validate_parts
    from ..spec import compile_spec

    return validate_parts([(ray.data.from_arrow(t), compile_spec(spec), refs)
                           for t, spec, refs in parts])


def _long_form_parts(data_triples: List[Triple],
                     shape_triples: List[Triple]):
    """The ``(table, ValidationSpec, ref_keys)`` parts of
    :func:`validate_ttl_long`, empty when no long-form shapes apply.

    One projected table per (target class, predicate): rows
    ``(subject, object, kind, lang)`` for every matching triple, plus one
    null-object row per target subject with NO such triple (so grouped
    minCount counts zero-valued subjects); the grouped and row-local
    facets of that property shape check it.  Then one table per
    (sh:closed shape, undeclared predicate) and one per targeted shape
    with node-level constraints.  TTL inputs are driver-parsed (small by
    construction — the 100 TB path is Parquet); the per-shape row build
    is driver-side by design."""
    import numpy as np

    from ..spec import (
        Closed,
        Datatype,
        GroupedSparql,
        GroupPredicate,
        InSet,
        LanguageIn,
        MaxCount,
        MaxExclusive,
        MaxInclusive,
        MaxLength,
        MinCount,
        MinExclusive,
        MinInclusive,
        MinLength,
        NodeConformance,
        NodeKind,
        Pattern,
        Referential,
        UniqueLang,
    )

    obj = _sp_index(shape_triples)
    types = _types_by_subject(data_triples)
    # built once, on first use: it indexes the whole data graph
    checker = functools.cache(lambda: _NodeChecker(data_triples, obj, types))
    parts = []
    for target, pshape, pred, facets in long_form_property_shapes(
            shape_triples):
        subjects = sorted(target_subjects(data_triples, target, types))
        if not subjects:
            continue
        subj_set = set(subjects)
        if "steps" in facets:
            # complex (inverse / sequence) path: one row per DISTINCT
            # walked value node, null row for zero-valued subjects
            walked = _walk_path_rows(data_triples, subjects,
                                     facets["steps"])
            cols = {"subject": [], "object": [], "kind": [], "lang": []}
            for s in subjects:
                vals = walked.get(s, [])
                if not vals:
                    cols["subject"].append(s)
                    cols["object"].append(None)
                    cols["kind"].append(None)
                    cols["lang"].append(None)
                    continue
                for v, k, lg in vals:
                    cols["subject"].append(s)
                    cols["object"].append(v)
                    cols["kind"].append(k)
                    cols["lang"].append(lg or "")
        else:
            rows = [t for t in data_triples
                    if t.p == pred and t.s in subj_set]
            have = {t.s for t in rows}
            cols = {
                "subject": ([t.s for t in rows]
                            + [s for s in subjects if s not in have]),
                "object": ([t.o for t in rows]
                           + [None] * (len(subjects) - len(have))),
                "kind": ([t.kind for t in rows]
                         + [None] * (len(subjects) - len(have))),
                "lang": ([t.lang or "" for t in rows]
                         + [None] * (len(subjects) - len(have))),
            }
        table = pa.table({k: pa.array(v, pa.string())
                          for k, v in cols.items()})
        msg = facets.get("message")
        constraints = []
        if "qualified" in facets:
            # sh:qualifiedValueShape: mark each value row as conforming
            # ("1"; null rows are not value nodes → "0"), then count per
            # focus via the vectorized GroupPredicate sweep.  Pure
            # value-facet shapes conform when NO facet mask flags the
            # row; STRUCTURAL shapes (sh:property / sh:node / class /
            # logicals / ...) conform per the full recursive
            # _NodeChecker verdict (memoized per distinct term)
            q = facets["qualified"]
            if q.get("checker"):
                qv_shape = str(q["shape"])
                sibs = q.get("siblings") or []

                def _qconf(v, k, lg):
                    # disjoint counting: conforms to Q and to NO
                    # sibling qualified shape (spec §4.5.3)
                    return (checker().conforms((v, k, lg), qv_shape)
                            and not any(checker().conforms((v, k, lg), s)
                                        for s in sibs))

                qok = np.array(
                    ["1" if v is not None and _qconf(v, k, lg) else "0"
                     for v, k, lg in zip(cols["object"], cols["kind"],
                                         cols["lang"])], dtype=object)
            else:
                qcs = _value_facet_constraints(
                    obj, str(q["shape"]), "object",
                    pshape, None)
                bad = np.zeros(len(table), dtype=bool)
                for qc in qcs:
                    bad |= np.asarray(qc.mask(table), dtype=bool)
                valid = np.asarray(pc.is_valid(table["object"]))
                qok = np.where(valid & ~bad, "1", "0")
            table = table.append_column("qok", pa.array(qok, pa.string()))
            if q["min"] is not None:
                constraints.append(GroupedSparql(
                    path=pred, group_by=["subject"], columns=["qok"],
                    predicate=GroupPredicate(
                        agg="count", agg_col="qok", op="<",
                        value=int(q["min"]),
                        where_col="qok", where_val="1"),
                    component="QualifiedMinCountConstraintComponent",
                    name=f"qualified-min:{q['min']}",
                    shape_id=pshape,
                    message=msg or (f"Fewer than {q['min']} values "
                                    f"conform to {q['shape']}")))
            if q["max"] is not None:
                constraints.append(GroupedSparql(
                    path=pred, group_by=["subject"], columns=["qok"],
                    predicate=GroupPredicate(
                        agg="count", agg_col="qok", op=">",
                        value=int(q["max"]),
                        where_col="qok", where_val="1"),
                    component="QualifiedMaxCountConstraintComponent",
                    name=f"qualified-max:{q['max']}",
                    shape_id=pshape,
                    message=msg or (f"More than {q['max']} values "
                                    f"conform to {q['shape']}")))
        if "max_count" in facets:
            constraints.append(MaxCount(
                column="object", group_by=["subject"],
                max_count=int(facets["max_count"]), shape_id=pshape,
                message=msg, path=pred))
        if "min_count" in facets:
            constraints.append(MinCount(
                column="object", group_by=["subject"],
                min_count=int(facets["min_count"]), shape_id=pshape,
                message=msg, path=pred))
        if "node_shape" in facets:
            # sh:node: every value node must CONFORM to the referenced
            # node shape — the full RECURSIVE check (_NodeChecker:
            # nested sh:node, grouped facets, complex paths, logical
            # operators, closed, unbounded depth), then emit one
            # NodeConstraintComponent violation per (focus, value) pair
            # whose value landed in the nonconforming set
            ns = str(facets["node_shape"])
            nonconforming = sorted(
                {v for v, k, lg in zip(cols["object"], cols["kind"],
                                       cols["lang"])
                 if v is not None
                 and not checker().conforms((v, k, lg), ns)})
            constraints.append(NodeConformance(
                column="object", nonconforming=nonconforming,
                node_shape=ns, shape_id=pshape, message=msg,
                path=pred, value_column="object"))
        if "logical" in facets:
            # structural-operand sh:not/and/or/xone: per-value operand
            # verdicts from the recursive checker, combined by the
            # SHACL truth table, reported under the operator's own
            # component (one violation per (focus, failing value))
            distinct_terms = sorted(
                {(v, k, lg or "") for v, k, lg in
                 zip(cols["object"], cols["kind"], cols["lang"])
                 if v is not None})
            for op, operands in facets["logical"]:
                bad = set()
                for term in distinct_terms:
                    hits = [checker().conforms(term, o) for o in operands]
                    viol = ((op == "not" and hits[0])
                            or (op == "and" and not all(hits))
                            or (op == "or" and not any(hits))
                            or (op == "xone" and sum(hits) != 1))
                    if viol:
                        bad.add(term[0])
                constraints.append(NodeConformance(
                    column="object", nonconforming=sorted(bad),
                    node_shape=f"sh:{op}", shape_id=pshape,
                    component=f"{op.capitalize()}ConstraintComponent",
                    message=msg or f"Value fails sh:{op}",
                    path=pred, value_column="object"))
        if "has_value" in facets:
            # violation = the focus group has ZERO rows whose object
            # TERM equals the required value (lexical + kind + lang) —
            # a computed match column feeds the declarative
            # GroupPredicate, so it runs on the vectorized bucket sweep
            hv_o, hv_kind, hv_lang = facets["has_value"]
            m = (np.asarray(pc.fill_null(
                     pc.equal(table["object"], hv_o), False))
                 & np.asarray(pc.fill_null(
                     pc.equal(table["kind"], hv_kind), False))
                 & np.asarray(pc.fill_null(
                     pc.equal(table["lang"], hv_lang), False)))
            table = table.append_column(
                "hvok", pa.array(np.where(m, "1", "0"), pa.string()))
            constraints.append(GroupedSparql(
                path=pred, group_by=["subject"], columns=["hvok"],
                predicate=GroupPredicate(
                    agg="count", agg_col="hvok", op="<=", value=0,
                    where_col="hvok", where_val="1"),
                component="HasValueConstraintComponent",
                name=f"has-value:{hv_o}",
                shape_id=pshape,
                message=msg or f"Missing required value {hv_o} on {pred}"))
        if "unique_lang" in facets:
            # sh:uniqueLang: no two values share a NON-EMPTY language
            # tag (SHACL 4.4.3) — the counted column is null on the
            # untagged values, so they never count; one violation per
            # (subject, shared tag)
            table = table.append_column("tagged", pc.if_else(
                pc.not_equal(table["lang"], ""), table["object"],
                pa.scalar(None, pa.string())))
            constraints.append(UniqueLang(
                column="tagged", group_by=["subject"], lang_column="lang",
                shape_id=pshape, message=msg, path=pred))
        if "node_kind" in facets:
            kind = str(facets["node_kind"])
            constraints.append(NodeKind(
                column="kind", shape_id=pshape, message=msg,
                path=pred, value_column="object",
                pattern=f"^(?:{_NODE_KINDS[kind]})$", kind=kind))
        if "language_in" in facets:
            # sh:languageIn: every value must be a literal carrying a tag
            # in the list — untagged literals and non-literals violate
            # (lang column holds "" there, which is not in the set)
            constraints.append(LanguageIn(
                column="lang", shape_id=pshape, message=msg,
                path=pred, value_column="object",
                allowed=list(facets["language_in"])))
        ref_keys = None
        if "class_iri" in facets:
            members = sorted(
                s for s, ts in types.items() if facets["class_iri"] in ts)
            constraints.append(Referential(
                column="object", shape_id=pshape, message=msg, path=pred,
                ref_table="rdf:type", ref_column=str(facets["class_iri"])))
            ref_keys = {"object": pa.array(members, pa.string())}
        # row-local facets of COMPLEX-path shapes ride the same value
        # rows (the entity pivot can't see path-walked values); null
        # object rows (zero-valued subjects) are excused by every
        # row-local family, matching SHACL's per-value-node semantics
        if "pattern" in facets:
            constraints.append(Pattern(
                column="object", shape_id=pshape, message=msg,
                path=pred, pattern=str(facets["pattern"])))
        if "min_length" in facets:
            constraints.append(MinLength(
                column="object", shape_id=pshape, message=msg,
                path=pred, min_length=int(facets["min_length"])))
        if "max_length" in facets:
            constraints.append(MaxLength(
                column="object", shape_id=pshape, message=msg,
                path=pred, max_length=int(facets["max_length"])))
        if "datatype" in facets:
            arrow = ("int64" if facets["datatype"] in _INT_TYPES
                     else "float64" if facets["datatype"] in _FLOAT_TYPES
                     else "string")
            constraints.append(Datatype(
                column="object", shape_id=pshape, message=msg,
                path=pred, datatype=arrow))
        if "in_set" in facets:
            # value rows are lexical strings: compare lexically (the
            # hydrated list is stringified back — numeric in-sets with
            # non-canonical lexical forms belong to the pivot path)
            constraints.append(InSet(
                column="object", shape_id=pshape, message=msg,
                path=pred,
                allowed=[str(x) for x in facets["in_set"]]))
        for bk, bound in facets.get("bounds", ()):
            cls = {"minInclusive": MinInclusive,
                   "maxInclusive": MaxInclusive,
                   "minExclusive": MinExclusive,
                   "maxExclusive": MaxExclusive}[bk]
            constraints.append(cls(
                column="object", shape_id=pshape, message=msg,
                path=pred, bound=bound))
        if not constraints:
            continue
        if "severity" in facets:
            for c in constraints:
                c.severity = str(facets["severity"])
        # id_columns carries the focus subject, as every part of
        # validate_ttl does: the parts share one scan
        parts.append((table, _subject_spec(constraints), ref_keys))
    # sh:closed: undeclared predicates on focus nodes, one violation
    # per offending (predicate, value) with the true resultPath
    for target, shape, allowed, cmsg, csev in closed_node_shapes(
            shape_triples):
        focus = set(target_subjects(data_triples, target, types))
        if not focus:
            continue
        allowed_set = set(allowed)
        by_p: Dict[str, list] = {}
        for t in data_triples:
            if t.s in focus and t.p not in allowed_set:
                by_p.setdefault(t.p, []).append(t)
        for p, ts in sorted(by_p.items()):
            table = pa.table({
                "subject": pa.array([t.s for t in ts], pa.string()),
                "predicate": pa.array([t.p for t in ts], pa.string()),
                "object": pa.array([t.o for t in ts], pa.string()),
            })
            parts.append((table, _subject_spec([Closed(
                column="predicate", allowed=allowed, path=p,
                value_column="object", shape_id=shape,
                message=cmsg, severity=csev)]), None))
    # node-level constraints on TARGETED shapes: value facets /
    # sh:hasValue / sh:node / logical operators applied to the FOCUS
    # node itself (pyshacl evaluates these against every focus node;
    # property shapes and sh:closed have their dedicated paths above).
    # Verdicts come from the recursive checker, reported per true
    # SHACL component, value = the focus node
    for shape, target in _shape_target_keys(shape_triples, obj):
        if not any((shape, p) in obj for p in _NODE_LEVEL_PREDS):
            continue
        focus = sorted(target_subjects(data_triples, target, types))
        if not focus:
            continue
        msg_t = _first(obj, shape, SH_NS + "message")
        nmsg = msg_t.o if msg_t is not None else None
        sev = _severity(obj, shape, shape)
        bad_by_comp: Dict[str, List[str]] = {}
        for s in focus:
            skind = "bnode" if s.startswith("_:") else "iri"
            for comp, ok in checker().node_level_verdicts(
                    (s, skind, ""), shape).items():
                if not ok:
                    bad_by_comp.setdefault(comp, []).append(s)
        if not bad_by_comp:
            continue
        table = pa.table({"subject": pa.array(focus, pa.string()),
                          "object": pa.array(focus, pa.string())})
        parts.append((table, _subject_spec([NodeConformance(
            column="object", nonconforming=sorted(bad),
            node_shape=shape, shape_id=shape, component=comp,
            message=nmsg, value_column="object", severity=sev)
            for comp, bad in sorted(bad_by_comp.items())]), None))
    return parts


def sparql_constraints(triples: List[Triple]) -> List[Dict[str, str]]:
    """The reference's ``sh:sparql`` blocks surfaced as data: one dict per
    block with ``shape``, ``message`` and the raw ``select`` string
    (``shark_shapes.ttl:48-149``).  SPARQL itself is not executable on the
    tabular engine — map each to a :class:`~xpshacl_ray.spec.SqlCheck`
    SQL predicate over the pivoted entity/triples tables (the C19
    constraint-as-data surface)."""
    obj = _sp_index(triples)
    out = []
    for t in triples:
        if t.p != SH_NS + "sparql":
            continue
        msg = _first(obj, t.o, SH_NS + "message")
        sel = _first(obj, t.o, SH_NS + "select")
        out.append({
            "shape": t.s,
            "message": msg.o if msg else "",
            "select": sel.o if sel else "",
        })
    return out


# ---------------------------------------------------------------------------
# SPARQL → SQL translation (the FILTER-only subset)
# ---------------------------------------------------------------------------

#: SPARQL builtin → DuckDB function (whitelist: anything else rejects)
_SPARQL_FNS = {
    "STRLEN": "length", "UCASE": "upper", "LCASE": "lower",
    "ABS": "abs", "CEIL": "ceil", "FLOOR": "floor", "ROUND": "round",
    "CONTAINS": "contains", "STRSTARTS": "starts_with",
    "STRENDS": "ends_with", "REGEX": "regexp_matches",
}

_SQL_KEYWORDS = {"AND", "OR", "NOT", "TRUE", "FALSE", "IS", "NULL", "IN"}

_FILTER_RE = re.compile(
    r"^\s*SELECT\s+\$this\s+WHERE\s*\{\s*FILTER\s*\((?P<expr>.*)\)\s*\.?\s*\}\s*$",
    re.IGNORECASE | re.DOTALL,
)


def sparql_filter_to_sql(select: str, column: str):
    """Translate a FILTER-only SHACL-SPARQL constraint into a DuckDB
    boolean expression over ``column``, or None when the query is outside
    the subset (graph patterns, unknown builtins, other variables).

    The reference generates exactly this shape
    (``data/synthetic_data_generator.py:144-177``)::

        SELECT $this WHERE { FILTER ( ($this % 2) != 0 ) }

    SPARQL SELECTs the VIOLATING bindings, so the filter body IS the
    violation predicate — it maps 1:1 onto :class:`SqlCheck.where`
    (``$this`` = the path value, the reference's own reading of it).
    Translation: ``$this`` → the quoted column, SPARQL builtins →
    DuckDB equivalents (STRLEN→length, REGEX→regexp_matches, …),
    ``&&``/``||``/``!`` → ``AND``/``OR``/``NOT``, double-quoted string
    literals → SQL single-quoted.  Conservative: any leftover variable,
    non-whitelisted function or brace makes it return None (surfaced via
    :func:`sparql_constraints` for manual mapping instead — never a
    silently wrong translation)."""
    m = _FILTER_RE.match(select)
    if m is None:
        return None
    expr = m.group("expr")
    # 1) pull out string literals so rewrites can't touch their contents
    lits: List[str] = []

    def grab(lm):
        lits.append(lm.group(1))
        return f"\x00{len(lits) - 1}\x00"

    expr = re.sub(r'"((?:[^"\\]|\\.)*)"', grab, expr)
    if "{" in expr or "}" in expr or '"' in expr:
        return None  # nested graph pattern / stray quote
    # 2) operators
    expr = expr.replace("&&", " AND ").replace("||", " OR ")
    expr = re.sub(r"!(?!=)", " NOT ", expr)
    # 3) functions + variables
    ident_re = re.compile(r"\$this\b|\?[A-Za-z_]\w*|\$[A-Za-z_]\w*"
                          r"|[A-Za-z_]\w*")
    parts = []
    pos = 0
    for im in ident_re.finditer(expr):
        parts.append(expr[pos:im.start()])
        tok = im.group(0)
        rest = expr[im.end():]
        if tok == "$this":
            parts.append('"' + column.replace('"', '""') + '"')
        elif tok.startswith("?") or tok.startswith("$"):
            return None  # other variables: needs a real SPARQL engine
        elif tok.upper() in _SPARQL_FNS and rest.lstrip().startswith("("):
            parts.append(_SPARQL_FNS[tok.upper()])
        elif tok.upper() in _SQL_KEYWORDS:
            parts.append(tok.upper())
        else:
            return None  # unknown identifier/function
        pos = im.end()
    parts.append(expr[pos:])
    expr = "".join(parts)
    # 4) restore string literals, SQL-quoted
    expr = re.sub(
        r"\x00(\d+)\x00",
        lambda lm: "'" + _unescape(lits[int(lm.group(1))]).replace("'", "''")
        + "'",
        expr,
    )
    return expr.strip()


def sparql_sqlchecks(shape_triples: List[Triple]):
    """Auto-map translatable ``sh:sparql`` blocks to :class:`SqlCheck`
    constraints: ``{target_class: [SqlCheck, ...]}`` plus the list of
    untranslatable blocks (same dicts :func:`sparql_constraints` yields —
    graph-pattern queries stay data for manual mapping).

    A block is translatable when its holder property shape has a single
    ``sh:path`` and its SELECT is the FILTER-only form
    (:func:`sparql_filter_to_sql`), or when the SELECT is the
    BIND/REPLACE subject-naming form (``shark_shapes.ttl:200-214,
    231-245``) — a row-local regex on the subject IRI that becomes a
    target-scoped :class:`~xpshacl_ray.spec.RegexMatch` over the entity
    table's ``subject`` column (VERDICT r4 item 2; needs no
    ``sh:path``)."""
    from ..spec import RegexMatch, SqlCheck

    def covered(target: str, guards) -> bool:
        """True when the target key's scope statically satisfies every
        type guard — i.e. every scope part is a plain class IRI that
        appears in each (non-empty) guard's class list.  Only then may
        a guard-bearing block run on the entity pivot (which has no
        rdf:type column); otherwise the grouped translator handles it
        with dynamic guard intersection."""
        if not guards:
            return True
        parts = (target[len(TARGET_UNION):].split(_UNION_SEP)
                 if target.startswith(TARGET_UNION) else [target])
        if any(p.startswith("target:") for p in parts):
            return False
        return all((not g) or all(p in g for p in parts) for g in guards)

    obj = _sp_index(shape_triples)
    checks: Dict[str, List] = {}
    skipped: List[Dict[str, str]] = []
    seen = set()
    for shape, target in _shape_target_keys(shape_triples, obj):
        # any object of the node shape that carries sh:sparql is a holder
        # (the reference attaches them via the nonstandard
        # sh:PropertyConstraintComponent predicate) — and so is the node
        # shape ITSELF (the shark shapes attach sh:sparql directly to the
        # shape, shark_shapes.ttl:48, 200); a holder may carry SEVERAL
        # sh:sparql blocks — every one translates or is surfaced as
        # skipped, never silently dropped
        holders = [shape] + [t.o for t in shape_triples
                             if t.s == shape and t.kind != "literal"]
        for holder in holders:
            if _deactivated(obj, holder):
                continue
            path_t = _first(obj, holder, SH_NS + "path")
            for sq in obj.get((holder, SH_NS + "sparql"), []):
                if (target, holder, sq.o) in seen:
                    continue  # same holder reachable via several predicates
                seen.add((target, holder, sq.o))
                msg = _first(obj, sq.o, SH_NS + "message")
                sel = _first(obj, sq.o, SH_NS + "select")
                entry = {"shape": holder, "target": target,
                         "message": msg.o if msg else "",
                         "select": sel.o if sel else ""}
                sql = (sparql_filter_to_sql(sel.o, path_t.o)
                       if sel is not None and path_t is not None else None)
                if sql is not None:
                    checks.setdefault(target, []).append(SqlCheck(
                        column=path_t.o, shape_id=holder,
                        message=msg.o if msg else None,
                        where=sql, name=sq.o, columns=[path_t.o]))
                    continue
                parsed = (_parse_self_join_select(sel.o, target)
                          if sel is not None else None)
                if parsed is not None:
                    entry["guards"] = parsed.get("guards", [])
                if (parsed is not None
                        and parsed["kind"] == "subject_regex"
                        and covered(target, parsed["guards"])):
                    # pivot fast path: guards statically satisfied by
                    # the target scope; otherwise fall through to the
                    # grouped translator's focus-table plan
                    checks.setdefault(target, []).append(RegexMatch(
                        column="subject", patterns=parsed["patterns"],
                        shape_id=holder, name=sq.o,
                        message=msg.o if msg else None))
                    continue
                skipped.append(entry)
    return checks, skipped


def _plain_pred(tok: str, prefixes: Dict[str, str]) -> Optional[str]:
    """Expand a predicate token, rejecting SPARQL property-PATH syntax
    (``elt+ / elt* / elt? / ^elt / a|b / a/b`` in prefixed form) —
    transitive/compound semantics the translation subset cannot express;
    the block must surface as data instead of silently matching a
    literal ``...Of+`` IRI (the shark cycles shape,
    ``shark_shapes.ttl:128-137``)."""
    if (not tok or tok[-1] in "+*?" or tok.startswith(("^", "!"))
            or "|" in tok or ("/" in tok and not tok.startswith("<"))):
        return None
    return _expand_prefixed(tok, prefixes)


def _expand_prefixed(tok: str, prefixes: Dict[str, str]) -> Optional[str]:
    tok = tok.strip()
    if tok.startswith("<") and tok.endswith(">"):
        return tok[1:-1]
    if tok == "a":
        return RDF_TYPE
    if ":" in tok:
        pfx, local = tok.split(":", 1)
        if pfx in prefixes:
            return prefixes[pfx] + local
    return None


def _parse_self_join_select(select: str, target: str):
    """Parse ONE ``sh:select`` text against the two-triple-pattern
    self-join subset (VERDICT r3 item 6).  Returns a dict describing
    the recognized pattern, or None when ANY statement falls outside
    the subset (NOT EXISTS / BIND / property paths / constants — those
    blocks stay surfaced as data, never silently mistranslated).

    Recognized statements (line-structured, as the reference's shape
    generator emits):

    - ``$this <p> ?v``          — triple pattern (two with the same
      ``p`` + ``FILTER(?v1 != ?v2)`` ≡ "at most one value of p")
    - ``$this <p> $this``       — self-reference (e.g. owl:inverseOf)
    - ``$this rdf:type <C>``    — type guard; recorded in the returned
      dict's ``guards`` (conjunctive list of disjunctive class lists;
      ``[]`` = "typed at all") — the CONSUMER intersects the focus
      scope with the guard classes' members, so translation is valid
      under any target incl. multi-target union scopes
    - ``$this a ?var``          — variable type guard (guard ``[]``),
      optionally constrained by ``FILTER(?var IN (...))`` (guard =
      the IN list)

    ``target`` is retained for signature stability but no longer
    gates translation.
    - ``FILTER(?v1 != ?v2)``    — the self-join inequality
    - ``BIND(REPLACE(STR($this), 'rx', '' [,'flags']) as ?v)`` +
      ``FILTER(STR($this) != STR(?v) [|| ...])`` — the shark
      subject-naming form (``shark_shapes.ttl:200-214, 231-245``):
      $this violates iff ANY bound regex changes the IRI, i.e. finds a
      non-empty match → ``{"kind": "subject_regex", "patterns": [...]}``
      with SPARQL flags (i/s/m only) folded inline
    - ``FILTER NOT EXISTS {?v1 <q> ?v2}`` in BOTH directions over the
      self-join pair, plus optional ``FILTER(?vi != <const>)`` /
      ``FILTER($this != ?vi)`` exclusions — the shark superclass shape
      (``shark_shapes.ttl:48-67``, VERDICT r4 item 3) →
      ``{"kind": "sibling_antijoin", "path": p, "edge": q,
      "exclude": [...], "exclude_self": bool}``.  Exclusion filters
      must apply to BOTH pair variables (or neither): the pair set is
      symmetric, so a one-sided exclusion has no sound translation.
    - ``FILTER NOT EXISTS {$this <p> ?v}`` / ``{?v <p> $this}`` (any
      number, conjunctive) — the shark unconnected-classes shape
      (``shark_shapes.ttl:118-136``): $this violates iff it has NO
      outgoing edge of any listed predicate AND appears as the OBJECT
      of none of the listed incoming predicates →
      ``{"kind": "isolation", "outgoing": [...], "incoming": [...]}``.
      The single-``OPTIONAL`` + ``HAVING(COUNT(?v) = 0)`` form of the
      must-have-instances shape (``shark_shapes.ttl:86-99``) is the
      same check spelled as an aggregate and parses to the same kind.
    - ``$this <p> ?o`` + two BINDs applying the SAME
      ``REPLACE(STR(·), rx, repl)`` to ``$this`` and ``?o`` +
      ``FILTER(?a = ?b)`` — the shark synonyms shape
      (``shark_shapes.ttl:101-116``): $this violates iff some object
      of ``p`` shares its REPLACE image (e.g. namespace) →
      ``{"kind": "same_replace_eq", "path": p, "pattern": rx,
      "replacement": repl}`` (group-local; evaluated per focus group).
      SELECT without DISTINCT is treated as DISTINCT $this — the engine
      emits ONE violation per focus node, matching SHACL validators'
      identical-result dedup.
    - ``$this <p>+ $this`` — the transitive-closure hierarchy-cycle
      form (``shark_shapes.ttl:128-137``) →
      ``{"kind": "transitive_cycle", "path": p}``, evaluated by the
      iterative :func:`~xpshacl_ray.functions.graph.cycle_members`
      plan (distributed trim + exact SCC on the cyclic core).  Other
      property-path operators stay rejected.
    """
    prefixes = dict(re.findall(r"PREFIX\s+([\w-]+):\s*<([^>]+)>", select))
    m = re.search(r"\{(.*)\}", select, re.S)
    if not m:
        return None
    stmts = [ln.strip().rstrip(".").strip()
             for ln in m.group(1).splitlines()]
    stmts = [s for s in stmts if s]
    triples: List[Tuple[str, str]] = []
    self_refs: List[str] = []
    neq: List[Tuple[str, str]] = []
    type_vars: List[str] = []
    guards: List[List[str]] = []  # conjunctive; [] = "typed at all"
    in_filters: List[Tuple[str, List[Optional[str]]]] = []
    binds: Dict[str, Tuple[str, str, str, str]] = {}
    str_neq_vars: List[str] = []
    not_exists: List[Tuple[str, str, str]] = []
    const_neq: Dict[str, set] = {}
    this_neq: set = set()
    iso_out: List[str] = []
    iso_in: List[str] = []
    eq_filters: List[Tuple[str, str]] = []
    optionals: List[Tuple[str, str, str]] = []  # (dir, pred, var)
    trans_self: List[str] = []
    having = re.search(r"\bHAVING\b", select, re.IGNORECASE)
    for s in stmts:
        m3 = re.fullmatch(r"\$this\s+(\S+)\s+(\S+)", s)
        if m3:
            ptok = m3.group(1)
            if (m3.group(2) == "$this" and ptok.endswith("+")
                    and _plain_pred(ptok[:-1], prefixes) is not None):
                # $this <p>+ $this — the transitive-closure cycle form
                # (shark_shapes.ttl:128-137)
                trans_self.append(_plain_pred(ptok[:-1], prefixes))
                continue
            p = _plain_pred(ptok, prefixes)
            if p is None:
                return None
            o = m3.group(2)
            if o == "$this":
                if p == RDF_TYPE:
                    return None
                self_refs.append(p)
            elif o.startswith("?"):
                if p == RDF_TYPE:
                    type_vars.append(o)
                else:
                    triples.append((p, o))
            else:
                oi = _expand_prefixed(o, prefixes)
                if p != RDF_TYPE or oi is None:
                    return None  # constant-object pattern: not in subset
                # `$this a <C>`: a TYPE GUARD — the query restricts its
                # own bindings to instances of C; the consumer must
                # intersect the focus scope with C's members (under a
                # multi-target union scope the guard is NOT implied by
                # target scoping)
                guards.append([oi])
            continue
        mf = re.fullmatch(r"FILTER\s*\(\s*\?(\w+)\s*!=\s*\?(\w+)\s*\)", s)
        if mf:
            neq.append(("?" + mf.group(1), "?" + mf.group(2)))
            continue
        mi = re.fullmatch(r"FILTER\s*\(\s*(\?\w+)\s+IN\s*\(([^)]*)\)\s*\)",
                          s, re.IGNORECASE)
        if mi:
            items = [_expand_prefixed(x, prefixes)
                     for x in mi.group(2).split(",")]
            in_filters.append((mi.group(1), items))
            continue
        mne = re.fullmatch(
            r"FILTER\s+NOT\s+EXISTS\s*\{\s*\?(\w+)\s+(\S+)\s+\?(\w+)\s*\}",
            s, re.IGNORECASE)
        if mne:
            q = _plain_pred(mne.group(2), prefixes)
            if q is None:
                return None
            not_exists.append(("?" + mne.group(1), q, "?" + mne.group(3)))
            continue
        mio = re.fullmatch(
            r"FILTER\s+NOT\s+EXISTS\s*\{\s*\$this\s+(\S+)\s+\?\w+\s*\}",
            s, re.IGNORECASE)
        if mio:
            q = _plain_pred(mio.group(1), prefixes)
            if q is None:
                return None
            iso_out.append(q)
            continue
        mii = re.fullmatch(
            r"FILTER\s+NOT\s+EXISTS\s*\{\s*\?\w+\s+(\S+)\s+\$this\s*\}",
            s, re.IGNORECASE)
        if mii:
            q = _plain_pred(mii.group(1), prefixes)
            if q is None:
                return None
            iso_in.append(q)
            continue
        mop = re.fullmatch(
            r"OPTIONAL\s*\{\s*(\$this|\?\w+)\s+(\S+)\s+(\$this|\?\w+)"
            r"\s*\}", s, re.IGNORECASE)
        if mop:
            subj, ptok, obj = mop.groups()
            q = _plain_pred(ptok, prefixes)
            if q is None:
                return None
            if subj == "$this" and obj.startswith("?"):
                optionals.append(("out", q, obj))
            elif obj == "$this" and subj.startswith("?"):
                optionals.append(("in", q, subj))
            else:
                return None
            continue
        meq = re.fullmatch(r"FILTER\s*\(\s*\?(\w+)\s*=\s*\?(\w+)\s*\)", s)
        if meq:
            eq_filters.append(("?" + meq.group(1), "?" + meq.group(2)))
            continue
        mc = re.fullmatch(r"FILTER\s*\(\s*\?(\w+)\s*!=\s*([^?$\s)][^)\s]*)"
                          r"\s*\)", s)
        if mc:
            const = _expand_prefixed(mc.group(2), prefixes)
            if const is None:
                return None
            const_neq.setdefault("?" + mc.group(1), set()).add(const)
            continue
        mt = (re.fullmatch(r"FILTER\s*\(\s*\$this\s*!=\s*\?(\w+)\s*\)", s)
              or re.fullmatch(r"FILTER\s*\(\s*\?(\w+)\s*!=\s*\$this\s*\)",
                              s))
        if mt:
            this_neq.add("?" + mt.group(1))
            continue
        mb = re.fullmatch(
            r"BIND\s*\(\s*REPLACE\s*\(\s*STR\s*\(\s*(\$this|\?\w+)\s*\)"
            r"\s*,\s*'((?:[^'\\]|\\.)*)'\s*,\s*'((?:[^'\\]|\\.)*)'\s*"
            r"(?:,\s*'([a-zA-Z]*)'\s*)?\)\s+as\s+\?(\w+)\s*\)",
            s, re.IGNORECASE)
        if mb:
            # only the quote escape is undone — the shark regexes carry
            # no other SPARQL string escapes, and a lossy unescape would
            # silently change regex semantics (surface as data instead)
            binds["?" + mb.group(5)] = (
                mb.group(1), mb.group(2).replace("\\'", "'"),
                mb.group(3).replace("\\'", "'"), mb.group(4) or "")
            continue
        ms = re.fullmatch(r"FILTER\s*\((.*)\)", s, re.S)
        if ms:
            clauses = [c.strip() for c in ms.group(1).split("||")]
            ok_vars = []
            for c in clauses:
                mc = (re.fullmatch(
                    r"STR\s*\(\s*\$this\s*\)\s*!=\s*STR\s*\(\s*\?(\w+)\s*\)",
                    c)
                    or re.fullmatch(
                    r"STR\s*\(\s*\?(\w+)\s*\)\s*!=\s*STR\s*\(\s*\$this\s*\)",
                    c))
                if mc is None:
                    ok_vars = None
                    break
                ok_vars.append("?" + mc.group(1))
            if ok_vars:
                str_neq_vars.extend(ok_vars)
                continue
        return None
    # variable type guards: `$this a ?v` + FILTER(?v IN (...)) is a
    # disjunctive type guard; a bare `$this a ?v` merely requires SOME
    # rdf:type triple.  Both become guard entries the consumer
    # intersects the focus scope with (target no longer needs to equal
    # the guard class — multi-target shapes evaluate under one union
    # scope, VERDICT r5 target-union refactor)
    for var, items in in_filters:
        if var not in type_vars or None in items:
            return None
        guards.append([x for x in items if x is not None])
    constrained = {var for var, _ in in_filters}
    for var in type_vars:
        if var not in constrained:
            guards.append([])  # bare `$this a ?v`: typed at all

    def done(d: dict) -> dict:
        d["guards"] = guards
        return d

    if having and not optionals:
        return None  # aggregate forms beyond OPTIONAL + COUNT(?v)=0
    if trans_self:
        # $this <p>+ $this: transitive-closure cycle membership — the
        # one form needing an iterative engine plan (cycle_members)
        if (len(trans_self) != 1 or triples or self_refs or neq or binds
                or str_neq_vars or not_exists or const_neq or this_neq
                or iso_out or iso_in or eq_filters or optionals):
            return None
        return done({"kind": "transitive_cycle", "path": trans_self[0]})
    if optionals:
        # must-have-instances form: exactly ONE optional triple whose
        # free variable is counted to zero by the HAVING clause
        if (len(optionals) != 1 or binds or str_neq_vars or eq_filters
                or triples or self_refs or neq or not_exists
                or const_neq or this_neq or iso_out or iso_in):
            return None
        d, q, var = optionals[0]
        mh = re.search(
            r"HAVING\s*\(\s*COUNT\s*\(\s*\?(\w+)\s*\)\s*=\s*0\s*\)",
            select, re.IGNORECASE)
        if mh is None or "?" + mh.group(1) != var:
            return None
        return done({"kind": "isolation",
                "outgoing": [q] if d == "out" else [],
                "incoming": [q] if d == "in" else []})
    if iso_out or iso_in:
        if (binds or str_neq_vars or eq_filters or triples or self_refs
                or neq or not_exists or const_neq or this_neq):
            return None
        return done({"kind": "isolation", "outgoing": sorted(set(iso_out)),
                "incoming": sorted(set(iso_in))})
    if eq_filters:
        # synonyms form: one triple, one REPLACE image shared by $this
        # and the triple's object variable, equality filter between them
        if (len(eq_filters) != 1 or len(binds) != 2 or str_neq_vars
                or self_refs or neq or not_exists or const_neq
                or this_neq or len(triples) != 1):
            return None
        a, b = eq_filters[0]
        if a == b or a not in binds or b not in binds:
            return None
        s1, rx1, rp1, fl1 = binds[a]
        s2, rx2, rp2, fl2 = binds[b]
        if rx1 != rx2 or rp1 != rp2 or fl1 != fl2:
            return None
        if set(fl1) - set("ism"):
            return None
        p, other = triples[0]
        if {s1, s2} != {"$this", other}:
            return None
        return done({"kind": "same_replace_eq", "path": p,
                "pattern": (f"(?{fl1})" if fl1 else "") + rx1,
                "replacement": rp1})
    if binds or str_neq_vars:
        if (triples or self_refs or neq or not str_neq_vars
                or not_exists or const_neq or this_neq):
            return None
        pats: List[str] = []
        seen_v = set()
        for v in str_neq_vars:
            if v in seen_v:
                continue
            seen_v.add(v)
            if v not in binds:
                return None
            src, rx, repl, flags = binds[v]
            if src != "$this" or repl != "":
                return None  # only the subject-naming REPLACE('',…) form
            if set(flags) - set("ism"):
                return None  # q/x flags have no inline RE2/Python fold
            pats.append((f"(?{flags})" if flags else "") + rx)
        return done({"kind": "subject_regex", "patterns": pats})
    if len(triples) == 2 and not self_refs:
        (p1, v1), (p2, v2) = triples
        if p1 != p2 or v1 == v2:
            return None
        if len(neq) != 1 or set(neq[0]) != {v1, v2}:
            return None
        if not_exists:
            if len(not_exists) != 2:
                return None
            qs = {q for _, q, _ in not_exists}
            dirs = {(a, b) for a, _, b in not_exists}
            if len(qs) != 1 or dirs != {(v1, v2), (v2, v1)}:
                return None
            # exclusions must be symmetric over the pair (or absent):
            # the pair set is unordered, so a one-sided FILTER has no
            # sound translation — surface as data instead
            if const_neq and (set(const_neq) != {v1, v2}
                              or const_neq[v1] != const_neq[v2]):
                return None
            if this_neq and this_neq != {v1, v2}:
                return None
            return done({"kind": "sibling_antijoin", "path": p1,
                    "edge": qs.pop(),
                    "exclude": sorted(const_neq.get(v1, set())),
                    "exclude_self": bool(this_neq)})
        if const_neq or this_neq:
            return None
        return done({"kind": "self_join", "path": p1})
    if (len(self_refs) == 1 and not triples and not neq
            and not not_exists and not const_neq and not this_neq):
        return done({"kind": "self_ref", "path": self_refs[0]})
    return None


def _self_ref_fn(p_iri: str):
    """Per-group predicate for ``$this <p> $this``: any triple of the
    focus subject with predicate ``p`` pointing back at itself."""

    def fn(g: pa.Table) -> bool:
        subj = g["subject"][0].as_py()
        m = pc.and_(pc.equal(g["predicate"], p_iri),
                    pc.equal(g["object"], subj))
        return bool(pc.any(m).as_py() or False)

    return fn


def _same_replace_eq_fn(p_iri: str, pattern: str, replacement: str):
    """Per-group predicate for the shark synonyms form
    (``shark_shapes.ttl:101-116``): the focus violates iff some object
    of ``p`` shares its ``REPLACE(STR(·), pattern, replacement)`` image
    with the subject IRI (e.g. both collapse to the same namespace).
    SPARQL ``$N`` backrefs are mapped to Python ``\\N``.  Group-local —
    objects live in the focus group; no global state."""
    rx = re.compile(pattern)
    repl = re.sub(r"\$(\d)", r"\\\1", replacement)

    def fn(g: pa.Table) -> bool:
        subj = g["subject"][0].as_py()
        key = rx.sub(repl, subj)
        m = pc.equal(g["predicate"], p_iri)
        objs = pc.drop_null(pc.unique(
            pc.filter(g["object"], pc.fill_null(m, False))))
        return any(rx.sub(repl, o) == key for o in objs.to_pylist())

    return fn


def sparql_grouped_constraints(shape_triples: List[Triple]):
    """Auto-translate the two-triple-pattern self-join ``sh:sparql``
    subset into grouped constraints over the triples table (VERDICT r3
    item 6) — ``sparql_impls`` hand-binding becomes the exception:

    - ``$this p ?v1 . $this p ?v2 . FILTER(?v1 != ?v2)`` →
      :class:`~xpshacl_ray.spec.GroupedSparql` with the DECLARATIVE
      ``GroupPredicate(distinct(object | predicate==p) >= 2)`` — runs
      on the fully vectorized bucket sweep;
    - ``$this p $this`` (self-inverse) → a per-group fn constraint.

    - the two-triple self-join with pairwise ``FILTER NOT EXISTS`` over
      an edge predicate (the shark superclass shape,
      ``shark_shapes.ttl:48-67``, VERDICT r4 item 3) →
      :class:`~xpshacl_ray.spec.SiblingAntiJoin` — evaluated by the
      pair anti-join plan against the data graph's full edge relation.

    - conjunctive single-triple NOT EXISTS / the OPTIONAL+HAVING(=0)
      aggregate spelling (unconnected classes / must-have-instances,
      ``shark_shapes.ttl:86-99, 118-136``) →
      :class:`~xpshacl_ray.spec.NodeIsolation` — an anti-join of its
      focus nodes against the full graph's witness nodes;
    - the shared-REPLACE-image equality form (synonyms,
      ``shark_shapes.ttl:101-116``) → a group-local fn constraint.

    Returns ``(impls, still_skipped)`` where ``impls`` is a list of
    ``(entry, constraint)`` pairs (``entry`` is the same dict
    :func:`sparql_sqlchecks` yields, carrying the target class for
    scoping) and ``still_skipped`` the untranslatable remainder."""
    return _translate_skipped(sparql_sqlchecks(shape_triples)[1])


def _translate_skipped(skipped: List[Dict]):
    """:func:`sparql_grouped_constraints` over the blocks that
    :func:`sparql_sqlchecks` left untranslated."""
    from ..spec import (
        GroupedSparql,
        GroupPredicate,
        NodeIsolation,
        RegexMatch,
        SiblingAntiJoin,
        TransitiveCycle,
    )

    impls = []
    still = []
    for entry in skipped:
        parsed = _parse_self_join_select(entry.get("select", ""),
                                         entry.get("target", ""))
        if parsed is None:
            still.append(entry)
            continue
        entry["guards"] = parsed.get("guards", [])
        if parsed["kind"] == "subject_regex":
            # reaches here (instead of sparql_sqlchecks' pivot path)
            # when the type guards are NOT statically covered by the
            # target scope — evaluated over the guard-intersected
            # focus table by validate_ttl
            c = RegexMatch(
                column="subject", patterns=parsed["patterns"],
                shape_id=entry.get("shape") or None,
                name="auto-subject-regex",
                message=entry.get("message") or None)
        elif parsed["kind"] == "self_join":
            c = GroupedSparql(
                path=parsed["path"], group_by=["subject"],
                columns=["predicate", "object"],
                predicate=GroupPredicate(
                    agg="distinct", agg_col="object", op=">=", value=2,
                    where_col="predicate", where_val=parsed["path"]),
                name=f"auto-self-join:{parsed['path']}",
                shape_id=entry.get("shape") or None,
                message=entry.get("message") or None)
        elif parsed["kind"] == "self_ref":
            c = GroupedSparql(
                path=parsed["path"], group_by=["subject"],
                columns=["predicate", "object"],
                fn=_self_ref_fn(parsed["path"]),
                path_rows_only=True,
                name=f"auto-self-ref:{parsed['path']}",
                shape_id=entry.get("shape") or None,
                message=entry.get("message") or None)
        elif parsed["kind"] == "sibling_antijoin":
            c = SiblingAntiJoin(
                path=parsed["path"], edge_pred=parsed["edge"],
                exclude=parsed["exclude"],
                exclude_self=parsed["exclude_self"],
                group_by=["subject"], columns=["predicate", "object"],
                name=f"auto-sibling-antijoin:{parsed['path']}",
                shape_id=entry.get("shape") or None,
                message=entry.get("message") or None)
        elif parsed["kind"] == "isolation":
            c = NodeIsolation(
                outgoing=parsed["outgoing"], incoming=parsed["incoming"],
                group_by=["subject"], columns=["predicate", "object"],
                name="auto-isolation:" + ",".join(
                    parsed["outgoing"] + parsed["incoming"]),
                shape_id=entry.get("shape") or None,
                message=entry.get("message") or None)
        elif parsed["kind"] == "transitive_cycle":
            c = TransitiveCycle(
                path=parsed["path"], group_by=["subject"],
                columns=["predicate", "object"],
                name=f"auto-transitive-cycle:{parsed['path']}",
                shape_id=entry.get("shape") or None,
                message=entry.get("message") or None)
        elif parsed["kind"] == "same_replace_eq":
            c = GroupedSparql(
                path=parsed["path"], group_by=["subject"],
                columns=["predicate", "object"],
                fn=_same_replace_eq_fn(parsed["path"], parsed["pattern"],
                                       parsed["replacement"]),
                path_rows_only=True,
                name=f"auto-same-replace-eq:{parsed['path']}",
                shape_id=entry.get("shape") or None,
                message=entry.get("message") or None)
        else:
            # a future kind must surface as data, not fall into the
            # wrong grouped path
            still.append(entry)
            continue
        impls.append((entry, c))
    return impls, still


def run_ttl(
    data_path: str,
    shapes_path: str,
    languages=("en",),
    kg_path: Optional[str] = None,
    out_dir: Optional[str] = None,
    long_form: bool = False,
    sparql: bool = False,
    sparql_impls: Optional[Dict[str, object]] = None,
):
    """The reference's full ``main.py`` surface over Turtle inputs:
    validate → signature dedup → justification trees + context →
    (cached) explanations → report fan-out.

    Returns a dict with ``violations``, ``signatures`` (the explanation
    table, one row per (signature, language)) and ``report`` (every
    violation instance with ``explanation_<lang>`` columns fanned back
    on).  Writes the report as Parquet into ``<out_dir>/report`` if
    given, as one zero-row file when the data conforms."""
    from ..pipelines.validate import ValidationEngine

    shape_triples, _ = load_turtle(shapes_path)
    viol, specs = _ttl_violations(
        load_turtle(data_path)[0], shape_triples,
        shapes_to_specs(shape_triples, long_form=long_form), long_form,
        sparql, sparql_impls)
    # the explanation tail reads violation rows; the engine's spec only
    # documents constraints for context, so it holds every table's
    eng = ValidationEngine(
        _subject_spec([c for spec in specs for c in spec.constraints]),
        kg_path=kg_path, languages=list(languages))
    _, expl_tbl, _ = eng.explained_signatures(viol)
    if out_dir is not None:
        eng.write_report(viol, expl_tbl, os.path.join(out_dir, "report"))
    return {"violations": viol, "signatures": expl_tbl,
            "report": eng.report(viol, expl_tbl)}


def validate_ttl(data_path: str, shapes_path: str,
                 long_form: bool = False, sparql: bool = False,
                 sparql_impls: Optional[Dict[str, object]] = None):
    """End-to-end: parse both files, build one entity table + spec per
    target class, validate every table in one scan.

    Returns a materialized ray Dataset of violation rows (focus_node =
    full subject IRI, property_path = full predicate IRI, pyshacl-style
    messages).  Every table below is one part of ONE
    :func:`~xpshacl_ray.pipelines.validate.validate_parts` call, so the
    whole validate is one scan and at most one exchange.  The
    node-isolation and cycle-membership checks ride it, the full graph
    or the cycle members as their referenced side; only the sibling
    anti-join runs exchanges of its own.

    ``long_form=True`` additionally checks :func:`validate_ttl_long`'s
    parts — the multi-value constraints (sh:maxCount, sh:minCount > 1,
    sh:nodeKind, sh:class, sh:languageIn, sh:uniqueLang), sh:closed and
    node-level constraints over the triples table.  ``sparql=True``
    auto-translates ``sh:sparql`` blocks: the FILTER-only form becomes a
    row-local :class:`~xpshacl_ray.spec.SqlCheck`
    (:func:`sparql_sqlchecks`) and the two-triple-pattern self-join /
    self-reference forms become grouped constraints over the
    target-scoped triples table (:func:`sparql_grouped_constraints`,
    VERDICT r3 item 6); blocks outside both subsets stay surfaced as
    data — never silently mistranslated.  Both off by default: the
    entity-pivot subset is the reference-README parity surface pinned by
    the goldens.

    ``sparql_impls`` is the worked escape hatch for the UNtranslatable
    (transitive-closure / beyond-subset) ``sh:sparql`` blocks — after
    round 5's frontier (BIND/REPLACE naming, NOT-EXISTS sibling
    anti-join, node isolation incl. the OPTIONAL/HAVING spelling,
    shared-REPLACE-image synonyms) the only shark shape still needing it
    is the ``subClassOf+`` hierarchy-cycle query
    (shark_shapes.ttl:128-137): a dict keyed by the block's
    ``sh:message`` (or its holder shape id) mapping to a
    :class:`~xpshacl_ray.spec.GroupedSparql` (or any Constraint) that
    implements the pattern over the TRIPLES table — each focus node's
    triples are one group (``group_by=["subject"]``), exactly the
    per-$this binding set the SPARQL WHERE clause joins over.  Matched
    blocks are checked with the other parts; unmatched blocks stay
    surfaced as data (never silently dropped)."""
    data_triples, _ = load_turtle(data_path)
    shape_triples, _ = load_turtle(shapes_path)
    return _ttl_violations(data_triples, shape_triples,
                           shapes_to_specs(shape_triples, long_form=long_form),
                           long_form, sparql, sparql_impls)[0]


def _ttl_violations(data_triples: List[Triple], shape_triples: List[Triple],
                    specs: Dict[str, object], long_form: bool, sparql: bool,
                    sparql_impls: Optional[Dict[str, object]]):
    """:func:`validate_ttl` over parsed triples and the entity specs
    :func:`shapes_to_specs` compiled from them: the violations and the
    spec of every table validated."""
    import ray.data

    from ..spec import (
        NodeIsolation,
        RegexMatch,
        SiblingAntiJoin,
        TransitiveCycle,
    )

    specs = dict(specs)
    parts = _long_form_parts(data_triples, shape_triples) if long_form else []
    # the sibling anti-joins' violations, exchanged on their own, and specs
    joins, join_specs = [], []
    if sparql or sparql_impls:
        checks, skipped = sparql_sqlchecks(shape_triples)
        auto: Dict[tuple, object] = {}
        if sparql:
            for target, cs in checks.items():
                base = specs[target].constraints if target in specs else []
                specs[target] = _subject_spec(list(base) + cs)
            for e, c in _translate_skipped(skipped)[0]:
                auto[(e["target"], e["shape"], e["select"])] = c
        full_tt = None
        scoped: Dict[str, object] = {}
        for entry in skipped:
            impl = ((sparql_impls or {}).get(entry["message"])
                    or (sparql_impls or {}).get(entry["shape"])
                    or auto.get((entry["target"], entry["shape"],
                                 entry["select"])))
            if impl is None:
                continue
            if full_tt is None:
                full_tt = triples_table(data_triples)
            # SHACL focus-node semantics: the impl sees only the triples
            # of the holder shape's focus nodes (union of its declared
            # targets), further intersected with the select's own type
            # guards (`$this a <C>` restricts bindings to C's members —
            # under a multi-target union scope the guard is NOT implied
            # by target scoping)
            target = entry.get("target")
            guards = tuple(tuple(g) for g in entry.get("guards") or ())
            skey = (target, guards)
            if skey not in scoped:
                if target:
                    subs = set(target_subjects(data_triples, target))
                else:
                    subs = {t.s for t in data_triples}
                if guards:
                    types_map = _types_by_subject(data_triples)
                    for g in guards:
                        if g:
                            subs = {s for s in subs
                                    if types_map.get(s, set()) & set(g)}
                        else:  # bare `$this a ?v`: typed at all
                            subs = {s for s in subs if s in types_map}
                mask = pc.is_in(full_tt["subject"],
                                value_set=pa.array(sorted(subs),
                                                   pa.string()))
                scoped[skey] = (full_tt.filter(mask), sorted(subs))
            scoped_tt, scoped_subs = scoped[skey]
            ispec = _subject_spec([impl])
            if isinstance(impl, RegexMatch):
                # row-local subject regex under dynamic guards: one row
                # per FOCUS NODE (the triples table would emit one
                # violation per triple of the subject)
                parts.append((pa.table({"subject": pa.array(
                    scoped_subs, pa.string())}), ispec, None))
                continue
            if isinstance(impl, SiblingAntiJoin):
                from ..spec import compile_constraint, compile_spec
                from ..stages.grouped import evaluate_sibling_join

                # anti-join over the FULL graph (NOT EXISTS consults
                # every triple, not just target-scoped ones)
                join_specs.append(ispec)
                joins.append(evaluate_sibling_join(
                    ray.data.from_arrow(scoped_tt), full_tt,
                    compile_constraint(impl), compile_spec(ispec)))
                continue
            refs = None
            if isinstance(impl, NodeIsolation):
                # its witnesses come from the FULL graph, like the
                # anti-join's edges
                refs = {impl.name: full_tt}
            elif isinstance(impl, TransitiveCycle):
                # iterative plan: cycle membership of the FULL graph's
                # <path> relation, scoped back to the target subjects
                from ..functions.graph import cycle_members

                emask = pc.equal(full_tt["predicate"], impl.path)
                ed = full_tt.filter(pc.fill_null(emask, False))
                refs = {impl.name: cycle_members(ray.data.from_arrow(
                    pa.table({"src": ed["subject"], "dst": ed["object"]})))}
            parts.append((scoped_tt, ispec, refs))
    for target_class, spec in sorted(specs.items()):
        if target_class.startswith("target:"):
            table = entity_table(
                data_triples,
                subjects=target_subjects(data_triples, target_class))
        else:
            table = entity_table(data_triples, target_class)
        if table.num_rows == 0:
            continue
        have = set(table.column_names)
        needed = {c.column for c in spec.constraints}
        needed |= {c.other_column for c in spec.constraints
                   if getattr(c, "other_column", "")}
        # absent predicate = all-null STRING column: every constraint
        # family handles it (length/pattern kernels natively; numeric
        # bounds via _bound_mask's non-numeric fallback, which excuses
        # nulls) — a float column would instead crash min/maxLength when
        # a shape mixes string and numeric facets on one path
        for col in sorted(needed - have):
            table = table.append_column(
                col, pa.nulls(table.num_rows, pa.string()))
        parts.append((table, spec, None))
    results = ([_validate_tables(parts)] if parts else []) + joins
    if not results:
        raise ValueError("no applicable shapes/targets found")
    # every result is eager: their blocks join without another execution
    return ray.data.from_arrow_refs(
        [ref for ds in results for ref in ds.materialize().to_arrow_refs()]
    ).materialize(), [spec for _, spec, _ in parts] + join_specs
