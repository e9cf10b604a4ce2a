"""Round-5 SPARQL translation frontier (VERDICT r4 items 2+3): the
shark BIND/REPLACE naming shapes → RegexMatch row constraints, and the
NOT-EXISTS superclass shape → the join-aware SiblingAntiJoin — parsed
from the REAL reference shapes file and exercised end-to-end on the
deterministic ``_ttl_shark_fixture`` whose oracle is derived from the
generation rule (reference: data/shark_shapes.ttl:48-67, 200-245)."""

import os

import pyarrow as pa
import pytest

from xpshacl_ray.sources.ttl import (
    _parse_self_join_select,
    load_turtle,
    sparql_grouped_constraints,
    sparql_sqlchecks,
    validate_ttl,
)
from xpshacl_ray.spec import RegexMatch, SiblingAntiJoin

OWL = "http://www.w3.org/2002/07/owl#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
REF_SHARK = "/root/reference/data/shark_shapes.ttl"
needs_ref_shark = pytest.mark.skipif(
    not os.path.exists(REF_SHARK),
    reason=f"reference fixture {REF_SHARK} absent")

PREFIXES = f"""
  PREFIX owl: <{OWL}>
  PREFIX rdfs: <{RDFS}>
  PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""


# ---------------------------------------------------------------------------
# parser: recognized forms
# ---------------------------------------------------------------------------


def test_parse_bind_replace_single():
    sel = PREFIXES + """
  SELECT $this
  WHERE {
    $this a owl:Class .
    BIND(REPLACE(STR($this), '/([a-z][1]?[A-z0-9]*)$', '' ) as ?str1) .
    FILTER(STR($this) != STR(?str1)) .
  }
  """
    parsed = _parse_self_join_select(sel, OWL + "Class")
    assert parsed == {"kind": "subject_regex",
                      "patterns": ["/([a-z][1]?[A-z0-9]*)$"],
                      "guards": [[OWL + "Class"]]}


def test_parse_bind_replace_multi_or_with_flags():
    sel = PREFIXES + """
  SELECT $this
  WHERE {
    $this a owl:ObjectProperty .
    BIND(REPLACE(STR($this), 'isA', '' ) as ?str1) .
    BIND(REPLACE(STR($this), 'is-a', '' ,'i') as ?str2) .
    BIND(REPLACE(STR($this), 'is_a', '' ,'i') as ?str3) .
    FILTER(STR($this) != STR(?str1) || STR($this) != STR(?str2) || STR($this) != STR(?str3)) .
  }
  """
    parsed = _parse_self_join_select(sel, OWL + "ObjectProperty")
    assert parsed == {"kind": "subject_regex",
                      "patterns": ["isA", "(?i)is-a", "(?i)is_a"],
                      "guards": [[OWL + "ObjectProperty"]]}


def test_parse_sibling_antijoin():
    sel = PREFIXES + """
  SELECT DISTINCT $this
  WHERE {
    $this rdf:type owl:Class .
    $this rdfs:subClassOf ?v1 .
    $this rdfs:subClassOf ?v2 .
    FILTER NOT EXISTS {?v1 rdfs:subClassOf ?v2 }.
    FILTER NOT EXISTS {?v2 rdfs:subClassOf ?v1 }.
    FILTER(?v1 != ?v2) .
    FILTER(?v1 != owl:Thing) .
    FILTER(?v2 != owl:Thing) .
    FILTER($this != ?v1) .
    FILTER($this != ?v2) .
  }
  """
    parsed = _parse_self_join_select(sel, OWL + "Class")
    assert parsed == {"kind": "sibling_antijoin",
                      "path": RDFS + "subClassOf",
                      "edge": RDFS + "subClassOf",
                      "exclude": [OWL + "Thing"],
                      "exclude_self": True,
                      "guards": [[OWL + "Class"]]}


# ---------------------------------------------------------------------------
# parser: rejected forms stay surfaced as data, never mistranslated
# ---------------------------------------------------------------------------


def _wrap(*stmts):
    return PREFIXES + "SELECT $this WHERE {\n" + \
        "\n".join(f"    {s} ." for s in stmts) + "\n}"


def test_parse_transitive_cycle_self_ref():
    # shark cycles shape: subClassOf+ is transitive closure — it parses
    # to its own iterative-plan kind, never to a literal-predicate
    # self-ref (which would silently match nothing)
    sel = _wrap("$this a owl:Class", "$this rdfs:subClassOf+ $this")
    assert _parse_self_join_select(sel, OWL + "Class") == {
        "kind": "transitive_cycle", "path": RDFS + "subClassOf",
        "guards": [[OWL + "Class"]]}


def test_parse_rejects_other_property_paths():
    for form in ("$this rdfs:subClassOf* $this",
                 "$this ^rdfs:subClassOf $this",
                 "$this rdfs:subClassOf+ ?v"):
        sel = _wrap("$this a owl:Class", form)
        assert _parse_self_join_select(sel, OWL + "Class") is None, form


def test_parse_rejects_one_sided_exclusion():
    sel = _wrap(
        "$this rdfs:subClassOf ?v1", "$this rdfs:subClassOf ?v2",
        "FILTER NOT EXISTS {?v1 rdfs:subClassOf ?v2 }",
        "FILTER NOT EXISTS {?v2 rdfs:subClassOf ?v1 }",
        "FILTER(?v1 != ?v2)", "FILTER(?v1 != owl:Thing)")
    assert _parse_self_join_select(sel, OWL + "Class") is None


def test_parse_rejects_unsupported_replace_flag():
    sel = _wrap(
        "$this a owl:Class",
        "BIND(REPLACE(STR($this), 'x.y', '' ,'q') as ?s)",
        "FILTER(STR($this) != STR(?s))")
    assert _parse_self_join_select(sel, OWL + "Class") is None


def test_parse_rejects_not_exists_with_property_path():
    sel = _wrap(
        "$this rdfs:subClassOf ?v1", "$this rdfs:subClassOf ?v2",
        "FILTER NOT EXISTS {?v1 rdfs:subClassOf+ ?v2 }",
        "FILTER NOT EXISTS {?v2 rdfs:subClassOf+ ?v1 }",
        "FILTER(?v1 != ?v2)")
    assert _parse_self_join_select(sel, OWL + "Class") is None


def test_parse_rejects_unbound_str_filter_var():
    sel = _wrap(
        "$this a owl:Class",
        "BIND(REPLACE(STR($this), 'abc', '' ) as ?s1)",
        "FILTER(STR($this) != STR(?s2))")
    assert _parse_self_join_select(sel, OWL + "Class") is None


# ---------------------------------------------------------------------------
# real reference shapes: every shark sh:sparql lands where it should
# ---------------------------------------------------------------------------


@needs_ref_shark
def test_shark_shapes_full_translation_inventory():
    """The shark shapes declare targetClass AND targetSubjectsOf
    (shark_shapes.ttl:30-31, 154-158), so each shape now evaluates ONCE
    over its target UNION; type guards inside the selects are enforced
    dynamically, and every sh:sparql block translates — none surface."""
    shapes, _ = load_turtle("/root/reference/data/shark_shapes.ttl")
    impls, still = sparql_grouped_constraints(shapes)
    assert still == []
    regex = [(e, c) for e, c in impls if isinstance(c, RegexMatch)]
    by_pats = {tuple(c.patterns): e for e, c in regex}
    # all three naming blocks route through the guard-aware grouped
    # path (their union scopes include a subjects-of sentinel, so the
    # entity-pivot fast path cannot statically cover the guard)
    assert by_pats[("/([a-z][1]?[A-z0-9]*)$",)]["guards"] == \
        [[OWL + "Class"]]
    assert by_pats[("isA", "(?i)is-a", "(?i)is_a")]["guards"] == \
        [[OWL + "ObjectProperty"]]
    assert sorted(by_pats[("/[A-Z][A-z0-9]*$",)]["guards"][0]) == sorted([
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property",
        OWL + "DatatypeProperty", OWL + "ObjectProperty"])
    # ONE entry per block — the union key replaces per-target repeats
    assert len(regex) == 3

    sibs = [c for _, c in impls if isinstance(c, SiblingAntiJoin)]
    assert len(sibs) == 1
    assert sibs[0].edge_pred == RDFS + "subClassOf"
    assert sibs[0].exclude == [OWL + "Thing"]
    assert sibs[0].exclude_self


# ---------------------------------------------------------------------------
# RegexMatch semantics (exact SPARQL REPLACE: non-empty match = change)
# ---------------------------------------------------------------------------


def _mask(c, values):
    t = pa.table({"subject": pa.array(values, pa.string())})
    return [bool(x) for x in c.mask(t).to_pylist()]


def test_regexmatch_flags_and_nulls():
    c = RegexMatch(column="subject", patterns=["isA", "(?i)is_a"])
    vals = ["http://x/relisAfoo", "http://x/rel_IS_a", "http://x/clean",
            None, "http://x/isa"]
    assert _mask(c, vals) == [True, True, False, False, False]


def test_regexmatch_empty_only_match_never_violates():
    # 'z*' matches the empty string everywhere but never a non-empty
    # span here — REPLACE leaves the value unchanged, so no violation
    c = RegexMatch(column="subject", patterns=["z*"])
    assert _mask(c, ["abc", ""]) == [False, False]


def test_regexmatch_python_fallback_for_lookahead():
    # RE2 rejects lookaheads; the Python re fallback must agree with
    # REPLACE semantics (re.sub changes the value iff a match exists)
    c = RegexMatch(column="subject", patterns=[r"foo(?=bar)"])
    assert _mask(c, ["xfoobar", "xfoobaz"]) == [True, False]


# ---------------------------------------------------------------------------
# end-to-end: fixture parity of the sibling anti-join plan
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shark_fixture(tmp_path_factory):
    import sys

    sys.path.insert(0, "/root/repo")
    from __ray_entry__ import _ttl_shark_fixture

    data_ttl, shapes_ttl, expected = _ttl_shark_fixture()
    d = tmp_path_factory.mktemp("shark")
    dp, sp = d / "data.ttl", d / "shapes.ttl"
    dp.write_text(data_ttl)
    sp.write_text(shapes_ttl)
    return str(dp), str(sp), expected


def test_shark_fixture_antijoin_plan(shark_fixture, ray_session):
    dp, sp, expected = shark_fixture
    v = validate_ttl(dp, sp, sparql=True).to_pandas()
    assert sorted(zip(v["subject"], v["message"])) == expected


# ---------------------------------------------------------------------------
# round-5 frontier: isolation / must-have-instances / synonyms forms
# ---------------------------------------------------------------------------


def test_parse_unconnected_isolation():
    sel = _wrap(
        "$this a owl:Class",
        "FILTER NOT EXISTS {$this rdfs:subClassOf ?any1}",
        "FILTER NOT EXISTS {?any2 owl:equivalentClass $this}",
        "FILTER NOT EXISTS {$this owl:equivalentClass ?any3}",
        "FILTER NOT EXISTS {?any4 rdfs:subClassOf $this}",
        "FILTER NOT EXISTS {?any5 rdfs:range $this}",
        "FILTER NOT EXISTS {?any6 rdfs:domain $this}")
    parsed = _parse_self_join_select(sel, OWL + "Class")
    assert parsed == {
        "kind": "isolation",
        "outgoing": sorted([RDFS + "subClassOf", OWL + "equivalentClass"]),
        "incoming": sorted([OWL + "equivalentClass", RDFS + "subClassOf",
                            RDFS + "range", RDFS + "domain"]),
        "guards": [[OWL + "Class"]]}


def test_parse_must_have_instances_optional_having():
    sel = PREFIXES + """
  SELECT DISTINCT ?value $this
  WHERE {
    $this a owl:Class .
    OPTIONAL { ?value a $this } .
  }
  GROUP BY $this ?value
  HAVING (COUNT(?value) = 0 )
  """
    parsed = _parse_self_join_select(sel, OWL + "Class")
    assert parsed == {
        "kind": "isolation", "outgoing": [],
        "incoming": ["http://www.w3.org/1999/02/22-rdf-syntax-ns#type"],
        "guards": [[OWL + "Class"]]}


def test_parse_rejects_having_without_optional():
    # an aggregate HAVING on a plain triple pattern is NOT the
    # must-have-instances form — never mistranslate it
    sel = PREFIXES + """
  SELECT $this WHERE {
    $this rdfs:subClassOf ?v .
  }
  GROUP BY $this
  HAVING (COUNT(?v) = 3)
  """
    assert _parse_self_join_select(sel, OWL + "Class") is None


def test_parse_rejects_having_count_nonzero():
    sel = PREFIXES + """
  SELECT $this WHERE {
    $this a owl:Class .
    OPTIONAL { ?value a $this } .
  }
  HAVING (COUNT(?value) = 2)
  """
    assert _parse_self_join_select(sel, OWL + "Class") is None


def test_parse_synonyms_same_replace_eq():
    sel = PREFIXES + """
  SELECT $this
  WHERE {
    $this a owl:Class .
    $this owl:equivalentClass ?other
    BIND(REPLACE(STR($this), '(#|/)[^#/]*$', '$1' ) as ?ns1) .
    BIND(REPLACE(STR(?other), '(#|/)[^#/]*$', '$1' ) as ?ns2) .
    FILTER(?ns1 = ?ns2) .
  }
  """
    parsed = _parse_self_join_select(sel, OWL + "Class")
    assert parsed == {"kind": "same_replace_eq",
                      "path": OWL + "equivalentClass",
                      "pattern": "(#|/)[^#/]*$", "replacement": "$1",
                      "guards": [[OWL + "Class"]]}


def test_parse_rejects_synonyms_with_different_regexes():
    sel = _wrap(
        "$this a owl:Class",
        "$this owl:equivalentClass ?other",
        "BIND(REPLACE(STR($this), '(#|/)[^#/]*$', '$1' ) as ?ns1)",
        "BIND(REPLACE(STR(?other), '#.*$', '$1' ) as ?ns2)",
        "FILTER(?ns1 = ?ns2)")
    assert _parse_self_join_select(sel, OWL + "Class") is None


@needs_ref_shark
def test_shark_shapes_round5_inventory():
    """EVERY shark sh:sparql auto-translates — with union targets and
    dynamic type guards, nothing surfaces at all."""
    from xpshacl_ray.spec import (
        GroupedSparql,
        NodeIsolation,
        TransitiveCycle,
    )

    shapes, _ = load_turtle("/root/reference/data/shark_shapes.ttl")
    impls, still = sparql_grouped_constraints(shapes)
    isos = [c for _, c in impls if isinstance(c, NodeIsolation)]
    assert len(isos) == 2
    by_name = {tuple(c.incoming): c for c in isos}
    # must-have-instances: incoming rdf:type only
    assert ("http://www.w3.org/1999/02/22-rdf-syntax-ns#type",) in by_name
    syn = [c for _, c in impls
           if c.name.startswith("auto-same-replace-eq:")]
    assert len(syn) == 1
    cyc = [c for _, c in impls if isinstance(c, TransitiveCycle)]
    assert len(cyc) == 1 and cyc[0].path == RDFS + "subClassOf"
    # inverse-to-self: ONE union entry (was one per property class),
    # guard = the IN list
    inv = [(e, c) for e, c in impls if isinstance(c, GroupedSparql)
           and c.name.startswith("auto-self-ref:")]
    assert len(inv) == 1
    assert sorted(inv[0][0]["guards"][0]) == sorted([
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property",
        OWL + "DatatypeProperty", OWL + "ObjectProperty"])
    assert still == []


def test_shark_fixture_round5_counts(shark_fixture, ray_session):
    """The extended fixture's expected list covers all EIGHT translated
    shapes: 8 superclass + 10 lowercase + 4 capital + 2 is-a + 7
    no-instances + 2 unconnected + 1 synonyms + 11 cycles = 49 rows
    (counts derived from the generation rule, duplicates across shapes
    intended)."""
    _, _, expected = shark_fixture
    from collections import Counter

    by_msg = Counter(m for _, m in expected)
    assert by_msg["Classes must have at most one superclass"] == 8
    assert by_msg["Classes names must not start with a lowercase letter"] == 10
    assert by_msg["Classes must have instances"] == 7
    assert by_msg["Detect unconnected classes"] == 2
    assert by_msg["Detect synonyms created as classes"] == 1
    assert by_msg["Detect cycles in the class hierarchy"] == 11
    assert sum(by_msg.values()) == len(expected) == 49


# ---------------------------------------------------------------------------
# cycle_members operator (trim + exact SCC)
# ---------------------------------------------------------------------------


def test_cycle_members_rho_and_dag(ray_session):
    import ray.data

    from xpshacl_ray.functions.graph import cycle_members

    # rho: 1→2→3→1 with tail 5→4→1; self-loop 9; DAG 6→7→8
    edges = [(1, 2), (2, 3), (3, 1), (4, 1), (5, 4), (9, 9),
             (6, 7), (7, 8)]
    ds = ray.data.from_arrow(pa.table(
        {"src": pa.array([s for s, _ in edges], pa.int64()),
         "dst": pa.array([d for _, d in edges], pa.int64())}))
    got = sorted(r["node"] for r in cycle_members(ds).take_all())
    assert got == [1, 2, 3, 9]
    # pure DAG trims to empty — zero driver graph work
    dag = ray.data.from_arrow(pa.table(
        {"src": pa.array([1, 2, 3], pa.int64()),
         "dst": pa.array([2, 3, 4], pa.int64())}))
    assert cycle_members(dag).count() == 0


def test_cycle_members_string_nodes_two_sccs(ray_session):
    import ray.data

    from xpshacl_ray.functions.graph import cycle_members

    # two separate 2-cycles joined by a non-cycle bridge node
    edges = [("a", "b"), ("b", "a"), ("b", "m"), ("m", "c"),
             ("c", "d"), ("d", "c")]
    ds = ray.data.from_arrow(pa.table(
        {"src": pa.array([s for s, _ in edges], pa.string()),
         "dst": pa.array([d for _, d in edges], pa.string())}))
    got = sorted(r["node"] for r in cycle_members(ds).take_all())
    # m sits BETWEEN two cycles (in-degree and out-degree ≥1, survives
    # trim) but is on no cycle — exact SCC must drop it
    assert got == ["a", "b", "c", "d"]


def test_cycle_members_matches_bruteforce_random(ray_session):
    import numpy as np

    import ray.data
    from xpshacl_ray.functions.graph import cycle_members

    rng = np.random.default_rng(5)
    n = 60
    src = rng.integers(0, n, 150).astype("int64")
    dst = rng.integers(0, n, 150).astype("int64")
    # brute force: node on cycle iff it reaches itself via >=1 edge
    adj = {}
    for s, d in zip(src, dst):
        adj.setdefault(int(s), set()).add(int(d))
    want = []
    for x in range(n):
        seen, frontier = set(), set(adj.get(x, ()))
        while frontier:
            if x in frontier:
                want.append(x)
                break
            seen |= frontier
            frontier = set().union(
                *(adj.get(y, set()) for y in frontier)) - seen
    ds = ray.data.from_arrow(pa.table({"src": pa.array(src),
                                       "dst": pa.array(dst)}))
    got = sorted(r["node"] for r in cycle_members(ds).take_all())
    assert got == want


def test_cycle_members_forced_distributed_path_parity(ray_session):
    """edge_collect_limit=0 forces the distributed trim + core-collect
    plan; it must agree with the small-relation one-pass Tarjan path."""
    import ray.data

    from xpshacl_ray.functions.graph import cycle_members

    edges = [(1, 2), (2, 3), (3, 1), (4, 1), (5, 4), (9, 9),
             (6, 7), (7, 8), (10, 11), (11, 10)]
    ds = ray.data.from_arrow(pa.table(
        {"src": pa.array([s for s, _ in edges], pa.int64()),
         "dst": pa.array([d for _, d in edges], pa.int64())}))
    fast = sorted(r["node"] for r in cycle_members(ds).take_all())
    slow = sorted(r["node"] for r in cycle_members(
        ds, edge_collect_limit=0).take_all())
    assert fast == slow == [1, 2, 3, 9, 10, 11]


def test_cycle_members_distributed_scc_chain_of_sccs(ray_session):
    """A condensation CHAIN of 2-cycles with ids arranged so the max
    index sits at the head colors the whole chain: only ONE root
    resolves per outer round, so the round bound must scale with the
    SCC count (it is n+2 now, not a small fixed cap)."""
    import ray.data

    from xpshacl_ray.functions.graph import cycle_members

    k = 12
    edges = []
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        edges += [(a, b), (b, a)]
        if i + 1 < k:
            edges.append((2 * (i + 1), a))  # SCC_{i+1} -> SCC_i
    ds = ray.data.from_arrow(pa.table(
        {"src": pa.array([s for s, _ in edges], pa.int64()),
         "dst": pa.array([d for _, d in edges], pa.int64())}))
    fast = sorted(r["node"] for r in cycle_members(ds).take_all())
    dist = sorted(r["node"] for r in cycle_members(
        ds, edge_collect_limit=0, core_limit=0).take_all())
    assert fast == dist == list(range(2 * k))


def test_cycle_members_distributed_scc_parity_random(ray_session):
    """core_limit=0 forces the distributed coloring SCC (no edge
    collect anywhere); it must agree with the one-pass Tarjan path on
    random graphs dense enough to have nested / overlapping SCCs."""
    import numpy as np

    import ray.data
    from xpshacl_ray.functions.graph import cycle_members

    for seed in (0, 7, 21):
        rng = np.random.default_rng(seed)
        n = 80
        src = rng.integers(0, n, 220).astype("int64")
        dst = rng.integers(0, n, 220).astype("int64")
        ds = ray.data.from_arrow(pa.table({"src": pa.array(src),
                                           "dst": pa.array(dst)}))
        fast = sorted(r["node"] for r in cycle_members(ds).take_all())
        dist = sorted(r["node"] for r in cycle_members(
            ds, edge_collect_limit=0, core_limit=0).take_all())
        assert dist == fast, f"seed={seed}"


def test_cycle_members_distributed_scc_structured_cases(ray_session):
    """Hand-built shapes on the forced distributed path: self-loops,
    a bridge node between two SCCs (survives trim, not a member), a
    long cycle (many propagation rounds), string node ids, nulls."""
    import ray.data

    from xpshacl_ray.functions.graph import cycle_members

    def run(edges, typ):
        ds = ray.data.from_arrow(pa.table(
            {"src": pa.array([s for s, _ in edges], typ),
             "dst": pa.array([d for _, d in edges], typ)}))
        return sorted(r["node"] for r in cycle_members(
            ds, edge_collect_limit=0, core_limit=0).take_all())

    # two 2-cycles joined by a bridge node m (in+out degree >= 1)
    assert run([("a", "b"), ("b", "a"), ("b", "m"), ("m", "c"),
                ("c", "d"), ("d", "c")], pa.string()) == \
        ["a", "b", "c", "d"]
    # self-loop only + DAG + null endpoint (dropped, not a node)
    assert run([(9, 9), (1, 2), (2, 3), (None, 4)], pa.int64()) == [9]
    # one long cycle: 40 color-propagation rounds, exercises fixpoint
    cyc = [(i, (i + 1) % 40) for i in range(40)]
    assert run(cyc, pa.int64()) == list(range(40))
    # rho with duplicate (multi-)edges: dedup must not double-resolve
    assert run([(1, 2), (1, 2), (2, 1), (2, 1), (3, 1)],
               pa.int64()) == [1, 2]


# ---------------------------------------------------------------------------
# brute-force cross-checks of the new constraint semantics
# ---------------------------------------------------------------------------


def test_sibling_join_matches_bruteforce_random():
    """60 random focus groups, each with its own node universe and edge
    relation, through the engine's anti-join plan in one Dataset."""
    from collections import Counter

    import numpy as np
    import ray.data

    from xpshacl_ray.spec import ValidationSpec, compile_spec
    from xpshacl_ray.stages.grouped import evaluate_sibling_join

    rng = np.random.default_rng(17)
    P, Q, E = "http://x/p", "http://x/q", "http://x/e"
    focus, edges, cases = [], [], []
    for case in range(60):
        nodes = [f"c{case}/n{i}" for i in range(12)]
        # the subject is itself a node, so exclude_self matters
        subj = nodes[11]
        k = int(rng.integers(1, 7))
        objs = list(rng.choice(nodes, k))
        focus += [(subj, P, o) for o in objs]
        focus += [(subj, Q, "zz"), (subj, Q, None)]
        if case % 4 == 0:
            focus.append((subj, P, None))
        m = int(rng.integers(0, 20))
        es, ed = rng.choice(nodes, m), rng.choice(nodes, m)
        edges += [(src, E, dst) for src, dst in zip(es, ed)]
        excl = {nodes[0]} if case % 3 == 0 else set()
        rel = set(zip(es.tolist(), ed.tolist()))
        cases.append((subj, objs, excl, rel))

    def table(rows):
        return pa.table({c: pa.array([r[i] for r in rows], pa.string())
                         for i, c in enumerate(("subject", "predicate",
                                                "object"))})

    ft = table(focus)
    ds = ray.data.from_arrow([ft.slice(i * 40, 40)
                              for i in range(-(-ft.num_rows // 40))])
    full = table(focus + edges)
    n_rows = Counter(ft["subject"].to_pylist())
    excluded = sorted(set().union(*(x for _, _, x, _ in cases)))
    for exclude_self in (False, True):
        c = SiblingAntiJoin(path=P, edge_pred=E, exclude=excluded,
                            exclude_self=exclude_self,
                            group_by=["subject"],
                            columns=["predicate", "object"])
        spec = compile_spec(ValidationSpec(constraints=[c],
                                           id_columns=["subject"],
                                           focus_template="{subject}"))
        out = evaluate_sibling_join(ds, full, spec.grouped[0], spec)
        got = pa.concat_tables(out.iter_batches(batch_format="pyarrow",
                                                batch_size=None))
        # brute force, straight from the SPARQL semantics
        want = Counter()
        for subj, objs, excl, rel in cases:
            S = sorted({o for o in objs if o not in excl
                        and not (exclude_self and o == subj)})
            if any((a, b) not in rel and (b, a) not in rel
                   for i, a in enumerate(S) for b in S[i + 1:]):
                want[(subj, n_rows[subj])] += 1
        assert 0 < len(want) < 60
        assert Counter(zip(got["subject"].to_pylist(),
                           map(int, got["value"].to_pylist()))) == want


def test_regexmatch_matches_re_sub_bruteforce():
    import re as _re

    import numpy as np

    from xpshacl_ray.spec import RegexMatch

    rng = np.random.default_rng(23)
    pats = ["ab", "a+b", "x[yz]", "q$", "^r", "a{2}", "(?i)AB"]
    alphabet = list("abxyzqr")
    vals = ["".join(rng.choice(alphabet, int(rng.integers(0, 8))))
            for _ in range(200)]
    for p in pats:
        c = RegexMatch(column="subject", patterns=[p])
        got = _mask(c, vals)
        rx = _re.compile(p)
        want = [rx.sub("", v) != v for v in vals]
        assert got == want, p


def test_node_isolation_matches_bruteforce(ray_session):
    import numpy as np

    import ray.data
    from xpshacl_ray.pipelines.validate import validate_parts
    from xpshacl_ray.spec import NodeIsolation, ValidationSpec, compile_spec

    rng = np.random.default_rng(31)
    nodes = [f"c{i}" for i in range(30)]
    preds = ["http://x/sub", "http://x/eq", "http://x/dom"]
    rows = []
    for _ in range(40):  # sparse: some nodes stay genuinely isolated
        rows.append((str(rng.choice(nodes)), str(rng.choice(preds)),
                     str(rng.choice(nodes))))
    # every node is also typed (focus candidates)
    T = "http://x/T"
    TY = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    rows += [(n, TY, T) for n in nodes]
    full = pa.table({
        "subject": pa.array([r[0] for r in rows], pa.string()),
        "predicate": pa.array([r[1] for r in rows], pa.string()),
        "object": pa.array([r[2] for r in rows], pa.string()),
    })
    c = NodeIsolation(outgoing=["http://x/sub"],
                      incoming=["http://x/eq", "http://x/dom"],
                      group_by=["subject"],
                      columns=["predicate", "object"])
    spec = ValidationSpec(constraints=[c], id_columns=["subject"],
                          focus_template="{subject}")
    # the full graph is the check's referenced side
    out = validate_parts([(ray.data.from_arrow(full), compile_spec(spec),
                           {c.name: full})]).to_pandas()
    got = sorted(out["subject"]) if len(out) else []

    want = sorted(
        n for n in nodes
        if not any(s == n and p == "http://x/sub" for s, p, _ in rows)
        and not any(o == n and p in ("http://x/eq", "http://x/dom")
                    for _, p, o in rows))
    assert got == want


def test_path_rows_only_prefilter_parity(ray_session):
    """The sparse-predicate pre-shuffle prune must not change WHICH
    groups violate (auto self-ref fns satisfy the contract)."""
    import ray.data

    from xpshacl_ray.pipelines.validate import ValidationEngine
    from xpshacl_ray.sources.ttl import _self_ref_fn
    from xpshacl_ray.spec import GroupedSparql, ValidationSpec

    P, Q = "http://x/p", "http://x/q"
    rows = []
    for i in range(200):
        s = f"s{i:03d}"
        rows.append({"subject": s, "predicate": Q, "object": "noise"})
        if i % 17 == 0:  # sparse: only every 17th subject has P at all
            rows.append({"subject": s, "predicate": P,
                         "object": s if i % 34 == 0 else "other"})
    ds = ray.data.from_items(rows)
    got = {}
    for flag in (False, True):
        c = GroupedSparql(path=P, group_by=["subject"],
                          columns=["predicate", "object"],
                          fn=_self_ref_fn(P), path_rows_only=flag,
                          name="t")
        spec = ValidationSpec(constraints=[c], id_columns=["subject"],
                              focus_template="{subject}")
        v = ValidationEngine(spec).validate(ds).to_pandas()
        got[flag] = sorted(v["focus_node"])
    assert got[True] == got[False]
    assert got[True] == [f"group:s{i:03d}" for i in range(0, 200, 34)]
