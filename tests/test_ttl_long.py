"""Long-form TTL constraints (sh:maxCount / sh:minCount>1 / sh:nodeKind /
sh:class / sh:languageIn over the triples table), RDF collections and
sh:message / sh:in — the standard-SHACL surface beyond the reference's
example fixtures (reference analog: pyshacl evaluates all of these
natively; /root/reference/data/shark_shapes.ttl:170-199 uses
maxCount/minCount/class, data/synthetic_data_generator.py:97-120 uses
languageIn/nodeKind)."""

import os

import pyarrow as pa
import pytest

from xpshacl_ray.sources.ttl import (
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    long_form_property_shapes,
    parse_turtle,
    rdf_list_triples,
    shapes_to_specs,
    validate_ttl,
    validate_ttl_long,
)

EX = "http://example.org/"
REF_DIR = "/root/reference/data"
REF_DATA = os.path.join(REF_DIR, "example_data.ttl")
REF_SHAPES = os.path.join(REF_DIR, "example_shapes.ttl")
REF_SHARK = os.path.join(REF_DIR, "shark_shapes.ttl")
REF_ONTOLOGY = os.path.join(REF_DIR, "xpshacl_ontology.ttl")


def needs_fixture(path):
    """Skip where the reference checkout's fixture ``path`` is absent."""
    return pytest.mark.skipif(not os.path.exists(path),
                              reason=f"reference fixture {path} absent")


SHAPES = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .

ex:WidgetShape a sh:NodeShape ;
  sh:targetClass ex:Widget ;
  sh:property [ sh:path ex:label ; sh:maxCount 2 ;
                sh:message "too many labels" ] ;
  sh:property [ sh:path ex:tag ; sh:minCount 2 ] ;
  sh:property [ sh:path ex:link ; sh:nodeKind sh:IRI ] ;
  sh:property [ sh:path ex:partOf ; sh:class ex:Assembly ] ;
  sh:property [ sh:path ex:desc ; sh:languageIn ( "en" "fr" ) ] ;
  sh:property [ sh:path ex:color ; sh:in ( "red" "green" ) ] .
"""

DATA = """
@prefix ex: <http://example.org/> .

ex:w1 a ex:Widget ;
  ex:label "a", "b", "c" ;
  ex:tag "t1" ;
  ex:link "not-an-iri" ;
  ex:partOf ex:mystery ;
  ex:desc "hello"@en ;
  ex:color "blue" .

ex:w2 a ex:Widget ;
  ex:label "x" ;
  ex:tag "t1", "t2" ;
  ex:link ex:somewhere ;
  ex:partOf ex:asm1 ;
  ex:desc "bonjour"@de .

ex:w3 a ex:Widget .

ex:asm1 a ex:Assembly .
"""


def _shapes():
    t, _ = parse_turtle(SHAPES)
    return t


def _data():
    t, _ = parse_turtle(DATA)
    return t


def test_collection_parses_to_first_rest_chain():
    triples = _shapes()
    by_p = {}
    for t in triples:
        by_p.setdefault(t.p, []).append(t)
    firsts = by_p.get(RDF_FIRST, [])
    rests = by_p.get(RDF_REST, [])
    # two 2-element lists: languageIn (en fr) and in (red green)
    assert len(firsts) == 4 and len(rests) == 4
    assert sum(1 for t in rests if t.o == RDF_NIL) == 2
    # the chain walks back in order
    from xpshacl_ray.sources.ttl import _sp_index

    obj = _sp_index(triples)
    li = [t for t in triples if t.p.endswith("#languageIn")][0]
    vals = [t.o for t in rdf_list_triples(obj, li.o)]
    assert vals == ["en", "fr"]


def test_empty_and_nested_collections():
    triples, _ = parse_turtle(
        '@prefix ex: <http://example.org/> .\n'
        'ex:a ex:empty ( ) .\n'
        'ex:a ex:nested ( "x" ( "y" ) ) .'
    )
    empty = [t for t in triples if t.p == EX + "empty"][0]
    assert empty.o == RDF_NIL and empty.kind == "iri"
    from xpshacl_ray.sources.ttl import _sp_index

    obj = _sp_index(triples)
    nested = [t for t in triples if t.p == EX + "nested"][0]
    elems = rdf_list_triples(obj, nested.o)
    assert elems[0].o == "x" and elems[0].kind == "literal"
    assert elems[1].kind == "bnode"  # inner list head
    inner = [t.o for t in rdf_list_triples(obj, elems[1].o)]
    assert inner == ["y"]


def test_unterminated_collection_raises():
    with pytest.raises(ValueError, match="unterminated|unexpected token"):
        parse_turtle('@prefix ex: <http://example.org/> .\n'
                     'ex:a ex:p ( "x" .')
    with pytest.raises(ValueError, match="unterminated|unexpected|EOF"):
        parse_turtle('@prefix ex: <http://example.org/> .\n'
                     'ex:a ex:p ( "x"')


def test_sh_in_compiles_to_inset_and_message_overrides():
    specs = shapes_to_specs(_shapes())
    spec = specs[EX + "Widget"]
    comps = {c.component: c for c in spec.constraints}
    inset = comps["InConstraintComponent"]
    assert inset.column == EX + "color"
    assert list(inset.allowed) == ["red", "green"]
    # sh:message override lands on the constraint
    maxlen_msgs = [c.message for c in spec.constraints
                   if c.message == "too many labels"]
    # maxCount itself is long-form, so no entity constraint carries it —
    # but Required for tag (minCount 2 → row form kept by default)
    assert (EX + "tag") in {c.column for c in spec.constraints}


def test_long_form_property_shapes_facets():
    shapes = long_form_property_shapes(_shapes())
    facets_by_path = {pred: f for _, _, pred, f in shapes}
    assert facets_by_path[EX + "label"]["max_count"] == 2
    assert facets_by_path[EX + "label"]["message"] == "too many labels"
    assert facets_by_path[EX + "tag"]["min_count"] == 2
    assert facets_by_path[EX + "link"]["node_kind"] == "IRI"
    assert facets_by_path[EX + "partOf"]["class_iri"] == EX + "Assembly"
    assert facets_by_path[EX + "desc"]["language_in"] == ["en", "fr"]
    # sh:in is entity-pivot surface, not long-form
    assert (EX + "color") not in facets_by_path


def test_validate_ttl_long_end_to_end(ray_session):
    viol = validate_ttl_long(_data(), _shapes()).to_pandas()
    got = sorted(zip(viol["property_path"], viol["focus_node"],
                     viol["constraint_id"].str.rsplit("#").str[-1]))
    want = sorted([
        (EX + "label", "group:" + EX + "w1", "MaxCountConstraintComponent"),
        (EX + "tag", "group:" + EX + "w1", "MinCountConstraintComponent"),
        (EX + "tag", "group:" + EX + "w3", "MinCountConstraintComponent"),
        (EX + "link", EX + "w1", "NodeKindConstraintComponent"),
        (EX + "partOf", EX + "w1", "ClassConstraintComponent"),
        (EX + "desc", EX + "w2", "LanguageInConstraintComponent"),
    ])
    assert got == want
    # custom message + actualCount context on the grouped row
    row = viol[viol["property_path"] == EX + "label"].iloc[0]
    assert row["message"] == "too many labels"
    assert '"actualCount": 3' in row["context"]
    # nodeKind violation reports the offending OBJECT value, path = pred
    nk = viol[viol["constraint_id"].str.endswith(
        "NodeKindConstraintComponent")].iloc[0]
    assert nk["value"] == "not-an-iri"


def test_validate_ttl_union_with_long_form(tmp_path, ray_session):
    d = tmp_path / "data.ttl"
    s = tmp_path / "shapes.ttl"
    d.write_text(DATA)
    s.write_text(SHAPES)
    combined = validate_ttl(str(d), str(s), long_form=True).to_pandas()
    # 6 long-form + 1 entity InSet (w1 color "blue"); NO double-report of
    # w3's zero tags (row-form Required suppressed for minCount>1)
    assert len(combined) == 7
    comps = combined["constraint_id"].str.rsplit("#").str[-1]
    assert (comps == "MinCountConstraintComponent").sum() == 2
    inset = combined[comps == "InConstraintComponent"].iloc[0]
    assert inset["value"] == "blue"
    # default path (long_form=False) still reports the row-form Required
    # approximation for minCount 2 (w3 and w1... w1 HAS a tag → only w3)
    base = validate_ttl(str(d), str(s)).to_pandas()
    req = base[base["constraint_id"].str.endswith(
        "MinCountConstraintComponent")]
    assert set(req["focus_node"]) == {EX + "w3", EX + "w1"} or set(
        req["focus_node"]) == {EX + "w3"}


@needs_fixture(REF_DATA)
@needs_fixture(REF_SHAPES)
def test_reference_fixtures_unchanged_by_long_form(ray_session):
    # the reference README example has no long-form shapes: long_form=True
    # must be a no-op on it (parity goldens stay valid)
    base = validate_ttl("/root/reference/data/example_data.ttl",
                        "/root/reference/data/example_shapes.ttl").to_pandas()
    long = validate_ttl("/root/reference/data/example_data.ttl",
                        "/root/reference/data/example_shapes.ttl",
                        long_form=True).to_pandas()
    key = ["focus_node", "constraint_id", "property_path"]
    assert sorted(map(tuple, base[key].values.tolist())) == sorted(
        map(tuple, long[key].values.tolist()))


@needs_fixture(REF_SHARK)
@needs_fixture(REF_ONTOLOGY)
def test_long_form_on_reference_shark_fixtures(ray_session):
    # shark_shapes' long-form constraints over the reference's OWN
    # ontology: the 10 xsh property ranges are xsd datatypes / rdfs
    # classes never typed `a owl:Class` in the data graph, so the
    # "range, which is a class" sh:class shapes flag them (matches
    # pyshacl's no-inference semantics: class membership = explicit
    # rdf:type triples only).  maxCount/minCount long forms all pass.
    viol = validate_ttl("/root/reference/data/xpshacl_ontology.ttl",
                        "/root/reference/data/shark_shapes.ttl",
                        long_form=True).to_pandas()
    comps = viol["constraint_id"].str.rsplit("#").str[-1]
    assert (comps == "ClassConstraintComponent").all()
    assert len(viol) == 10
    assert set(viol["property_path"]) == {
        "http://www.w3.org/2000/01/rdf-schema#range"}
