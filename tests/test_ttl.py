"""Turtle ingestion shim: parser subset + head-to-head parity with the
reference's own example fixtures (README example: 4 violations —
resource1 minInclusive + minCount, resource2 minCount, resource3
minCount; the MinInclusive message is byte-identical to the reference's
pyshacl rendering)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from xpshacl_ray.sources.ttl import (
    entity_table,
    load_turtle,
    parse_turtle,
    shapes_to_specs,
    triples_table,
    validate_ttl,
)

EX = "http://example.org/"
SH = "http://www.w3.org/ns/shacl#"
REF_DATA = "/root/reference/data/example_data.ttl"
REF_SHAPES = "/root/reference/data/example_shapes.ttl"
REF_SHARK = os.path.join(os.path.dirname(REF_DATA), "shark_shapes.ttl")
REF_ONTOLOGY = os.path.join(os.path.dirname(REF_DATA), "xpshacl_ontology.ttl")


def needs_fixture(path):
    """Skip where the reference checkout's fixture ``path`` is absent."""
    return pytest.mark.skipif(not os.path.exists(path),
                              reason=f"reference fixture {path} absent")


def test_parser_subset():
    triples, prefixes = parse_turtle(
        """@prefix ex: <http://example.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:r1 a ex:Person ; ex:age "-20"^^xsd:integer ;
              ex:name "A \\"quoted\\" name"@en , "second" .
        ex:r2 ex:score 3.5 ; ex:n 7 .
        """)
    assert prefixes["ex"] == EX
    d = {(t.s, t.p, t.o) for t in triples}
    assert (EX + "r1", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            EX + "Person") in d
    lit = [t for t in triples if t.p == EX + "age"][0]
    assert lit.o == "-20" and lit.datatype.endswith("integer")
    names = [t for t in triples if t.p == EX + "name"]
    assert len(names) == 2 and names[0].o == 'A "quoted" name'
    assert names[0].lang == "en"
    nums = {t.o: t.datatype for t in triples if t.s == EX + "r2"}
    assert nums["3.5"].endswith("decimal") and nums["7"].endswith("integer")


@needs_fixture(REF_DATA)
def test_entity_table_hydrates_numeric_datatypes():
    triples, _ = load_turtle(REF_DATA)
    t = entity_table(triples, EX + "Person")
    assert t.num_rows == 2
    age = t[EX + "hasAge"]
    assert pa.types.is_int64(age.type)
    assert sorted(x for x in age.to_pylist() if x is not None) == [-20]
    raw = triples_table(triples)
    assert raw.num_rows == len(triples)


@needs_fixture(REF_SHAPES)
def test_shapes_compile():
    triples, _ = load_turtle(REF_SHAPES)
    specs = shapes_to_specs(triples)
    assert set(specs) == {EX + "Person", EX + "Organization"}
    person = specs[EX + "Person"]
    comps = sorted(c.component for c in person.constraints)
    assert comps == ["DatatypeConstraintComponent",
                     "MaxInclusiveConstraintComponent",
                     "MinCountConstraintComponent",
                     "MinInclusiveConstraintComponent"]


@needs_fixture(REF_DATA)
@needs_fixture(REF_SHAPES)
def test_reference_example_parity():
    viol = validate_ttl(REF_DATA, REF_SHAPES).to_pandas()
    got = sorted(zip(viol["subject"], viol["constraint_id"],
                     viol["property_path"], viol["value"].fillna("")))
    want = sorted([
        (EX + "resource1", SH + "MinCountConstraintComponent",
         EX + "hasName", ""),
        (EX + "resource1", SH + "MinInclusiveConstraintComponent",
         EX + "hasAge", "-20"),
        (EX + "resource2", SH + "MinCountConstraintComponent",
         EX + "hasName", ""),
        (EX + "resource3", SH + "MinCountConstraintComponent",
         EX + "foundedOn", ""),
    ])
    assert got == want
    # byte-parity with the reference README's pyshacl message rendering
    msg = viol.loc[viol["constraint_id"] ==
                   SH + "MinInclusiveConstraintComponent", "message"].iloc[0]
    assert msg == 'Value is not >= Literal("0", datatype=xsd:integer)'


@needs_fixture(REF_DATA)
@needs_fixture(REF_SHAPES)
def test_run_ttl_explainable_end_to_end(tmp_path):
    from xpshacl_ray.sources.ttl import run_ttl

    res = run_ttl(REF_DATA, REF_SHAPES, languages=["en"],
                  kg_path=str(tmp_path / "kg.parquet"),
                  out_dir=str(tmp_path / "out"))
    report = res["report"].to_pandas()
    assert len(report) == 4
    # every instance got its signature's explanation fanned back on
    assert report["explanation_en"].notna().all()
    assert report["signature_key"].nunique() == 3  # minCount on
    # hasName / minCount on foundedOn / minInclusive on hasAge — the
    # signature carries the property path, like the reference KG key
    sigs = res["signatures"].to_pandas()
    assert set(sigs["language"]) == {"en"}
    assert (tmp_path / "out" / "report").exists()


def _inline_turtle(tmp_path):
    """(data, shapes) Turtle files: four Person rows, three of them
    violating minCount or minInclusive."""
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:PersonShape a sh:NodeShape ;
  sh:targetClass ex:Person ;
  sh:property [ sh:path ex:hasName ; sh:minCount 1 ] ;
  sh:property [ sh:path ex:hasAge ; sh:minInclusive 0 ] .
""")
    data = tmp_path / "data.ttl"
    data.write_text("""
@prefix ex: <http://example.org/> .

ex:p1 a ex:Person ; ex:hasAge -20 .
ex:p2 a ex:Person ; ex:hasAge 5 .
ex:p3 a ex:Person ; ex:hasName "C" ; ex:hasAge -3 .
ex:p4 a ex:Person ; ex:hasName "D" ; ex:hasAge 40 .
""")
    return data, shapes


def test_run_ttl_on_inline_turtle(tmp_path):
    from xpshacl_ray.sources.ttl import run_ttl

    data, shapes = _inline_turtle(tmp_path)
    res = run_ttl(str(data), str(shapes), languages=["en", "de"],
                  kg_path=str(tmp_path / "kg.parquet"),
                  out_dir=str(tmp_path / "out"))
    report = res["report"].to_pandas()
    got = sorted(zip(report["focus_node"], report["constraint_id"]))
    assert got == [(EX + "p1", SH + "MinCountConstraintComponent"),
                   (EX + "p1", SH + "MinInclusiveConstraintComponent"),
                   (EX + "p2", SH + "MinCountConstraintComponent"),
                   (EX + "p3", SH + "MinInclusiveConstraintComponent")]
    assert report["explanation_en"].notna().all()
    assert report["explanation_de"].str.startswith("[de] ").all()
    # one explanation row per (signature, language)
    sigs = res["signatures"]
    assert sigs.num_rows == 4
    assert set(sigs["signature_key"].to_pylist()) == set(
        report["signature_key"])
    by_sig = {(r["signature_key"], r["language"]): r["explanation"]
              for r in sigs.to_pylist()}
    for _, r in report.iterrows():
        assert by_sig[(r["signature_key"], "en")] == r["explanation_en"]
    assert (tmp_path / "out" / "report").exists()


def test_run_ttl_writes_a_zero_row_report_on_conforming_data(tmp_path):
    from xpshacl_ray.sources.ttl import run_ttl

    data, shapes = _inline_turtle(tmp_path)
    data.write_text("""
@prefix ex: <http://example.org/> .

ex:p4 a ex:Person ; ex:hasName "D" ; ex:hasAge 40 .
""")
    out = tmp_path / "out"
    res = run_ttl(str(data), str(shapes), languages=["en"],
                  kg_path=str(tmp_path / "kg.parquet"), out_dir=str(out))
    assert res["violations"].count() == 0
    report = pq.read_table(str(out / "report"))
    assert report.num_rows == 0
    assert "explanation_en" in report.column_names


def test_run_ttl_with_only_long_form_constraints(tmp_path):
    """A shapes graph whose every constraint is long-form (no entity
    spec) still validates and explains under ``long_form=True``."""
    from xpshacl_ray.sources.ttl import run_ttl

    shapes = tmp_path / "shapes.ttl"
    shapes.write_text("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .

ex:S a sh:NodeShape ; sh:targetClass ex:C ;
  sh:property [ sh:path ex:p ; sh:maxCount 1 ] .
""")
    data = tmp_path / "data.ttl"
    data.write_text("""
@prefix ex: <http://example.org/> .

ex:a a ex:C ; ex:p 1, 2 .
""")
    res = run_ttl(str(data), str(shapes), languages=["en"],
                  kg_path=str(tmp_path / "kg.parquet"), long_form=True)
    report = res["report"].to_pandas()
    assert list(report["constraint_id"]) == [
        SH + "MaxCountConstraintComponent"]
    assert report["explanation_en"].notna().all()


def test_run_ttl_parses_the_data_file_once(tmp_path, monkeypatch):
    from xpshacl_ray.sources import ttl

    data, shapes = _inline_turtle(tmp_path)
    parsed = []
    load = ttl.load_turtle

    def counting_load(path):
        parsed.append(path)
        return load(path)

    monkeypatch.setattr(ttl, "load_turtle", counting_load)
    res = ttl.run_ttl(str(data), str(shapes), languages=["en"],
                      kg_path=str(tmp_path / "kg.parquet"))
    assert res["report"].count() == 4
    assert parsed.count(str(data)) == 1
    assert parsed.count(str(shapes)) == 1


@needs_fixture(REF_DATA)
@needs_fixture(REF_SHAPES)
def test_cli_validate_ttl(tmp_path, capsys):
    import json

    from xpshacl_ray.cli import main

    rc = main(["validate-ttl", "--data", REF_DATA, "--shapes", REF_SHAPES,
               "--out", str(tmp_path / "o"), "--language", "en"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["n_violations"] == 4
    assert summary["n_signatures"] == 3


def test_validate_ttl_rejects_shapeless_input(tmp_path):
    # the data has a typed, non-empty entity, so the rejection is about
    # the shapes file, not about a graph with nothing to target
    data = tmp_path / "data.ttl"
    data.write_text("""@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:r1 a ex:Person ; ex:hasAge "-20"^^xsd:integer .
""")
    p = tmp_path / "empty_shapes.ttl"
    p.write_text("@prefix ex: <http://example.org/> .\n")
    with pytest.raises(ValueError, match="no applicable"):
        validate_ttl(str(data), str(p))
    if os.path.exists(REF_DATA):
        with pytest.raises(ValueError, match="no applicable"):
            validate_ttl(REF_DATA, str(p))


@needs_fixture(REF_DATA)
@needs_fixture(REF_SHAPES)
@needs_fixture(REF_SHARK)
@needs_fixture(REF_ONTOLOGY)
def test_parser_handles_all_reference_fixtures():
    # shark_shapes.ttl exercises long literals ("""...""" SPARQL bodies),
    # boolean literals (sh:uniqueLang true) and 6 prefixes
    from xpshacl_ray.sources.ttl import load_turtle, sparql_constraints

    counts = {}
    for f in ["example_data", "example_shapes", "shark_shapes",
              "xpshacl_ontology"]:
        triples, prefixes = load_turtle(f"/root/reference/data/{f}.ttl")
        counts[f] = len(triples)
        assert len(triples) > 0 and len(prefixes) >= 2
    assert counts["shark_shapes"] == 95
    shark, _ = load_turtle("/root/reference/data/shark_shapes.ttl")
    sparqls = sparql_constraints(shark)
    assert len(sparqls) == 9
    for c in sparqls:
        assert "SELECT" in c["select"] and c["message"]
    # boolean literal captured with xsd:boolean datatype
    bools = [t for t in shark if t.datatype and t.datatype.endswith("boolean")]
    assert bools and all(t.o in ("true", "false") for t in bools)


@needs_fixture(REF_SHARK)
@needs_fixture(REF_ONTOLOGY)
def test_shark_shapes_against_reference_ontology(tmp_path):
    # the reference's own ontology conforms to its own guideline shapes
    # (every owl:Class/Property carries label + comment) — and a mutated
    # copy with a dropped comment is caught
    from xpshacl_ray.sources.ttl import load_turtle, shapes_to_specs

    sh, _ = load_turtle("/root/reference/data/shark_shapes.ttl")
    specs = shapes_to_specs(sh)
    # union-target keys since round 5: the ClassShape key carries
    # owl#Class inside its target:union= sentinel
    assert any("#Class" in t for t in specs)
    conf = validate_ttl("/root/reference/data/xpshacl_ontology.ttl",
                        "/root/reference/data/shark_shapes.ttl").to_pandas()
    assert len(conf) == 0

    src = open("/root/reference/data/xpshacl_ontology.ttl").read()
    # drop one class's rdfs:comment line (keep the statement valid)
    lines = src.splitlines()
    out, dropped = [], False
    for ln in lines:
        if not dropped and "rdfs:comment" in ln:
            dropped = True
            if ln.rstrip().endswith("."):
                # re-terminate the previous line's statement
                out[-1] = out[-1].rstrip().rstrip(";") + " ."
            continue
        out.append(ln)
    assert dropped
    mut = tmp_path / "mut.ttl"
    mut.write_text("\n".join(out))
    viol = validate_ttl(str(mut),
                        "/root/reference/data/shark_shapes.ttl").to_pandas()
    assert len(viol) >= 1
    assert (viol["property_path"] ==
            "http://www.w3.org/2000/01/rdf-schema#comment").any()


@needs_fixture(REF_SHARK)
@needs_fixture(REF_ONTOLOGY)
def test_unique_lang_over_triples(tmp_path):
    # shark shapes declare sh:uniqueLang true on rdfs:label/comment —
    # evaluated over the TRIPLES table (multi-valued lang-tagged literals)
    from xpshacl_ray.sources.ttl import long_form_property_shapes

    sh, _ = load_turtle(REF_SHARK)
    # the shark ClassShape declares targetClass owl:Class AND
    # targetSubjectsOf rdfs:subClassOf → its target key is the UNION
    assert any(
        p == "http://www.w3.org/2000/01/rdf-schema#label"
        and "http://www.w3.org/2002/07/owl#Class" in t
        and facets.get("unique_lang")
        for t, _, p, facets in long_form_property_shapes(sh))

    def unique_lang_rows(data_path):
        viol = validate_ttl(data_path, REF_SHARK, long_form=True).to_pandas()
        return viol[viol["constraint_id"].str.endswith(
            "UniqueLangConstraintComponent")]

    # the reference ontology itself conforms (one label per lang)
    assert len(unique_lang_rows(REF_ONTOLOGY)) == 0

    # a class with TWO @en labels is caught
    bad = tmp_path / "bad.ttl"
    bad.write_text("""@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Thing a owl:Class ;
    rdfs:label "Thing"@en , "Thingy"@en , "Ding"@de ;
    rdfs:comment "A thing."@en .
""")
    rows = unique_lang_rows(str(bad))
    assert len(rows) == 1
    assert "http://example.org/Thing" in rows["focus_node"].iloc[0]


@pytest.mark.parametrize("labels, shared", [
    ('"x"@en , "y"@en , "z"@de', ["en"]),
    ('"x"@en , "y"@de', []),
    ('"x" , "y"', []),
])
def test_unique_lang_on_turtle_counts_tagged_values_only(tmp_path, labels,
                                                         shared):
    """sh:uniqueLang on a targeted property shape: one violation per
    (focus, language tag) that two values share; untagged values carry
    no tag, so they never share one (SHACL 4.4.3)."""
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .

ex:S a sh:NodeShape ;
  sh:targetClass ex:C ;
  sh:property [ sh:path rdfs:label ; sh:uniqueLang true ] ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
""")
    data = tmp_path / "data.ttl"
    data.write_text(f"""
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .

ex:a a ex:C ; rdfs:label {labels} .
""")
    viol = validate_ttl(str(data), str(shapes), long_form=True).to_pandas()
    ul = viol[viol["constraint_id"] == SH + "UniqueLangConstraintComponent"]
    assert sorted(ul["focus_node"]) == [f"group:{EX}a/{t}" for t in shared]
    assert (ul["property_path"] ==
            "http://www.w3.org/2000/01/rdf-schema#label").all()
    assert (ul["value"] == "2").all()
    assert (viol["constraint_id"] ==
            SH + "MinCountConstraintComponent").sum() == 1


@pytest.mark.parametrize("fixture, kwargs, executions, exchanges", [
    ("_ttl_shacl_full_fixture", dict(long_form=True), 1, 1),
    ("_ttl_paths_fixture", dict(long_form=True), 1, 1),
    ("_ttl_closed_fixture", dict(long_form=True), 1, 1),
    ("_ttl_node_recursive_fixture", dict(long_form=True), 1, 0),
    ("_ttl_auto_fixture", dict(sparql=True), 1, 1),
    ("_ttl_shark_fixture", dict(sparql=True), 7, 7),
    ("_ttl_shark_fixture", dict(sparql=True, long_form=True), 7, 7),
])
def test_validate_ttl_checks_every_table_in_one_scan(
        tmp_path, monkeypatch, fixture, kwargs, executions, exchanges):
    """Every table of a Turtle validate is one part of one scan, so the
    call and the read of its result start one Ray Data execution and at
    most one exchange.  On the shark fixture the anti-join plans add
    their own: the sibling anti-join's three chained exchanges and one
    per node-isolation check (6 executions, 6 exchanges)."""
    import __ray_entry__ as entry
    from test_validate import _counting_executions
    from xpshacl_ray.stages import grouped

    data, shapes, _ = getattr(entry, fixture)()
    (tmp_path / "data.ttl").write_text(data)
    (tmp_path / "shapes.ttl").write_text(shapes)
    calls = []
    exchange = grouped._exchange

    def counting_exchange(*args):
        calls.append(1)
        return exchange(*args)

    monkeypatch.setattr(grouped, "_exchange", counting_exchange)
    starts = _counting_executions(monkeypatch)
    viol = validate_ttl(str(tmp_path / "data.ttl"),
                        str(tmp_path / "shapes.ttl"), **kwargs)
    assert len(viol.to_pandas()) > 0
    assert (len(starts), len(calls)) == (executions, exchanges)
