"""CLI `validate` subcommand end-to-end (the ray-job-submit surface)."""

import pytest

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from xpshacl_ray.cli import main
from xpshacl_ray.sources.fixtures import generate_code_files


def _fixture(tmp_path, n=400):
    fx = generate_code_files(n, seed=7)
    code = str(tmp_path / "code.parquet")
    commits = str(tmp_path / "commits.parquet")
    pq.write_table(fx.table, code)
    pq.write_table(fx.commits, commits)
    return code, commits


@pytest.mark.slow
def test_cli_validate_full_run(tmp_path, capsys):
    code, commits = _fixture(tmp_path)
    out = str(tmp_path / "out")
    rc = main(["validate", "--input", code, "--commits", commits,
               "--out", out, "--languages", "en", "--stats"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["n_violations"] > 0
    assert summary["n_signatures"] > 0
    assert os.path.exists(summary["kg_path"])
    assert os.path.exists(summary["stats_path"])
    assert os.path.isdir(os.path.join(out, "report"))
    stats = pq.read_table(summary["stats_path"])
    assert stats.num_rows > 0 and "n_rows" in stats.column_names


@pytest.mark.slow
def test_cli_validate_resumable_skips_on_rerun(tmp_path, capsys):
    code, commits = _fixture(tmp_path)
    out = str(tmp_path / "out_resume")
    rc = main(["validate", "--input", code, "--commits", commits,
               "--out", out, "--resumable"])
    assert rc == 0
    s1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(s1["ran"]) == 1 and not s1["skipped"]
    rc = main(["validate", "--input", code, "--commits", commits,
               "--out", out, "--resumable"])
    assert rc == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not s2["ran"] and len(s2["skipped"]) == 1
    import ray.data

    viol = ray.data.read_parquet(s2["data_dir"])
    assert viol.count() > 0


def test_cli_resumable_reads_the_key_set_once(tmp_path, capsys,
                                              monkeypatch):
    """``--resumable`` computes the commits key set once for all shards,
    not once per shard, and every shard is still checked against it."""
    import pyarrow.compute as pc

    from xpshacl_ray.stages import referential

    fx = generate_code_files(300, seed=7)
    shards = tmp_path / "shards"
    shards.mkdir()
    repos = fx.table["repo"].unique().to_pylist()
    for i in range(3):
        part = fx.table.filter(pc.is_in(fx.table["repo"],
                                        pa.array(repos[i::3])))
        pq.write_table(part, str(shards / f"shard{i}.parquet"))
    commits = str(tmp_path / "commits.parquet")
    pq.write_table(fx.commits, commits)
    calls, distinct_keys = [], referential.distinct_keys

    def counting(ds, column):
        calls.append(column)
        return distinct_keys(ds, column)

    monkeypatch.setattr(referential, "distinct_keys", counting)
    out = str(tmp_path / "out")
    assert main(["validate", "--input", str(shards), "--commits", commits,
                 "--out", out, "--resumable"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(summary["ran"]) == 3 and calls == ["commit"]
    viol = pq.read_table(summary["data_dir"])
    assert pc.any(pc.ends_with(viol["constraint_id"],
                               "ClassConstraintComponent")).as_py()


@pytest.mark.slow
def test_cli_curate(tmp_path, capsys):
    out = str(tmp_path / "cur")
    rc = main(["curate", "--input", "/root/testdata/sf0.001/documents.parquet",
               "--out", out, "--min-quality", "0.5", "--langs", "en,de,fr"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["n_input"] == 500
    assert summary["n_after_exact_dedup"] <= summary["n_after_filter"]
    # attrition fully accounted
    assert (summary["n_input"] - summary["dropped_low_quality_or_lang"]
            == summary["n_after_filter"])
    curated = pq.read_table(os.path.join(out, "curated"))
    assert curated.num_rows == summary["n_after_near_dedup"]


def test_cli_validate_ttl_long_form_and_sparql_flags(tmp_path, capsys):
    d = tmp_path / "d.ttl"
    s = tmp_path / "s.ttl"
    d.write_text("""
@prefix ex: <http://example.org/> .
ex:r1 a ex:T ; ex:v 7 ; ex:w "a", "b" .
ex:r2 a ex:T ; ex:v 4 .
""")
    s.write_text("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:S a sh:NodeShape ; sh:targetClass ex:T ;
  sh:property [ sh:path ex:v ; sh:minCount 1 ] ;
  sh:property [ sh:path ex:w ; sh:maxCount 1 ] ;
  sh:PropertyConstraintComponent ex:H .
ex:H sh:path ex:v ; sh:sparql ex:C .
ex:C sh:message "must be even" ;
  sh:select "SELECT $this WHERE { FILTER ( ($this % 2) != 0 ) }" .
""")
    out = str(tmp_path / "ttlout")
    rc = main(["validate-ttl", "--data", str(d), "--shapes", str(s),
               "--out", out, "--long-form", "--sparql"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # r1: maxCount(w)=2 long-form + odd v sparql → 2; r2 conforms
    assert summary["n_violations"] == 2


@pytest.mark.slow
def test_cli_curate_jsonl_gz_without_lang_column(tmp_path, capsys):
    import gzip

    src = tmp_path / "corpus.jsonl.gz"
    docs = (["the quick brown fox jumps over the lazy dog it was a fine "
             "day for all of you that are in the field"] * 3
            + ["der die das und ist ich nicht ein zu es du wir heute"])
    with gzip.open(src, "wt") as f:
        f.write("\n".join(json.dumps({"body": t}) for t in docs))
    out = str(tmp_path / "cur")
    rc = main(["curate", "--input", str(src), "--text-col", "body",
               "--out", out, "--min-quality", "0.1", "--langs", "en"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["n_input"] == 4
    # the de doc drops on lang_pred; the 3 identical en docs dedup to 1
    assert summary["n_after_filter"] == 3
    assert summary["n_after_exact_dedup"] == 1
