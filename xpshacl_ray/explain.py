"""Explanation generation + violation-KG cache (SURVEY.md §2.5/§2.7).

The reference calls an LLM per (signature, language) and caches results in
an rdflib KG saved once per run (``src/explanation_generator.py``,
``src/violation_kg.py``).  Public-only engine equivalent:

- **Deterministic template NLG** replaces the LLM (ST3): same interface, so
  an LLM client could be dropped in; errors are returned IN-BAND as
  ``"Error generating explanation in {lang}: {e}"`` exactly like the
  reference (explanation_generator.py:93-95, pinned by
  tests/test_explanation_generator.py:130-159).
- Suggestions are joined with the ``"\\n\\n"`` separator that round-trips
  through the KG (explanation_generator.py:104; violation_kg.py:152).
- **ViolationKnowledgeGraph** becomes a signature-keyed Parquet table; one
  record per (signature, language) carries the same 9 payload fields the
  reference's 9-triple ledger stores (violation_kg.py:208-284, pinned by
  tests/test_violation_kg.py:44-62).
- **ExplainerActor** is the explain stage (ST2): the cache Parquet is
  loaded into a dict once in ``__init__``; per table of unique signatures
  it probes the cache and generates misses.  ``ValidationEngine.run``
  builds one instance on the driver and calls it in process.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

from .model import ViolationType, signature_uri

SUGGESTION_SEPARATOR = "\n\n"
DEFAULT_MODEL = "template-nlg-v1"

#: 9 payload fields per cache record — parity with the reference's
#: 9-triple-per-add KG ledger (tests/test_violation_kg.py:44-62).
KG_FIELDS = [
    "signature_uri",
    "constraint_id",
    "property_path",
    "violation_type",
    "constraint_params",
    "language",
    "explanation",
    "suggestions",
    "model",
]

KG_SCHEMA = pa.schema(
    [("signature_key", pa.string())] + [(f, pa.string()) for f in KG_FIELDS]
)

_EXPLANATION_TEMPLATES = {
    ViolationType.CARDINALITY.value: (
        "The property {path} does not appear the required number of times: the "
        "shape restricts how many values this property may have, and the data "
        "provides a count outside that range."
    ),
    ViolationType.VALUE_TYPE.value: (
        "A value of the property {path} has the wrong type: the shape requires "
        "a specific datatype or class membership which the provided value does "
        "not satisfy."
    ),
    ViolationType.VALUE_RANGE.value: (
        "A value of the property {path} falls outside the allowed range: the "
        "shape restricts this property to values within specific bounds."
    ),
    ViolationType.PATTERN.value: (
        "A value of the property {path} does not match the required pattern: "
        "the shape constrains the lexical form of this property's values."
    ),
    ViolationType.PROPERTY_PAIR.value: (
        "The value of the property {path} does not stand in the required "
        "relation to its paired property as mandated by the shape."
    ),
    ViolationType.LOGICAL.value: (
        "The node does not satisfy the logical combination of shapes declared "
        "for {path}: the required conjunction, disjunction, negation or "
        "exclusive choice is not met."
    ),
    ViolationType.OTHER.value: (
        "A value of the property {path} violates a constraint declared by the "
        "shape."
    ),
}

_SUGGESTION_TEMPLATES = {
    ViolationType.CARDINALITY.value: [
        "Add or remove values of the property {path} so the count falls within "
        "the range the shape allows.",
        "Alternatively, relax the minCount/maxCount declared in the shape if "
        "the data is correct.",
    ],
    ViolationType.VALUE_TYPE.value: [
        "Convert the value of the property {path} to the required datatype or "
        "link it to an instance of the required class.",
        "Alternatively, change the shape's datatype/class restriction if the "
        "data is correct.",
    ],
    ViolationType.VALUE_RANGE.value: [
        "Change the value of the property {path} to one inside the allowed "
        "bounds.",
        "Alternatively, widen the minimum/maximum restriction in the shape if "
        "the data is correct.",
    ],
    ViolationType.PATTERN.value: [
        "Rewrite the value of the property {path} so it matches the required "
        "pattern.",
        "Alternatively, adjust the shape's pattern (or flags) if the data is "
        "correct.",
    ],
    ViolationType.PROPERTY_PAIR.value: [
        "Adjust the value of the property {path} (or its paired property) so "
        "the required relation holds.",
        "Alternatively, drop or change the property-pair restriction in the "
        "shape if the data is correct.",
    ],
    ViolationType.LOGICAL.value: [
        "Modify the node so it satisfies the required combination of shapes "
        "for {path}.",
        "Alternatively, restructure the logical constraint (and/or/not/xone) "
        "in the shape if the data is correct.",
    ],
    ViolationType.OTHER.value: [
        "Review the value of the property {path} against the shape's custom "
        "constraint and correct it.",
        "Alternatively, revise the custom constraint if the data is correct.",
    ],
}


class TemplateExplanationGenerator:
    """Deterministic NLG with the reference generator's interface (ST3).

    ``generate_explanation_output(violation_row, languages)`` returns
    ``{lang: (explanation, suggestions)}`` like the reference's
    ``generate_explanation_output`` (explanation_generator.py:136-163).
    Non-English output is the English text tagged with the language code —
    deterministic and testable without a model; the interface stays
    pluggable for a real LLM backend.
    """

    def __init__(self, model_name: str = DEFAULT_MODEL):
        self.model_name = model_name

    def _render(self, templates: Dict[str, Any], violation: Dict[str, Any],
                lang: str) -> str:
        vtype = violation.get("violation_type") or ViolationType.OTHER.value
        path = violation.get("property_path") or "the node"
        tpl = templates.get(vtype, templates[ViolationType.OTHER.value])
        if isinstance(tpl, list):
            lines = [t.format(path=path) for t in tpl]
            text = SUGGESTION_SEPARATOR.join(lines)
        else:
            text = tpl.format(path=path)
        if lang != "en":
            text = f"[{lang}] {text}"
        return text

    def generate_explanation_text(self, violation: Dict[str, Any],
                                  language: str = "en") -> str:
        try:
            return self._render(_EXPLANATION_TEMPLATES, violation, language)
        except Exception as e:  # error-in-band, like the reference (:93-95)
            return f"Error generating explanation in {language}: {e}"

    def generate_correction_suggestions(self, violation: Dict[str, Any],
                                        language: str = "en") -> str:
        try:
            return self._render(_SUGGESTION_TEMPLATES, violation, language)
        except Exception as e:
            return f"Error generating correction suggestions in {language}: {e}"

    def generate_explanation_output(
        self, violation: Dict[str, Any], languages: Sequence[str] = ("en",)
    ) -> Dict[str, Tuple[str, str]]:
        return {
            lang: (
                self.generate_explanation_text(violation, lang),
                self.generate_correction_suggestions(violation, lang),
            )
            for lang in languages
        }


class LLMExplanationGenerator:
    """Pluggable LLM backend with the reference's interface (ST3/N4).

    The reference switches OpenAI-compatible base URLs by model name
    (explanation_generator.py:52-68) and runs a local variant (:213-275).
    This sandbox has no network, so the client is import/env-gated: without
    ``XPSHACL_LLM_BASE_URL``/``XPSHACL_LLM_API_KEY`` (or a reachable
    endpoint) every call returns the reference's in-band error string
    ``"Error generating explanation in {lang}: {e}"``
    (explanation_generator.py:93-95) — same interface as
    :class:`TemplateExplanationGenerator`, so either drops into
    :class:`ExplainerActor`.
    """

    def __init__(self, model_name: str = "gpt-4o-mini",
                 base_url: Optional[str] = None,
                 api_key: Optional[str] = None):
        self.model_name = model_name
        self.base_url = base_url or os.environ.get("XPSHACL_LLM_BASE_URL")
        self.api_key = api_key or os.environ.get("XPSHACL_LLM_API_KEY")

    def _chat(self, prompt: str) -> str:
        if not self.base_url:
            raise RuntimeError("no LLM endpoint configured "
                               "(XPSHACL_LLM_BASE_URL unset)")
        import json as _json
        import urllib.request

        req = urllib.request.Request(
            f"{self.base_url.rstrip('/')}/chat/completions",
            data=_json.dumps({
                "model": self.model_name,
                "messages": [{"role": "user", "content": prompt}],
            }).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "Authorization": f"Bearer {self.api_key or ''}"},
        )
        with urllib.request.urlopen(req, timeout=60) as r:
            out = _json.loads(r.read())
        return out["choices"][0]["message"]["content"].strip()

    def generate_explanation_text(self, violation: Dict[str, Any],
                                  language: str = "en") -> str:
        prompt = (
            f"Explain the following SHACL violation in {language} "
            f"(ISO 639-1 code): {violation.get('message') or 'Unknown violation'}."
        )
        try:
            return self._chat(prompt)
        except Exception as e:  # error-in-band (explanation_generator.py:93-95)
            return f"Error generating explanation in {language}: {e}"

    def generate_correction_suggestions(self, violation: Dict[str, Any],
                                        language: str = "en") -> str:
        prompt = (
            f"Provide possible correction suggestions for this violation in "
            f"{language}: {violation.get('message') or 'Unknown violation'}."
        )
        try:
            text = self._chat(prompt)
            lines = [s.strip() for s in text.split("\n") if s.strip()]
            if not lines:
                return "No suggestions generated."
            return SUGGESTION_SEPARATOR.join(lines)
        except Exception as e:
            return f"Error generating correction suggestions in {language}: {e}"

    def generate_explanation_output(
        self, violation: Dict[str, Any], languages: Sequence[str] = ("en",)
    ) -> Dict[str, Tuple[str, str]]:
        return {
            lang: (
                self.generate_explanation_text(violation, lang),
                self.generate_correction_suggestions(violation, lang),
            )
            for lang in languages
        }


class ViolationKnowledgeGraph:
    """Signature-keyed explanation cache persisted as Parquet (S4/S5/G4-G7).

    Mirrors the reference KG's operations: ``has_violation`` /
    ``get_explanation`` / ``add_violation`` keyed by (signature, language),
    idempotent re-adds, model overwrite on refresh, loaded once, saved once
    per run (violation_kg.py:37-284).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._cache: Dict[Tuple[str, str], Dict[str, str]] = {}
        if path and os.path.exists(path):
            self.load(path)

    def load(self, path: str) -> None:
        files = []
        if os.path.isdir(path):
            for root, _, names in os.walk(path):
                files += [os.path.join(root, n) for n in names
                          if n.endswith(".parquet")]
        elif os.path.exists(path):
            files = [path]
        for f in files:
            t = pq.read_table(f)
            for r in t.to_pylist():
                self._cache[(r["signature_key"], r["language"])] = r

    def __len__(self) -> int:
        return len(self._cache)

    def has_violation(self, sig_key: str, language: str = "en") -> bool:
        return (sig_key, language) in self._cache

    def get_explanation(self, sig_key: str,
                        language: str = "en") -> Optional[Dict[str, str]]:
        return self._cache.get((sig_key, language))

    def add_violation(
        self,
        sig_key: str,
        violation: Dict[str, Any],
        explanation: str,
        suggestions: str,
        language: str = "en",
        model: str = DEFAULT_MODEL,
    ) -> None:
        key = (sig_key, language)
        existing = self._cache.get(key)
        if existing is not None:
            # idempotent re-add; only the model name refreshes
            # (violation_kg.py:240-267: dedup guards + model overwrite)
            existing["model"] = model
            return
        self._cache[key] = {
            "signature_key": sig_key,
            "signature_uri": signature_uri(violation.get("signature", "")),
            "constraint_id": violation.get("constraint_id", ""),
            "property_path": violation.get("property_path") or "None",
            "violation_type": violation.get("violation_type", ""),
            "constraint_params": violation.get("context") or "{}",
            "language": language,
            "explanation": explanation,
            "suggestions": suggestions,
            "model": model,
        }

    def to_table(self) -> pa.Table:
        rows = sorted(self._cache.values(),
                      key=lambda r: (r["signature_key"], r["language"]))
        if not rows:
            return KG_SCHEMA.empty_table()
        return pa.Table.from_pylist(rows, schema=KG_SCHEMA)

    def save(self, path: Optional[str] = None) -> str:
        """Single final write per run (violation_kg.py:59-66; main.py:213-216)."""
        path = path or self.path
        assert path, "no KG path configured"
        if os.path.isdir(path) or path.endswith("/"):
            os.makedirs(path, exist_ok=True)
            path = os.path.join(path, "kg.parquet")
        else:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pq.write_table(self.to_table(), path)
        return path


class ExplainerActor:
    """Explain stage: per-(signature, lang) cache probe + template NLG.

    ``__init__`` loads the KG cache Parquet into a dict once; ``__call__``
    (per table of UNIQUE-signature rows) emits explanation rows with a
    ``cache_hit`` flag — the per-signature-once semantics of the
    reference's main loop (main.py:159-211) — and adds every miss to
    ``self.kg``.  The signature table is small, so ``ValidationEngine.run``
    calls one instance in the driver process; ``ValidationEngine.explain``
    ships a driver-built instance to Ray tasks instead.
    """

    def __init__(self, kg_path: Optional[str] = None,
                 languages: Sequence[str] = ("en",),
                 model_name: str = DEFAULT_MODEL):
        self.kg = ViolationKnowledgeGraph(kg_path)
        self.generator = TemplateExplanationGenerator(model_name)
        self.languages = list(languages)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: List[Dict[str, str]] = []
        for row in batch.to_pylist():
            sig_key = row["signature_key"]
            for lang in self.languages:
                cached = self.kg.get_explanation(sig_key, lang)
                if cached is not None:
                    rec = dict(cached)
                    rec["cache_hit"] = "true"
                else:
                    expl = self.generator.generate_explanation_text(row, lang)
                    sugg = self.generator.generate_correction_suggestions(row, lang)
                    self.kg.add_violation(sig_key, row, expl, sugg, lang,
                                          self.generator.model_name)
                    rec = dict(self.kg.get_explanation(sig_key, lang))
                    rec["cache_hit"] = "false"
                out.append(rec)
        schema = pa.schema(
            list(KG_SCHEMA) + [pa.field("cache_hit", pa.string())]
        )
        if not out:
            return schema.empty_table()
        return pa.Table.from_pylist(out, schema=schema)


def merge_kg_updates(existing: ViolationKnowledgeGraph,
                     new_rows: pa.Table) -> ViolationKnowledgeGraph:
    """Idempotent union of freshly generated explanations into a KG (G5).

    First writer wins per (signature, language) — matching the reference's
    JSON-blobs-only-on-first-insert semantics (violation_kg.py:269-284).
    """
    for r in new_rows.to_pylist():
        key = (r["signature_key"], r["language"])
        if key not in existing._cache:
            existing._cache[key] = {f: r[f] for f in ["signature_key"] + KG_FIELDS}
    return existing
