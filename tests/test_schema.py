import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie.catalog import g41, module_for_tag, run_catalog
from metriclie.cli import assemble_cocycle, main
from metriclie.cochain_complex import OrthogonalModule
from metriclie.double_construction import MetricLieAlgebra
from metriclie.schema import (
    SchemaError,
    algebra_to_payload,
    cochains_to_payload,
    cocycle_context,
    cocycle_to_payload,
    dumps_document,
    format_scalar,
    loads_document,
    metric_to_payload,
    module_to_payload,
    parse_algebra_payload,
    parse_cochains,
    parse_document,
    parse_module_payload,
    parse_scalar,
    wrap,
)

from support import dense_brackets, dense_grid, dense_values, scale_doubles

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "metriclie" / "data"


def build_and_emit(kind, parsed) -> dict:
    """Canonical document for a parsed value: build the objects, then emit them."""
    if kind == "lie_algebra":
        return wrap(kind, algebra_to_payload(parsed))
    if kind == "module":
        return wrap(kind, module_to_payload(OrthogonalModule(parsed)))
    if kind == "cocycle" and cocycle_context(parsed) == (None, None):
        # context-free forms: dimensions come from the largest index and the
        # value length
        terms = parsed["alpha"] + parsed["gamma"]
        n = max(term[name] for term in terms for name in "ijk" if name in term)
        m = len(parsed["alpha"][0]["value"]) if parsed["alpha"] else 0
        return wrap(kind, cochains_to_payload(*parse_cochains(parsed, n, m)))
    if kind == "cocycle":
        return wrap(kind, cocycle_to_payload(assemble_cocycle(parsed, None, None)))
    provenance = None
    if parsed.provenance is not None:
        provenance = assemble_cocycle(parsed.provenance, None, None)
    return wrap(kind, metric_to_payload(MetricLieAlgebra(parsed.algebra, parsed.gram, provenance)))


def test_scalar_formats():
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(-1, 2)) == "-1/2"
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar(5) == Fraction(5)


@pytest.mark.parametrize(
    "bad", ["0.5", "1.0", " 1", "+3", "1/2/3", "1/0", "", "a", 0.5, True, None, [1]]
)
def test_scalar_rejects_inexact_and_malformed(bad):
    with pytest.raises(SchemaError):
        parse_scalar(bad)


@pytest.mark.parametrize("token", ["3\n", "1/2\n", "3 ", "\u0663", "1/\u0662", "\uff13"])
def test_a_scalar_with_trailing_whitespace_is_rejected_at_its_position(token, tmp_path, capsys):
    """The whole string must be ``p`` or ``p/q`` in ASCII digits: a final
    newline is not read past, as ``$`` alone would allow, and an Arabic-Indic
    or fullwidth digit, which ``\\d`` and ``int()`` would read, is refused."""
    with pytest.raises(SchemaError, match=r"^cocycle\.gamma\[0\]\.value: "):
        parse_scalar(token, "cocycle.gamma[0].value")
    brackets = [{"i": 1, "j": 2, "value": ["0", token]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(wrap("lie_algebra", {"dim": 2, "brackets": brackets})))
    assert main(["verify", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "report" and report["payload"]["ok"] is False
    assert report["payload"]["error"].startswith("lie_algebra.brackets[0].value[1]: ")


def test_algebra_payload_round_trip():
    payload = algebra_to_payload(g41())
    parsed = parse_algebra_payload(payload)
    assert parsed == g41()
    assert payload["brackets"][0] == {"i": 1, "j": 2, "value": ["0", "0", "1", "0"]}


def test_algebra_payload_swaps_reversed_brackets():
    payload = {
        "dim": 3,
        "labels": ["X1", "X2", "Y"],
        "brackets": [{"i": 2, "j": 1, "value": ["0", "0", "1"]}],
    }
    parsed = parse_algebra_payload(payload)
    assert parsed.row(0)[1] == {2: -1}


def test_algebra_payload_rejects_conflicting_orders():
    payload = {
        "dim": 3,
        "labels": ["X1", "X2", "Y"],
        "brackets": [
            {"i": 1, "j": 2, "value": ["0", "0", "1"]},
            {"i": 2, "j": 1, "value": ["0", "0", "-1"]},
        ],
    }
    with pytest.raises(SchemaError):
        parse_algebra_payload(payload)


def test_algebra_payload_rejects_bad_indices():
    base = {"dim": 2, "labels": ["X1", "X2"]}
    for brackets in (
        [{"i": 1, "j": 1, "value": ["0", "0"]}],
        [{"i": 0, "j": 1, "value": ["0", "0"]}],
        [{"i": 1, "j": 3, "value": ["0", "0"]}],
        [{"i": 1, "j": 2, "value": ["0"]}],
    ):
        with pytest.raises(SchemaError):
            parse_algebra_payload({**base, "brackets": brackets})


def test_module_payload_distinguishes_shape_from_math():
    ragged = {"dim": 2, "gram": [["1", "0"], ["0"]]}
    with pytest.raises(SchemaError):
        parse_module_payload(ragged)
    lopsided = {"dim": 2, "gram": [["1", "2"], ["3", "4"]]}
    gram = parse_module_payload(lopsided)  # shape is fine
    with pytest.raises(ValueError):
        OrthogonalModule(gram)  # the gram matrix is not symmetric


def test_cocycle_payload_context_and_assembly():
    from metriclie.catalog import g64_admissible_cocycle

    z = g64_admissible_cocycle()
    doc = wrap("cocycle", cocycle_to_payload(z))
    kind, payload = parse_document(doc)
    assert kind == "cocycle"
    algebra, gram = cocycle_context(payload)
    assert algebra == z.algebra and gram == z.module.gram
    alpha, gamma = parse_cochains(payload, algebra.dim, gram.rows)
    assert alpha == z.alpha and gamma == z.gamma
    rebuilt = assemble_cocycle(payload, None, None)
    assert rebuilt == z


def test_assemble_rejects_out_of_range_terms():
    n, m = g41().dim, module_for_tag("r01").dim
    cases = [
        ({"alpha": [{"i": 1, "j": 9, "value": ["1"]}], "gamma": []},
         "cocycle.alpha[0].j: index 9 out of range 1..4"),
        ({"alpha": [{"i": 1, "j": 2, "value": ["1", "1"]}], "gamma": []},
         "cocycle.alpha[0].value: expected 1 entries, got 2"),
        ({"alpha": [], "gamma": [{"i": 1, "j": 2, "k": 0, "value": "1"}]},
         "cocycle.gamma[0].k: index 0 out of range 1..4"),
        ({"alpha": [], "gamma": [{"i": 1, "j": 2, "k": 3, "value": ["1"]}]},
         "cocycle.gamma[0].value: expected a rational string, got list"),
        ({"alpha": [{"i": 2, "j": 2, "value": ["1"]}], "gamma": []},
         "cocycle.alpha[0]: repeated index in (2, 2)"),
    ]
    for payload, message in cases:
        with pytest.raises(SchemaError) as caught:
            parse_cochains(payload, n, m)
        assert str(caught.value) == message


def test_a_term_given_twice_in_any_order_is_rejected():
    alpha = [{"i": 1, "j": 3, "value": ["1"]}, {"i": 3, "j": 1, "value": ["-1"]}]
    with pytest.raises(SchemaError) as caught:
        parse_cochains({"alpha": alpha, "gamma": []}, 4, 1)
    assert str(caught.value) == (
        "cocycle.alpha[1]: duplicate term for (1, 3), first given at cocycle.alpha[0]"
    )
    gamma = [
        {"i": 1, "j": 2, "k": 4, "value": "1"},
        {"i": 2, "j": 3, "k": 4, "value": "1"},
        {"i": 4, "j": 1, "k": 2, "value": "-1"},
    ]
    with pytest.raises(SchemaError) as caught:
        parse_cochains({"alpha": [], "gamma": gamma}, 4, 1, "here")
    assert str(caught.value) == "here.gamma[2]: duplicate term for (1, 2, 4), first given at here.gamma[0]"
    # a term in its own order, once, is read with the sign of the permutation
    alpha, gamma = parse_cochains({"alpha": alpha[1:], "gamma": gamma[2:]}, 4, 1)
    assert alpha.values == {(0, 2): (Fraction(1),)}
    assert gamma.values == {(0, 1, 3): (Fraction(-1),)}


def test_document_envelope_errors():
    with pytest.raises(SchemaError):
        parse_document(["not", "an", "object"])
    with pytest.raises(SchemaError):
        parse_document({"kind": "lie_algebra"})
    with pytest.raises(SchemaError):
        parse_document({"kind": "polynomial", "payload": {}})
    with pytest.raises(SchemaError):
        parse_document({"kind": "report", "payload": {}})
    with pytest.raises(SchemaError):
        parse_document({"kind": "lie_algebra", "payload": {}, "extra": 1})
    with pytest.raises(SchemaError):
        loads_document("{ not json")


def test_metric_document_round_trip_in_memory():
    from metriclie.catalog import entry_by_id, instantiate
    from metriclie.double_construction import build_double

    g = build_double(instantiate(entry_by_id("T1.8.r01")))
    doc = wrap("metric_lie_algebra", metric_to_payload(g))
    kind, parsed = parse_document(doc)
    assert kind == "metric_lie_algebra"
    assert parsed.algebra == g.algebra
    assert parsed.gram == g.gram
    assert parsed.provenance is not None
    assert build_and_emit(kind, parsed) == doc


def shipped_documents():
    for path in sorted(DATA.rglob("*.json")):
        yield path


def test_the_files_are_written_from_the_stored_rows():
    """Every list the serializer writes for the catalog and scale doubles
    equals the one formatted from the dense reference views: the brackets
    of the double and of its base, alpha, gamma and both Gram forms."""
    def terms(dense, fields):
        return [{**{f: k + 1 for f, k in zip(fields, key)}, "value": [format_scalar(c) for c in v]}
                for key, v in sorted(dense.items())]

    def grid(m):
        return [[format_scalar(x) for x in row] for row in dense_grid(m)]

    doubles = [g for g in run_catalog().doubles if g is not None] + list(scale_doubles().values())
    for g in doubles:
        payload, z = metric_to_payload(g), g.provenance
        cocycle = payload["provenance"]
        assert payload["algebra"]["brackets"] == terms(dense_brackets(g.algebra), "ij")
        assert cocycle["algebra"]["brackets"] == terms(dense_brackets(z.algebra), "ij")
        assert cocycle["alpha"] == terms(dense_values(z.alpha), "ij")
        gamma = terms(dense_values(z.gamma), "ijk")
        assert cocycle["gamma"] == [{**t, "value": t["value"][0]} for t in gamma]
        assert payload["gram"] == grid(g.gram) and cocycle["module"]["gram"] == grid(z.module.gram)
    assert any(g.provenance.gamma.rows and g.provenance.alpha.rows for g in doubles)


def test_data_tree_is_present():
    names = {p.relative_to(DATA).as_posix() for p in shipped_documents()}
    assert "algebras/g64.json" in names
    assert "cocycles/g64_quad.json" in names
    assert "forms/gamma0.json" in names
    assert len(names) > 100


def test_round_trip_every_shipped_fixture():
    checked = 0
    for path in shipped_documents():
        text = path.read_text()
        if path.name == "index.json":
            # the catalog index is a manifest, not a schema document
            assert "kind" not in json.loads(text)
            continue
        kind, parsed = loads_document(text)
        assert dumps_document(build_and_emit(kind, parsed)) == text, path
        checked += 1
    assert checked >= 100


def test_fixture_generator_reproduces_data_tree(tmp_path):
    # The generator deletes and rewrites its own data directory, so it runs
    # on a copy of the script and the package.
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "generate_fixtures.py", tmp_path / "scripts")
    shutil.copytree(
        ROOT / "src" / "metriclie",
        tmp_path / "src" / "metriclie",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "generate_fixtures.py")],
        check=True,
        capture_output=True,
        timeout=120,
    )
    regenerated = tmp_path / "src" / "metriclie" / "data"

    def tree(root):
        files = sorted(p for p in root.rglob("*") if p.is_file())
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in files}

    assert tree(regenerated) == tree(DATA)
