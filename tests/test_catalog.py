from collections import Counter
from fractions import Fraction

import pytest

from metriclie import lie_core
from metriclie.catalog import (
    ENTRIES,
    CatalogEntry,
    base_algebra,
    default_samples,
    entries_for_item,
    entry_by_id,
    instantiate,
    module_for_tag,
    run_catalog,
)
from metriclie.exact_linalg import signature_of
from metriclie.quadratic_cohomology import QuadraticCocycle

EXPECTED_ITEM_COUNTS = {
    "1": 1,
    "2": 2,
    "3a": 8,
    "3b": 4,
    "3c": 4,
    "4a": 10,
    "4b": 11,
    "4c": 2,
    "5a": 4,
    "5b": 4,
    "5c": 2,
    "6a": 2,
    "6b": 3,
    "7a": 1,
    "7b": 3,
    "7c": 4,
    "8": 2,
}


def test_entry_census():
    assert len(ENTRIES) == 67
    assert len({e.id for e in ENTRIES}) == 67
    assert Counter(e.item for e in ENTRIES) == Counter(EXPECTED_ITEM_COUNTS)


def test_entries_for_item_matches_census():
    for item, count in EXPECTED_ITEM_COUNTS.items():
        got = entries_for_item(item)
        assert len(got) == count
        assert all(e.item == item for e in got)


def test_item_4b_splits_between_witt_and_swapped_orthonormal():
    tags = Counter(e.module_tag for e in entries_for_item("4b"))
    assert tags == {"r11w": 3, "r11s": 8}


def test_module_tags_resolve():
    expected_signatures = {
        "r01": (0, 1),
        "r10": (1, 0),
        "r02": (0, 2),
        "r20": (2, 0),
        "r11": (1, 1),
        "r11s": (1, 1),
        "r11w": (1, 1),
        "r03": (0, 3),
        "r30": (3, 0),
        "r12": (1, 2),
        "r21": (2, 1),
        "r22w": (2, 2),
    }
    for tag, (neg, pos) in expected_signatures.items():
        module = module_for_tag(tag)
        sig = signature_of(module.gram)
        assert (sig.neg, sig.pos, sig.null) == (neg, pos, 0), tag
    with pytest.raises(KeyError):
        module_for_tag("r99")


def test_entry_lookup_and_description():
    entry = entry_by_id("T1.3b.r02.s")
    assert isinstance(entry, CatalogEntry)
    assert (entry.id, entry.module_tag, entry.params) == ("T1.3b.r02.s", "r02", ("s",))
    with pytest.raises(KeyError):
        entry_by_id("T1.9.z")


def test_instantiate_returns_validated_cocycle():
    z = instantiate(entry_by_id("T1.2.a"))
    assert isinstance(z, QuadraticCocycle)
    z = instantiate(entry_by_id("T1.3b.r02.s"), {"s": Fraction(-7, 3)})
    assert isinstance(z, QuadraticCocycle)


def test_instantiate_enforces_parameter_domains():
    scale = entry_by_id("T1.3b.r02.r")
    assert instantiate(scale, {"r": Fraction(5, 2)}) is not None
    for bad in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError):
            instantiate(scale, {"r": bad})
    with pytest.raises(ValueError):
        instantiate(scale, {})
    with pytest.raises(ValueError):
        instantiate(scale, {"r": Fraction(1), "s": Fraction(1)})
    with pytest.raises(ValueError):
        instantiate(entry_by_id("T1.2.a"), {"s": Fraction(1)})


def test_default_samples_cover_spec_grid():
    samples = default_samples()
    assert samples["s"] == tuple(
        Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2")
    )
    assert samples["r"] == tuple(Fraction(v) for v in ("1/2", "1", "2"))
    assert all(v > 0 for v in samples["r"])


def test_run_catalog_subset_report():
    entries = entries_for_item("8") + entries_for_item("1")
    report = run_catalog(entries=entries)
    assert report.all_ok
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.ok
        assert row.cocycle_valid and row.admissible and row.double_built
        assert row.error is None
        assert row.fingerprint.signature.null == 0
    by_entry = [row for row in report.rows if row.entry_id == "T1.8.r01"]
    assert len(by_entry) == 1 and by_entry[0].entry_id == "T1.8.r01"


def test_run_catalog_parameterized_entry_uses_all_samples():
    report = run_catalog(entries=[entry_by_id("T1.3b.r02.s")])
    assert len(report.rows) == 6
    assert {row.params for row in report.rows} == {
        (("s", Fraction(v)),) for v in ("-2", "-1", "-1/2", "1/2", "1", "2")
    }
    report = run_catalog(entries=[entry_by_id("T1.3b.r02.r")])
    assert len(report.rows) == 3


def test_catalog_bases_are_small_and_nilpotent():
    from metriclie.lie_core import is_nilpotent

    for entry in ENTRIES:
        z = instantiate(
            entry, {name: Fraction(1) for name in entry.params}
        )
        assert z.algebra.dim <= 5
        assert is_nilpotent(z.algebra)
        assert 2 * z.algebra.dim + z.module.dim <= 10


def test_catalog_row_builds_each_series_once_and_no_center(monkeypatch):
    base_algebra.cache_clear()
    built = {"series": [], "center": []}

    def counting(kind, original):
        def wrapper(l):
            built[kind].append(l)
            return original(l)

        return wrapper

    monkeypatch.setattr(
        lie_core, "_lower_central_series", counting("series", lie_core._lower_central_series)
    )
    monkeypatch.setattr(lie_core, "center", counting("center", lie_core.center))
    entries = [entry_by_id("T1.3a.r01.g1"), entry_by_id("T1.3a.r01.g2")]
    report = run_catalog(entries=entries)
    assert report.all_ok and len(report.doubles) == 2
    base = base_algebra("g41")
    assert all(instantiate(entry).algebra is base for entry in entries)
    doubles = [double.algebra for double in report.doubles]
    # the series of the shared base once, then of each double once
    assert built["series"] == [base, *doubles]
    # the admissibility stages need no center, and a fingerprint reads the
    # center of a double off its form as the orthogonal complement of l^2
    assert built["center"] == []
