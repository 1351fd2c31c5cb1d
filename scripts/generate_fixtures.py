"""Regenerate the JSON fixture library bundled with the package.

Writes canonical documents under src/metriclie/data/: the base algebras,
the coefficient modules, the standard 2-form and 3-form families, named
cocycles with embedded context, one instantiated row per catalog entry
(free parameters fixed at 1), and two prebuilt doubles.  Output is
deterministic; rerunning the script must reproduce the tree byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from metriclie import catalog as cat  # noqa: E402
from metriclie import schema  # noqa: E402
from metriclie.cochain_complex import Cochain  # noqa: E402
from metriclie.double_construction import build_double  # noqa: E402

DATA = ROOT / "src" / "metriclie" / "data"


def write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(schema.dumps_document(doc))


def main() -> None:
    if DATA.exists():
        shutil.rmtree(DATA)

    for name in sorted(cat.BASE_BUILDERS):
        algebra = cat.base_algebra(name)
        write(
            DATA / "algebras" / f"{name.lower()}.json",
            schema.wrap("lie_algebra", schema.algebra_to_payload(algebra)),
        )

    for tag in sorted(cat.MODULE_BUILDERS):
        if tag == "none":
            continue
        module = cat.module_for_tag(tag)
        write(
            DATA / "modules" / f"{tag}.json",
            schema.wrap("module", schema.module_to_payload(module)),
        )

    n = 4  # the standard forms live on a four dimensional base
    no_gamma = Cochain.zero(n, 3, 1, scalar=True)
    for fname, terms in sorted(cat.FORM_TERMS.items()):
        m = max(target for _, _, target in terms) + 1
        alpha = cat.alpha_cochain(terms, n, m, {})
        write(
            DATA / "forms" / f"{fname}.json",
            schema.wrap("cocycle", schema.cochains_to_payload(alpha, no_gamma)),
        )
    gamma0 = cat.gamma_cochain(cat.GAMMA0_TERMS, n, {})
    write(
        DATA / "forms" / "gamma0.json",
        schema.wrap("cocycle", schema.cochains_to_payload(Cochain.zero(n, 2, 0), gamma0)),
    )

    named = {
        "g64_quad.json": cat.g64_admissible_cocycle(),
        "g65_quad.json": cat.g65_admissible_cocycle(),
        "g41_line_g1.json": cat.instantiate(cat.entry_by_id("T1.3a.r01.g1")),
        "g52_two_forms.json": cat.instantiate(cat.entry_by_id("T1.2.b")),
        "r2_plane.json": cat.instantiate(cat.entry_by_id("T1.8.r01")),
    }
    for filename, cocycle in sorted(named.items()):
        write(
            DATA / "cocycles" / filename,
            schema.wrap("cocycle", schema.cocycle_to_payload(cocycle)),
        )

    index = []
    for entry in cat.ENTRIES:
        params = {name: Fraction(1) for name in entry.params}
        cocycle = cat.instantiate(entry, params)
        filename = entry.id.replace(".", "_") + ".json"
        write(
            DATA / "catalog" / filename,
            schema.wrap("cocycle", schema.cocycle_to_payload(cocycle)),
        )
        index.append(
            {
                "id": entry.id,
                "item": entry.item,
                "base": entry.base,
                "module": entry.module_tag,
                "params": {k: schema.format_scalar(v) for k, v in sorted(params.items())},
                "file": f"catalog/{filename}",
            }
        )
    (DATA / "catalog" / "index.json").write_text(
        json.dumps({"entries": index}, indent=2) + "\n"
    )

    doubles = {
        "r2_plane_double.json": cat.instantiate(cat.entry_by_id("T1.8.r01")),
        "r5_double.json": cat.instantiate(cat.entry_by_id("T1.1")),
    }
    for filename, cocycle in sorted(doubles.items()):
        metric = build_double(cocycle)
        write(
            DATA / "doubles" / filename,
            schema.wrap("metric_lie_algebra", schema.metric_to_payload(metric)),
        )

    count = sum(1 for _ in DATA.rglob("*.json"))
    print(f"wrote {count} documents under {DATA}")


if __name__ == "__main__":
    main()
