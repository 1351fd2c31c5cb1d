"""Byte-identity of the command line on the bundled data.

Every command runs in process through ``cli.main``.  Its output is the
triple (argv, exit code, stdout), and a short sha256 of that triple is
compared with the table pinned in ``golden.json``, so a failure names the
commands whose output changed.  The files ``catalog --out`` writes are pinned
the same way, by one digest over their sorted names and bytes.

Run as a script,

    PYTHONPATH=src python tests/test_golden.py

makes the same comparison without pytest (so also on interpreters that lack
it), names each command whose digest changed and exits 1 if any did.  After
an intended change of output, rewrite the table with ``--write``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from metriclie import cli

GOLDEN = Path(__file__).with_name("golden.json")
CATALOG_OUT = "catalog --out DIR"


def _documents(*folders):
    data = resources.files("metriclie") / "data"
    names = []
    for folder in folders:
        names += sorted(
            f"{folder}/{p.name}"
            for p in (data / folder).iterdir()
            if p.name.endswith(".json") and f"{folder}/{p.name}" != "catalog/index.json"
        )
    return names


def golden_commands():
    commands = [["verify", name] for name in _documents(
        "algebras", "catalog", "cocycles", "doubles", "forms", "modules"
    )]
    for name in _documents("cocycles", "catalog"):
        commands += [["admissible", name], ["double", name]]
    for name in _documents("algebras"):
        commands += [["cohomology", name, "--degree", str(k)] for k in range(4)]
    return commands + [["catalog"], ["catalog", "--table"]]


def output_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    blob = json.dumps([argv, code, out.getvalue()]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def catalog_out_digest(folder):
    """The exit code of ``catalog --out folder`` and the sorted (name, bytes)
    of the files it writes into the empty ``folder``, as one short sha256."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["catalog", "--out", str(folder)])
    digest = hashlib.sha256(b"%d\0" % code)
    for path in sorted(folder.iterdir()):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0%s" % (path.name.encode(), len(data), data))
    return digest.hexdigest()[:16]


def current_digests(out_dir):
    digests = {" ".join(argv): output_digest(argv) for argv in golden_commands()}
    digests[CATALOG_OUT] = catalog_out_digest(out_dir)
    return digests


def changed_commands(current):
    """The commands, pinned or current, whose digest is not the pinned one."""
    pinned = json.loads(GOLDEN.read_text())
    return sorted(c for c in pinned.keys() | current.keys() if pinned.get(c) != current.get(c))


def test_cli_outputs_match_the_pinned_digests(tmp_path):
    changed = changed_commands(current_digests(tmp_path))
    assert changed == [], "output changed for: " + "; ".join(changed)


def main(argv):
    if argv not in ([], ["--write"]):
        print("usage: test_golden.py [--write]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as out_dir:
        digests = current_digests(Path(out_dir))
    if argv:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return 0
    changed = changed_commands(digests)
    for command in changed:
        print("changed:", command)
    print("%d commands, %d changed" % (len(digests), len(changed)))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
