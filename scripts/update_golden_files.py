#!/usr/bin/env python3
"""Regenerates the golden files under tests/golden/.

Two families:

* `cli_*.json` — the `coverage_cli --json` transcripts (below).
* `mups_*.txt` — frozen MUP sets and per-algorithm coverage-query counts
  for four search cases (dense d=13, level-3 sparse d=36, and two 260-bit
  schemas), written by the `golden_mups_test` binary itself when
  COVERAGE_UPDATE_GOLDEN is set. They pin every search algorithm under
  every dominance mode; the 260-bit ones were produced by the retired
  vector<int> search cores, so regenerating them replaces that independent
  provenance with the current code's output. Pass --mups only after an
  intentional change to search results or query counts, and review the
  diff like an API change.

The CLI goldens are the CLI's --json output with every "seconds" member zeroed
(wall-clock timings are the one nondeterministic part of the wire format),
re-serialised in the canonical layout (sorted keys, 2-space indent) — the
same normalisation tests/cli_test.cc applies before comparing. All values
in these documents are integers and strings, so Python's json module
reproduces the C++ writer byte-for-byte.

Usage: python3 scripts/update_golden_files.py [--build-dir build] [--mups]
Run from the repository root after building coverage_cli + coverage_datagen
(and golden_mups_test for --mups).
"""

import argparse
import json
import os
import pathlib
import subprocess
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def zero_seconds(node):
    if isinstance(node, list):
        for item in node:
            zero_seconds(item)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key == "seconds":
                node[key] = 0
            else:
                zero_seconds(value)


def normalize(text):
    doc = json.loads(text)
    zero_seconds(doc)
    return (
        json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False,
                   separators=(",", ": "))
        + "\n"
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--mups", action="store_true",
                        help="also rewrite the frozen MUP goldens")
    args = parser.parse_args()
    build = REPO / args.build_dir

    # The same dataset tests/cli_test.cc generates in its fixture.
    csv = subprocess.run(
        [str(build / "coverage_datagen"), "--dataset", "compas", "--n",
         "2000", "--seed", "3"],
        check=True, capture_output=True, text=True,
    ).stdout
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as f:
        f.write(csv)
        csv_path = f.name

    cases = {
        "cli_audit_compas_tau10.json": [
            "audit", "--csv", csv_path, "--tau", "10", "--json"],
        "cli_query_compas.json": [
            "query", "--csv", csv_path, "--pattern", "XXXX", "--pattern",
            "X0XX", "--json"],
    }
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in cases.items():
        out = subprocess.run(
            [str(build / "coverage_cli")] + argv,
            check=True, capture_output=True, text=True,
        ).stdout
        (GOLDEN / name).write_text(normalize(out))
        print(f"wrote {GOLDEN / name}")
    pathlib.Path(csv_path).unlink()

    if args.mups:
        subprocess.run(
            [str(build / "golden_mups_test")], check=True,
            env=dict(os.environ, COVERAGE_UPDATE_GOLDEN="1"),
        )
        for path in sorted(GOLDEN.glob("mups_*.txt")):
            print(f"wrote {path}")


if __name__ == "__main__":
    main()


# The goldens double as documentation of the wire format, so keep them
# reviewed like source: a diff here means the wire format changed.
