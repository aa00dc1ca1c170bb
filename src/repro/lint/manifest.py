"""Registry-inventory checking, shared by lint rule REP004 and the CI gate.

Two views of the component inventory are validated against
``tests/data/registry_manifest.json``:

* the **static** view — every ``@register_*``/``@experiment`` decorator the
  linter finds in the tree — is checked by :class:`repro.lint.rules
  .RegistryDisciplineRule` (REP004) as part of ``repro lint``;
* the **live** view — what the populated registries actually expose through
  ``repro-experiments list --json`` — is checked by
  :func:`check_live_inventory`; CI runs it as::

      repro-experiments list --json registry_inventory.json
      python -m repro.lint.manifest --inventory registry_inventory.json

One module owns the manifest format and the comparison, so the two gates
cannot drift apart.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout
from typing import Dict, List, Optional

DEFAULT_MANIFEST = os.path.join("tests", "data", "registry_manifest.json")

#: Manifest inventory keys, in reporting order.
INVENTORY_KEYS = ("designs", "topologies", "workloads", "arrivals", "faults",
                  "lint_rules", "strategies", "probes", "experiments")


def load_manifest(path: str) -> Dict[str, List[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def live_inventory(inventory_path: Optional[str] = None) -> Dict[str, List[str]]:
    """The inventory, from a saved catalog file or the in-process CLI."""
    if inventory_path is not None:
        with open(inventory_path, "r", encoding="utf-8") as handle:
            catalog = json.load(handle)
    else:
        from repro.cli import main

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = main(["list", "--json"])
        if status != 0:
            raise SystemExit("repro-experiments list --json failed with status %d" % status)
        catalog = json.loads(buffer.getvalue())
    registries = catalog["registries"]
    inventory = {
        key: [item["name"] for item in registries.get(key, [])]
        for key in INVENTORY_KEYS if key != "experiments"
    }
    inventory["experiments"] = [item["name"] for item in catalog["experiments"]]
    return inventory


def compare_inventory(actual: Dict[str, List[str]],
                      manifest: Dict[str, List[str]]) -> List[str]:
    """Diff-style failure messages; empty when the inventory matches."""
    failures = []
    for key, names in actual.items():
        expected = manifest.get(key, [])
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        if missing:
            failures.append("%s: missing from the live registry: %s" % (key, ", ".join(missing)))
        if extra:
            failures.append("%s: not in the manifest: %s" % (key, ", ".join(extra)))
    return failures


def check_live_inventory(manifest_path: str,
                         inventory_path: Optional[str] = None) -> int:
    """Compare the live inventory with the manifest; 0 on a match, 1 on drift."""
    manifest = load_manifest(manifest_path)
    actual = live_inventory(inventory_path)
    failures = compare_inventory(actual, manifest)
    if failures:
        print("registry inventory drifted from %s" % manifest_path, file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        print("update tests/data/registry_manifest.json if the change is intentional",
              file=sys.stderr)
        return 1
    print("registry inventory matches %s (%s)" % (
        manifest_path,
        ", ".join("%d %s" % (len(actual[key]), key.replace("_", " "))
                  for key in INVENTORY_KEYS)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.lint.manifest [--inventory CATALOG.json] [MANIFEST]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.manifest",
        description="Check the live registry inventory against the checked-in manifest.",
    )
    parser.add_argument("manifest", nargs="?", default=DEFAULT_MANIFEST,
                        help="manifest JSON (default: %(default)s)")
    parser.add_argument("--inventory", metavar="CATALOG", default=None,
                        help="catalog written by 'repro-experiments list --json' "
                             "(default: generate it in-process)")
    args = parser.parse_args(argv)
    return check_live_inventory(args.manifest, args.inventory)


if __name__ == "__main__":
    sys.exit(main())
