"""The bit-identity harness, tools/identity.py, runs and is deterministic.

The harness hashes every report field, inferred layer and CLI output of a
tree; the same subset run twice in one process gives the same four digests.
"""

import importlib.util
import re
from pathlib import Path

IDENTITY = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def test_identity_subset_gives_four_stable_digests():
    spec = importlib.util.spec_from_file_location("identity_tool", IDENTITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    subset = dict(orders=range(13), descriptors=module.FAMILIES[:1],
                  commands=module.COMMANDS[:1])
    first, second = (module.digests(**subset) for _ in range(2))
    assert list(first) == ["reports", "families", "float_route", "cli"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in first.values())
    assert first == second
