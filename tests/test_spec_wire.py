"""The benchmark-spec wire format, pinned across codec changes."""

import hashlib
import json

from repro.api.specs import spec_digest
from repro.suite.registry import SUITE_REGISTRY
from repro.synth.generator import SpecGenerator


def test_builtin_and_synthesized_spec_wire_format_is_pinned():
    """spec_digest and the sorted-key payload of every builtin spec (with
    its registry tags) and of 500 synthesized specs, hashed together:
    the digest was captured before the spec codec was derived, so a
    change in any spec's wire bytes fails here."""
    registry = SUITE_REGISTRY.builtin_copy()
    specs = [registry.spec(name) for name in registry.names()]
    for seed in range(20):
        specs += SpecGenerator(seed=seed).generate_many(25)
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec_digest(spec).encode())
        digest.update(json.dumps(spec.to_payload(), sort_keys=True).encode())
    assert len(specs) == 560
    assert digest.hexdigest() == (
        "1f54c87c43ae3b833c1663a5194bcd9e13b674a05777395243805fb721d1bdba"
    )
