"""Every kernel-large benchmark instance still gives its recorded result.

bench/kernel_pool.json records, for each of the 25 kernel specs and each
of its 8 variants, the accepted random draw and the digest of the result.
The benchmark's own tests replay only its first round; this replays all
200 instances through bench/kernel.py, which it imports without changing,
and checks each digest and the identity each call states.
"""

import sys
from pathlib import Path

import pytest

import bracekit

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import kernel  # noqa: E402

POOL = kernel.load_pool()


@pytest.mark.parametrize("spec", kernel.SPECS, ids=lambda spec: spec.name)
def test_every_variant_matches_its_recorded_digest(spec):
    records = POOL[spec.name]
    assert len(records) == kernel.VARIANTS
    for variant, record in enumerate(records):
        op, _ = kernel.build(bracekit, spec, variant, record["attempt"])
        result = op()
        assert kernel.digest(bracekit, result) == record["digest"], variant
        assert kernel.verdict(spec, result), variant
        assert kernel.nnz(kernel.result_maps(result)) == record["out_nnz"], variant
