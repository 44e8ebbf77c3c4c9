"""The batched first-block Philox draw against rng.make_stream."""
from __future__ import annotations

import pytest

from rnqc.errors import InputError
from rnqc.rng import first_uniforms, make_stream

U64 = 2**64


@pytest.mark.parametrize("seed", [0, 7, 12345, U64 - 1])
@pytest.mark.parametrize(
    "start, stop", [(0, 4096), (2**32 - 1, 2**32), (2**63, 2**63 + 1), (U64 - 1, U64)]
)
def test_first_uniforms_match_make_stream_bit_for_bit(seed, start, stop):
    u1, u2 = first_uniforms(seed, start, stop)
    assert len(u1) == len(u2) == stop - start
    for k, job in enumerate(range(start, stop)):
        stream = make_stream(seed, job)
        assert stream.random() == u1[k], job
        assert stream.random() == u2[k], job


@pytest.mark.parametrize(
    "seed, start, stop", [(U64, 0, 1), (-1, 0, 1), (0, -1, 1), (0, U64 - 1, U64 + 1), (0, 5, 4)]
)
def test_first_uniforms_rejects_ids_outside_64_bits(seed, start, stop):
    with pytest.raises(InputError):
        first_uniforms(seed, start, stop)
