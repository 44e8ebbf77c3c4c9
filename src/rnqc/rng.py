"""Deterministic, splittable random streams.

All sampling flows through counter-based Philox 4x64 generators keyed by
a (seed, stream_id) pair. The keyed construction gives independent
streams without any shared mutable state, so results cannot depend on
worker scheduling: a job that knows its stream id always draws the same
numbers, on any platform and at any parallelism level. The algorithm is
fixed here on purpose; swapping it would silently invalidate every
recorded report.

Stream ids are assigned by callers. The majsat sampler uses one stream
per (i, set, run) job and records the base id for each set in its
report. A shot reads at most two uniforms, both from the first Philox
block of its stream, so the sampler draws them for a whole range of jobs
at once with first_uniforms, a vectorized Philox4x64-10 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). make_stream is
the reference: first_uniforms returns the first two draws of
make_stream(seed, job).random() bit for bit.
"""

from __future__ import annotations

import secrets

import numpy as np

from .errors import InputError

_U64 = 2**64

# Philox4x64 multipliers and Weyl key increments (Random123, numpy's Philox).
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
# Every operand below is an np.uint64: under numpy 1.x a Python int mixed
# with a uint64 promotes to float64.
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


def make_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for one job stream, fully determined by (seed, stream_id)."""
    if not 0 <= int(seed) < _U64:
        raise InputError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= int(stream_id) < _U64:
        raise InputError(f"stream id must fit in 64 bits, got {stream_id}")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit product m * b, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _LOW32, b >> _32
    lo_lo, lo_hi, hi_lo = m_lo * b_lo, m_lo * b_hi, m_hi * b_lo
    carry = ((lo_lo >> _32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> _32
    hi = m_hi * b_hi + (lo_hi >> _32) + (hi_lo >> _32) + carry
    return hi, np.uint64(m) * b


def first_uniforms(seed: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The first two uniforms of make_stream(seed, job) for each job in [start, stop).

    numpy's Philox increments its counter before the first block, so a
    stream's first two draws come from block outputs 0 and 1 at counter
    (1, 0, 0, 0) under key (seed, job), each mapped to (x >> 11) * 2^-53
    as Generator.random does.
    """
    if not 0 <= int(seed) < _U64:
        raise InputError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= int(start) <= int(stop) <= _U64:
        raise InputError(f"stream ids must fit in 64 bits, got [{start}, {stop})")
    jobs = np.arange(int(stop) - int(start), dtype=np.uint64) + np.uint64(start)
    x0 = np.full_like(jobs, 1)
    x1, x2, x3 = np.zeros_like(jobs), np.zeros_like(jobs), np.zeros_like(jobs)
    for r in range(_ROUNDS):
        k0 = np.uint64((int(seed) + r * _W0) % _U64)
        k1 = jobs + np.uint64(r * _W1 % _U64)
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    scale = 2.0**-53
    return (x0 >> _11) * scale, (x1 >> _11) * scale


def draw_seed() -> int:
    """Entropy-sourced seed, used when the caller does not supply one."""
    return secrets.randbits(63)
