"""Golden trace: a long mixed run of stores and retrieves, pinned by sha256.

Every call's code, its trace (u with its dtype, U, mu, rho, G and eta) and
its change to ``op_counter`` feed one digest, followed by each model's final
RNG state and weight bits.  The pin was computed before selection ran as one
kernel, so any change to a code, a trace byte, an op count or the RNG stream
shows here.
"""

import hashlib

import numpy as np

from msdc import InputPattern, MemoryModel, ModelGeometry, random_pattern

# (geometry, number of calls): at paper geometry, at a geometry whose S, Q
# and K differ from it, and at the benchmark's large geometry.
RUNS = (
    (ModelGeometry(12, 12, 12, 24, 8), 1100),
    (ModelGeometry(20, 20, 30, 40, 5), 600),
    (ModelGeometry(64, 64, 64, 128, 16), 240),
)

GOLDEN_SHA256 = "7611e4ef4e1979896fa187b8ab51456b11886ca9b577e25215ea699229087d3b"


def _probe(geometry, gen, stored):
    """A novel pattern, a stored one, or a stored one with some pixels moved."""
    kind = gen.integers(3) if stored else 0
    if kind == 0:
        return random_pattern(geometry, gen)
    source = stored[gen.integers(len(stored))]
    if kind == 1:
        return source
    keep = int(gen.integers(1, geometry.num_active))
    kept = gen.choice(source.active, keep, replace=False)
    outside = np.setdiff1d(np.arange(geometry.num_pixels), source.active)
    moved = gen.choice(outside, geometry.num_active - keep, replace=False)
    return InputPattern.from_indices(np.concatenate([kept, moved]).tolist())


def _feed(h, *arrays):
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def golden_digest() -> str:
    h = hashlib.sha256()
    for index, (geometry, calls) in enumerate(RUNS):
        gen = np.random.default_rng([2020, index])
        model = MemoryModel(geometry, seed=index)
        stored = []
        for step in range(calls):
            op = gen.integers(6) if stored else 0
            pattern = _probe(geometry, gen, stored)
            before = model.op_counter.as_dict()
            if op <= 1:
                code, trace = model.store(pattern)
                stored.append(pattern)
            elif op <= 3:
                code, trace = model.retrieve(pattern, ("soft", "hard")[op - 2])
            else:
                rng = np.random.default_rng([index, step])
                code, trace = model.retrieve(pattern, ("soft", "hard")[op - 4], rng)
            after = model.op_counter.as_dict()
            h.update(f"{step}:{op}:".encode())
            _feed(h, code, trace.u, trace.u_norm, trace.mu, trace.rho)
            h.update(f"{trace.familiarity.hex()}:{trace.eta.hex()}:".encode())
            h.update(repr({k: after[k] - before[k] for k in after}).encode())
        h.update(repr(model.rng.bit_generator.state).encode())
        _feed(h, model.weights.bits)
    return h.hexdigest()


def test_golden_trace_is_pinned():
    assert golden_digest() == GOLDEN_SHA256
