"""Exactness of the bank-conflict layer (repro.hls.banking).

The profiles below were pinned from the straightforward per-dimension
NumPy simulation this module started from: for every distinct
(access, array, per-loop iterations/unroll) context of a DSE family,
the canonical profile line is hashed, and the current implementation
must reproduce the digest bit for bit — including the Python types of
the fields. Tier-1 checks a seeded, unroll-stratified sample of each
family; ``REPRO_FULL=1`` checks all four full spaces (12,510 distinct
contexts).

The access-profile memo is checked separately: every access that
shares a memo key must have an equal profile, on kernels where a
sample/PE stride cap fires (gemm-blocked, md-grid) and where none does
(md-knn).
"""

import hashlib
import os
import random
from collections import Counter
from itertools import product

import pytest

from repro.hls import AccessProfile, analyze_access, analyze_kernel
from repro.hls import banking
from repro.hls.kernel import (
    READ,
    WRITE,
    AccessSpec,
    AffineIndex,
    ArraySpec,
    KernelSpec,
    LoopSpec,
)
from repro.suite.generators import resolve_family, stencil2d_kernel

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Unroll parameters of each family (they set the bank behaviour the
#: sample must cover) and points drawn per unroll combination.
STRATA = {"gemm-blocked": ("u1", "u2", "u3"), "stencil2d": ("u1", "u2"),
          "md-knn": ("u1", "u2"), "md-grid": ("u1", "u2")}
PER_STRATUM = {"gemm-blocked": 2, "stencil2d": 24, "md-knn": 2,
               "md-grid": 2}

#: (distinct contexts, sha256 of the canonical profile lines).
SAMPLE_DIGESTS = {
    "gemm-blocked": (970, "8ac90b03584017a5335c98ab40b598619d0414811ec11"
                          "882aa032c27f3a824e4"),
    "stencil2d": (240, "a03811f9caa2286c7f775970bbfe291b624db4ebed97df5"
                       "770d3765b103213ed"),
    "md-knn": (1029, "0e2b335498c0e7c277cadbeef0ae41bb9302dcbe335c4d557"
                     "698307f5c434b68"),
    "md-grid": (481, "ac7449ddabe8472f0b3f7419894cced9b445b033f189bc922"
                     "643926ee95a7440"),
}
FULL_DIGESTS = {
    "gemm-blocked": (8000, "c97e95cda2a457b88f69e139ae532fcaac6f6b7ffd3"
                           "247c9987b55dc211ce037"),
    "stencil2d": (414, "33e4fd82d46c9b7ed57661aab0c5b60b153d37a0edfb80e6"
                       "a7c88ca54354b36a"),
    "md-knn": (2304, "9c80d0dc86351c0304cd14d0ebb4a995a821a99ba0b175f248"
                     "e8407242c4da4f"),
    "md-grid": (1792, "1e7fbba3d3987d5c2b700bfddaac111a418d8520549412e6"
                      "0c8ec60b2105d9ff"),
}


def stratified_configs(family: str) -> list[dict[str, int]]:
    """A seeded sample with the same count from every unroll combo."""
    strata: dict[tuple, list[dict[str, int]]] = {}
    for config in resolve_family(family)[0]():
        key = tuple(config[name] for name in STRATA[family])
        strata.setdefault(key, []).append(config)
    draw = random.Random(f"bank-profiles:0:{family}")
    return [config for key in sorted(strata)
            for config in draw.sample(strata[key],
                                      min(PER_STRATUM[family],
                                          len(strata[key])))]


def contexts(family: str, configs) -> dict[tuple, tuple]:
    """Distinct (access, array, per-loop iterations/unroll) contexts,
    each with the first (kernel, access) that has it."""
    kernel_fn = resolve_family(family)[2]
    seen: dict[tuple, tuple] = {}
    for config in configs:
        kernel = kernel_fn(config)
        loops = tuple((loop.iterations, loop.unroll)
                      for loop in kernel.loops)
        for access in kernel.accesses:
            seen.setdefault((access, kernel.array(access.array), loops),
                            (kernel, access))
    return seen


def profile_digest(family: str, configs) -> tuple[int, str]:
    lines = []
    for (access, array, loops), (kernel, first) in \
            contexts(family, configs).items():
        profile = analyze_access(kernel, first)
        lines.append(repr((access, array.dims, array.partition, loops,
                           profile.mux_degree, profile.port_pressure,
                           profile.regular, profile.crossbar,
                           profile.dynamic)))
    lines.sort()
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(STRATA))
def test_profiles_match_pinned_sample(family):
    assert profile_digest(family, stratified_configs(family)) \
        == SAMPLE_DIGESTS[family]


@pytest.mark.skipif(not FULL, reason="full spaces need REPRO_FULL=1")
@pytest.mark.parametrize("family", sorted(STRATA))
def test_profiles_match_pinned_full_space(family):
    configs = list(resolve_family(family)[0]())
    assert profile_digest(family, configs) == FULL_DIGESTS[family]


def test_profile_fields_are_plain_python():
    kernel_fn = resolve_family("gemm-blocked")[2]
    for config in stratified_configs("gemm-blocked")[:40]:
        kernel = kernel_fn(config)
        for access in kernel.accesses:
            profile = analyze_access(kernel, access)
            assert type(profile.mux_degree) is int
            assert type(profile.port_pressure) is int
            assert type(profile.regular) is bool
            assert type(profile.crossbar) is bool


# -- the access-profile memo ------------------------------------------------

def _capped(kernel: KernelSpec) -> bool:
    """Does a sample or PE stride cap fire for this kernel?"""
    picks = [banking._loop_picks(loop.iterations) for loop in kernel.loops]
    return (len(list(product(*picks))) > banking._MAX_SAMPLES
            or kernel.processing_elements > banking._MAX_PES)


@pytest.mark.parametrize("family,capped", [("gemm-blocked", True),
                                           ("md-grid", True),
                                           ("md-knn", False)])
def test_memo_key_sound(family, capped):
    """Equal memo key ⟹ equal profile (the memo's exactness), over the
    family's kernels with (or without) a stride cap firing."""
    kernel_fn = resolve_family(family)[2]
    by_key: dict[bytes, AccessProfile] = {}
    kernels = [kernel for kernel in map(kernel_fn,
                                        stratified_configs(family))
               if _capped(kernel) == capped]
    assert len(kernels) > 100
    shared = 0
    for kernel in kernels:
        for key, access in zip(banking._profile_keys(kernel),
                               kernel.accesses):
            profile = analyze_access(kernel, access)
            first = by_key.setdefault(key, profile)
            shared += first is not profile
            assert first == profile, (kernel.config_key, access)
    assert shared, "the sample never exercised a shared key"


def test_memo_serves_identical_profiles_and_stays_compact():
    kernel_fn = resolve_family("md-knn")[2]
    memo: dict = {}
    for config in stratified_configs("md-knn"):
        kernel = kernel_fn(config)
        assert analyze_kernel(kernel, memo) == analyze_kernel(kernel)
    assert memo
    for key, fields in memo.items():
        assert type(key) is bytes and len(key) == 16
        assert isinstance(fields, tuple) and len(fields) == 5
        assert all(type(v) in (int, bool) for v in fields)
    # A repeated kernel is served entirely from the memo.
    size = len(memo)
    analyze_kernel(kernel, memo)
    assert len(memo) == size


def test_memo_calls_analyze_access_only_on_misses(monkeypatch):
    calls = []
    original = banking.analyze_access

    def counting(kernel, access, *rest):
        calls.append(access)
        return original(kernel, access, *rest)

    monkeypatch.setattr(banking, "analyze_access", counting)
    kernel = resolve_family("gemm-blocked")[2](
        dict(b11=2, b12=2, b21=2, b22=2, u1=2, u2=2, u3=2))
    memo: dict = {}
    analyze_kernel(kernel, memo)
    assert len(calls) == len(kernel.accesses)
    analyze_kernel(kernel, memo)
    assert len(calls) == len(kernel.accesses)
    analyze_kernel(kernel)                   # no memo: every access
    assert len(calls) == 2 * len(kernel.accesses)


def test_memo_separates_write_fan_out():
    """A write's pressure counts the PEs of loops it does not mention,
    so their unroll must be part of its key (reads fan out instead)."""
    def kernel(unroll_j):
        return KernelSpec(
            "fan", (ArraySpec("a", (8,), (2,)),),
            (LoopSpec("i", 8, 2), LoopSpec("j", 4, unroll_j)),
            (AccessSpec("a", (AffineIndex.of(i=1),), READ),
             AccessSpec("a", (AffineIndex.of(i=1),), WRITE)))

    one, two = kernel(1), kernel(2)
    read_1, write_1 = banking._profile_keys(one)
    read_2, write_2 = banking._profile_keys(two)
    assert read_1 == read_2 and write_1 != write_2
    assert analyze_access(one, one.accesses[1]).port_pressure == 1
    assert analyze_access(two, two.accesses[1]).port_pressure == 2


# -- sampling order and pinned behaviour ------------------------------------

def test_uneven_partition_aliases_addresses():
    """Pinned, not fixed: the address stride uses ``dims // factor``
    (floor), so on an unevenly banked array distinct elements share a
    (bank, address) pair. stencil2d's 3×3 filter banked (1, 2) with
    both loops fully unrolled reads 6 elements from bank 0, but they
    fold onto 4 addresses; an injective layout would report 6."""
    kernel = stencil2d_kernel(dict(ob1=1, ob2=1, fb1=1, fb2=2,
                                   u1=3, u2=3))
    access = next(a for a in kernel.accesses if a.array == "filter")
    assert kernel.array("filter").uneven
    assert analyze_access(kernel, access).port_pressure == 4


def _simulate(kernel: KernelSpec, access: AccessSpec) -> tuple:
    """Reference: (mux, pressure, regular) by walking every PE and
    sample in Python, with the module's (bank, address) layout."""
    array = kernel.array(access.array)
    samples = banking._loop_samples(kernel).tolist()
    offsets = banking._pe_offsets(kernel).tolist()
    traces = []
    for offset in offsets:
        column = []
        for sample in samples:
            bank = address = 0
            bank_stride = addr_stride = 1
            for dim in range(len(array.dims) - 1, -1, -1):
                index = access.indices[dim]
                value = index.const + sum(
                    index.coeff(loop.name) * (loop.unroll * s + o)
                    for loop, s, o in zip(kernel.loops, sample, offset))
                factor = array.partition[dim]
                bank += value % factor * bank_stride
                address += value // factor * addr_stride
                bank_stride *= factor
                addr_stride *= max(1, array.dims[dim] // factor)
            column.append((bank, address))
        traces.append(tuple(column))
    bank_sets = [{bank for bank, _ in column} for column in set(traces)]
    mux = max(len(banks) for banks in bank_sets)
    regular = sum(map(len, bank_sets)) == len(set().union(*bank_sets))
    pressure = 0
    for step in range(len(samples)):
        if access.is_write:
            load = Counter(column[step][0] for column in traces)
        else:
            load = Counter(bank for bank, _ in
                           {column[step] for column in traces})
        pressure = max(pressure, max(load.values()))
    return mux, pressure, regular


def test_out_of_bounds_and_collisions_match_direct_simulation():
    """Epilogue overshoot past the array end, i+j index collisions and
    uneven inner dims take the aliased-trace path; the rest the closed
    forms. Both agree with the reference walk."""
    loops = (LoopSpec("i", 10, 3), LoopSpec("j", 6, 4))
    arrays = (ArraySpec("a", (12, 10), (2, 3)),
              ArraySpec("b", (16,), (4,)),
              ArraySpec("c", (6, 7), (3, 2)))
    accesses = (
        AccessSpec("a", (AffineIndex.of(i=1), AffineIndex.of(j=1)), READ),
        AccessSpec("a", (AffineIndex.of(i=1), AffineIndex.of(j=1)), WRITE),
        AccessSpec("b", (AffineIndex.of(i=1, j=1),), READ),
        AccessSpec("b", (AffineIndex.of(1, i=2, j=-1),), WRITE),
        AccessSpec("c", (AffineIndex.of(i=1), AffineIndex.of(j=1)), READ),
        AccessSpec("c", (AffineIndex.of(j=1), AffineIndex.of(i=1, j=1)),
                   READ),
    )
    kernel = KernelSpec("mix", arrays, loops, accesses)
    for access in accesses:
        profile = analyze_access(kernel, access)
        assert (profile.mux_degree, profile.port_pressure,
                profile.regular) == _simulate(kernel, access), access


def test_random_kernels_match_direct_simulation():
    """Seeded random kernels — zero to three loops, uneven and
    out-of-bounds layouts, zero to three dims, negative coefficients
    and constants."""
    draw = random.Random(2020)
    for case in range(120):
        loops = tuple(LoopSpec(name, draw.choice([1, 2, 3, 5, 8, 16]),
                               draw.choice([1, 2, 3, 4]))
                      for name in "ijk"[:draw.randint(0, 3)])
        dims = tuple(draw.choice([1, 3, 4, 6, 8, 10])
                     for _ in range(draw.randint(0, 3)))
        array = ArraySpec("a", dims,
                          tuple(draw.choice([1, 2, 3, 4]) for _ in dims))
        indices = tuple(
            AffineIndex.of(draw.choice([0, 0, 1, -1, 2]),
                           **{loop.name: draw.choice([1, 1, 2, -1, 3])
                              for loop in loops if draw.random() < 0.6})
            for _ in dims)
        access = AccessSpec("a", indices, draw.choice([READ, WRITE]))
        kernel = KernelSpec("random", (array,), loops, (access,))
        profile = analyze_access(kernel, access)
        assert (profile.mux_degree, profile.port_pressure,
                profile.regular) == _simulate(kernel, access), kernel


def test_large_coefficients_on_many_dims_match_direct_simulation():
    """Strides of 10^5 on four dims: the PEs' offset vectors span a box
    of about 10^20 points, far past int64, yet only 16 of them occur;
    the analysis never indexes that box. ``a`` stays in bounds (closed
    forms), ``b`` runs far out of them (aliased traces)."""
    loops = tuple(LoopSpec(name, 8, 2) for name in "ijkl")
    big = 2 * 10 ** 6
    arrays = (ArraySpec("a", (8, big, big, big), (2, 2, 2, 4)),
              ArraySpec("b", (8, 8, 8, 8), (2, 2, 2, 2)))
    wide = (AffineIndex.of(i=1), AffineIndex.of(j=100_000),
            AffineIndex.of(k=100_000), AffineIndex.of(l=100_000))
    mixed = (AffineIndex.of(i=100_000, j=100_000),
             AffineIndex.of(j=100_000, k=-100_000),
             AffineIndex.of(k=100_000, l=100_000),
             AffineIndex.of(3, i=100_000, l=100_000))
    accesses = tuple(AccessSpec(name, indices, kind)
                     for name, indices in (("a", wide), ("b", wide),
                                           ("b", mixed))
                     for kind in (READ, WRITE))
    kernel = KernelSpec("big", arrays, loops, accesses)
    for access in accesses:
        profile = analyze_access(kernel, access)
        assert (profile.mux_degree, profile.port_pressure,
                profile.regular) == _simulate(kernel, access), access
