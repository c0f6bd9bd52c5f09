"""Bank-conflict analysis for the HLS estimator.

This module simulates — with NumPy, over the actual unrolled copies and
a deterministic sample of sequential iterations — which bank every
processing element (PE) touches. From that it derives the quantities
§2.1 identifies as the sources of (un)predictability:

* ``mux_degree`` — how many distinct banks one PE must reach over time.
  1 means a direct PE↔bank wire (Fig. 3c); ``total_banks`` means a full
  crossbar (Fig. 3b's multiplexing hardware).
* ``port_pressure`` — the worst-case number of simultaneous accesses a
  single bank must serve in one iteration. Identical read addresses
  fan out (they count once, §3.1); writes always count.
* ``aligned`` — every PE owns a static set of banks disjoint from the
  others (the "unrolling divides banking" unwritten rule).

Element ``v`` of dimension ``d`` lives in bank ``v mod f_d`` at address
``v // f_d``, and the per-dimension addresses fold with the stride
``dims[d] // f_d`` (floor). On an *unevenly* banked array that stride
is too small, so distinct elements can alias to one (bank, address)
pair and reads of them count as one fanned-out access. For example
stencil2d's ``filter`` (dims (3, 3), partition (1, 2), both loops
unrolled 3×) reports a read ``port_pressure`` of 4 where an injective
layout would give 6. The aliasing is pinned by the test suite rather
than fixed: changing it would move the calibrated figures.

A sweep estimates thousands of kernels whose accesses repeat. An
access's profile is a pure function of a small context (see
:func:`_profile_keys`), so :func:`analyze_kernel` takes an optional
memo — a plain dict owned by the caller, e.g. one per DSE sweep — that
maps a 16-byte digest of that context to the profile's fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from itertools import product
from math import prod

import numpy as np

from .kernel import AccessSpec, ArraySpec, KernelSpec

#: Cap on enumerated PE combinations — above this we sample.
_MAX_PES = 4096
#: Sequential-iteration samples per loop.
_SAMPLES_PER_LOOP = 3
#: Cap on total iteration samples.
_MAX_SAMPLES = 64

#: Memo value: the profile fields after ``access``.
_Fields = tuple[int, int, bool, bool, bool]


@dataclass(frozen=True)
class AccessProfile:
    """Bank behaviour of one access across PEs and time."""

    access: AccessSpec
    mux_degree: int                  # banks reachable per PE (1 = wired)
    port_pressure: int               # worst simultaneous accesses per bank
    regular: bool                    # per-PE bank sets partition the banks
    crossbar: bool                   # PE must reach ≥ 4 banks
    dynamic: bool                    # data-dependent indexing

    @property
    def aligned(self) -> bool:
        """Direct PE↔bank wiring, no mux at all (Fig. 3c)."""
        return self.mux_degree == 1 and self.regular


@dataclass(frozen=True)
class ArrayProfile:
    """Aggregated pressure on one array across all its accesses."""

    array: ArraySpec
    port_pressure: int               # combined worst-case per-bank load
    mux_degree: int
    crossbar: bool
    regular: bool


def _loop_picks(total: int) -> list[int]:
    """Sampled sequential iterations of one loop."""
    picks = sorted({0, 1, total // 2, total - 1} & set(range(total)))
    return picks[:_SAMPLES_PER_LOOP + 1] or [0]


def _loop_samples(kernel: KernelSpec) -> np.ndarray:
    """A deterministic sample of sequential iteration vectors."""
    combos = list(product(*(_loop_picks(loop.iterations)
                            for loop in kernel.loops)))
    if len(combos) > _MAX_SAMPLES:
        stride = len(combos) // _MAX_SAMPLES
        combos = combos[::stride][:_MAX_SAMPLES]
    return np.array(combos, dtype=np.int64)         # (S, n_loops)


def _pe_offsets(kernel: KernelSpec) -> np.ndarray:
    """All unrolled-copy offset vectors (R, n_loops)."""
    ranges = [range(loop.unroll) for loop in kernel.loops]
    combos = list(product(*ranges))
    if len(combos) > _MAX_PES:
        stride = len(combos) // _MAX_PES
        combos = combos[::stride][:_MAX_PES]
    return np.array(combos, dtype=np.int64)


def analyze_access(kernel: KernelSpec, access: AccessSpec,
                   samples: np.ndarray | None = None,
                   offsets: np.ndarray | None = None) -> AccessProfile:
    """Simulate one access's bank traffic."""
    array = kernel.array(access.array)
    if samples is None:
        samples = _loop_samples(kernel)
    if offsets is None:
        offsets = _pe_offsets(kernel)
    n_pes = len(offsets)

    if any(index.dynamic for index in access.indices):
        # Data-dependent index: any PE may hit any bank; the scheduler
        # must serialize all copies onto one port in the worst case.
        total_banks = array.total_banks
        return AccessProfile(
            access=access,
            mux_degree=total_banks,
            port_pressure=n_pes,
            regular=total_banks == 1 and n_pes == 1,
            crossbar=total_banks >= 4,
            dynamic=True)

    # The index value of dim d at sample s on PE p is
    #   const_d + Σ_loop coeff·(unroll·seq_s + offset_p)
    #   = base[s, d] + par[p, d],
    # a per-sample part plus a per-PE part.
    dims = array.dims
    factors = array.partition
    total_banks = array.total_banks
    indices = access.indices[:len(dims)]
    coeffs = np.array([[index.coeff(loop.name) for index in indices]
                       for loop in kernel.loops],
                      dtype=np.int64).reshape(len(kernel.loops),
                                              len(indices))   # (L, D)
    unrolls = np.array([[loop.unroll] for loop in kernel.loops],
                       dtype=np.int64).reshape(len(kernel.loops), 1)
    base = samples @ (coeffs * unrolls) + np.array(
        [index.const for index in indices], dtype=np.int64)   # (S, D)

    # PEs with equal ``par`` have identical traces — those from unroll
    # dimensions the access does not mention, and collisions such as
    # an i+j index — so one representative per distinct ``par`` row
    # carries the trace, weighted by how many PEs share it (§3.1's
    # fan-out). Every later step works on the representatives only.
    # The rows are grouped with a lexsort: ``np.unique(axis=0)`` gives
    # the same groups but sorts a structured view, 2.4-7× slower here.
    par = offsets @ coeffs                                    # (P, D)
    if len(indices):                       # else: one group, any order
        par = par[np.lexsort(par.T)]
    first = np.ones(len(par), dtype=bool)
    first[1:] = (par[1:] != par[:-1]).any(axis=1)
    starts = first.nonzero()[0]
    reps = par[starts]                                        # (R, D)
    weights = np.diff(starts, append=len(par))

    # Banks add digit-wise: bank(s, p) = (base[s] + par[p]) mod f, per
    # dim. For a fixed PE that is a bijective shift of the sample
    # banks, so every PE reaches exactly as many banks as the samples
    # span (the mux degree), and in every sample the per-bank load is
    # the same shifted histogram of the PEs' own bank offsets.
    factor_arr = np.array(factors, dtype=np.int64)
    bank_strides = [prod(factors[dim + 1:]) for dim in range(len(dims))]
    stride_arr = np.array(bank_strides, dtype=np.int64)
    sample_banks = np.bincount(base % factor_arr @ stride_arr).nonzero()[0]
    rep_banks = reps % factor_arr @ stride_arr                # (R,)
    per_offset = np.bincount(rep_banks)     # representatives per offset
    mux_degree = len(sample_banks)

    # Element v of dim d sits at bank v mod f and address v // f, the
    # addresses folded with stride dims // f. While every inner dim's
    # values stay in [0, (dims // f)·f) that layout is injective, so
    # distinct representatives are distinct trace columns and never
    # share a read address. Otherwise (uneven banking, out-of-bounds
    # indices) build the (bank, address) traces and deduplicate them.
    lowest = (base.min(axis=0) + reps.min(axis=0)).tolist()
    highest = (base.max(axis=0) + reps.max(axis=0)).tolist()
    injective = all(
        lowest[dim] >= 0
        and highest[dim] < max(1, dims[dim] // factors[dim]) * factors[dim]
        for dim in range(1, len(dims)))
    if injective:
        columns = len(reps)
        reads = per_offset
    else:
        columns, reads = _aliased_traces(array, base, reps)

    # Regularity: the per-PE bank sets — shifts of the sample banks by
    # each column's offset — must be pairwise disjoint (unrolling
    # "divides" banking, §2.1's unwritten rule): the offsets are
    # distinct, the sets hold at most ``total_banks`` banks between
    # them, and no two shifted copies overlap.
    offsets_seen = per_offset.nonzero()[0]
    regular = (len(offsets_seen) == columns
               and mux_degree * columns <= total_banks)
    if regular and mux_degree > 1 and columns > 1:
        shifted = ((sample_banks[:, None, None] // stride_arr % factor_arr)
                   + (offsets_seen[None, :, None] // stride_arr
                      % factor_arr)) % factor_arr @ stride_arr
        regular = int(np.count_nonzero(np.bincount(shifted.ravel()))) \
            == shifted.size

    if access.is_write:
        # Writes always count — every fanned-out copy hits its bank.
        pressure = int(np.bincount(rep_banks, weights=weights).max())
    else:
        pressure = int(reads.max())

    return AccessProfile(
        access=access,
        mux_degree=mux_degree,
        port_pressure=pressure,
        regular=regular,
        crossbar=mux_degree >= 4,
        dynamic=False)


def _aliased_traces(array: ArraySpec, base: np.ndarray,
                    reps: np.ndarray) -> tuple[int, np.ndarray]:
    """Distinct (bank, address) trace columns, and per-(sample, bank)
    distinct read addresses, where values may alias."""
    n_samples, n_reps = len(base), len(reps)
    banks = np.zeros((n_samples, n_reps), dtype=np.int64)
    addresses = np.zeros((n_samples, n_reps), dtype=np.int64)
    bank_stride = 1
    addr_stride = 1
    for dim in range(len(array.dims) - 1, -1, -1):
        factor = array.partition[dim]
        quotient, remainder = np.divmod(
            base[:, dim, None] + reps[None, :, dim], factor)
        banks += remainder * bank_stride
        addresses += quotient * addr_stride
        bank_stride *= factor
        addr_stride *= max(1, array.dims[dim] // factor)

    shifted = addresses - addresses.min()
    addr_span = int(shifted.max()) + 1
    combined = banks * addr_span + shifted           # injective fold
    columns = np.ascontiguousarray(combined.T)
    as_void = columns.view(
        np.dtype((np.void, columns.dtype.itemsize * columns.shape[1])))
    n_columns = len(np.unique(as_void.ravel()))

    # Identical (bank, address) pairs in one sample fan out — count once.
    sample_ids = np.arange(n_samples, dtype=np.int64)[:, None]
    triples = np.unique(sample_ids * (bank_stride * addr_span) + combined)
    _, reads = np.unique(triples // addr_span, return_counts=True)
    return n_columns, reads


def _profile_keys(kernel: KernelSpec) -> list[bytes]:
    """Exact memo key of each access's profile.

    A profile depends on the access, its array's dims and partition,
    and — when neither the ``_MAX_SAMPLES`` nor the ``_MAX_PES`` stride
    cap fires — only on the ``(name, iterations, unroll)`` of the
    loops the access mentions, plus, for a write, the product of the
    other loops' unrolls. Without a cap the samples and PE offsets are
    full Cartesian products, so an unmentioned loop only repeats
    sample rows (which changes no max, set or per-sample count) and
    multiplies every representative's fan-out by its unroll (which only
    writes count). A capped stride mixes the loops, and a dynamic
    access's pressure is the PE count, so those key on every loop.
    """
    loops = [(loop.name, loop.iterations, loop.unroll)
             for loop in kernel.loops]
    capped = (prod(len(_loop_picks(iterations))
                   for _, iterations, _ in loops) > _MAX_SAMPLES
              or prod(unroll for *_, unroll in loops) > _MAX_PES)
    keys = []
    for access in kernel.accesses:
        array = kernel.array(access.array)
        if capped or any(index.dynamic for index in access.indices):
            context: tuple = ("all", tuple(loops))
        else:
            used = [any(index.coeff(name) for index in access.indices)
                    for name, _, _ in loops]
            fan_out = (prod(loop[2] for loop, hit in zip(loops, used)
                            if not hit) if access.is_write else 1)
            context = ("mentioned", tuple(
                loop for loop, hit in zip(loops, used) if hit), fan_out)
        canonical = repr((access, array.dims, array.partition, context))
        keys.append(blake2b(canonical.encode(), digest_size=16).digest())
    return keys


def analyze_kernel(kernel: KernelSpec,
                   memo: dict[bytes, _Fields] | None = None,
                   ) -> dict[str, ArrayProfile]:
    """Profile every array of the kernel.

    With a ``memo`` (a caller-owned dict, empty at first), an access
    whose context was analyzed before is served from it, and only the
    others reach :func:`analyze_access`; the profiles are identical
    either way. The memo holds one 16-byte key and one small tuple per
    distinct context.
    """
    keys = _profile_keys(kernel) if memo is not None else None
    samples = offsets = None
    profiles: dict[str, list[AccessProfile]] = {}
    for position, access in enumerate(kernel.accesses):
        fields = memo.get(keys[position]) if keys is not None else None
        if fields is not None:
            profile = AccessProfile(access, *fields)
        else:
            if samples is None:
                samples = _loop_samples(kernel)
                offsets = _pe_offsets(kernel)
            profile = analyze_access(kernel, access, samples, offsets)
            if keys is not None:
                memo[keys[position]] = (
                    profile.mux_degree, profile.port_pressure,
                    profile.regular, profile.crossbar, profile.dynamic)
        profiles.setdefault(access.array, []).append(profile)

    result: dict[str, ArrayProfile] = {}
    for name, access_profiles in profiles.items():
        array = kernel.array(name)
        # Inner-loop accesses in one iteration stack their pressure on
        # the banks; hoisted accesses are amortized (kernel.py).
        pressure = sum(p.port_pressure for p in access_profiles
                       if p.access.inner)
        result[name] = ArrayProfile(
            array=array,
            port_pressure=pressure,
            mux_degree=max(p.mux_degree for p in access_profiles),
            crossbar=any(p.crossbar for p in access_profiles),
            regular=all(p.regular for p in access_profiles))
    return result
