"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: trace
distances come from numpy's eigensolver on dense matrices, measurement
statistics are enumerated with plain dictionary arithmetic, chain
distances come from a fixed bisection of every float in [0, 1], random
unitaries are checked against a Gram-Schmidt reference, random partitions
against a copy of the sampler that built them label by label, sampled readouts
against a copy of the partition sampler that ``sample_readout`` replaced, and
``oaep.tu_overlap`` against a copy of the version that built a second state.
``compensated_sum`` stands in for ``builtins.sum`` as CPython 3.12+ runs it, so
every Python version can check that qseal prints the same bytes under it.
"""

import bisect
import builtins
import itertools
import math
import warnings
from typing import Iterable, Mapping, Sequence

import numpy as np

from qseal.oaep import DegenerateUWarning, sealed_params
from qseal.protocols import SealedInstance
from qseal.states import (
    Ensemble,
    Label,
    LocalUnitary,
    ProjPartition,
    SparseState,
    squared_overlap,
)

B_POOL = [f"b{i}" for i in range(6)]
C_POOL = [f"c{i}" for i in range(6)]

_plain_sum = builtins.sum
_C_LONG = range(-(1 << 63), 1 << 63)


def compensated_sum(iterable, /, start=0):
    """``builtins.sum`` as CPython 3.12 and later compute it.

    While the running total is an int in C long range, exact ints (and bools)
    add exactly. Once it is an exact float, exact float items add with
    Neumaier's compensation and ints in C long range add plainly as doubles;
    the compensation joins the total at the end, or before the first other
    item, which, like every later one, goes through generic ``+``. Before 3.12
    floats add plainly, left to right.
    """
    if isinstance(start, (str, bytes, bytearray)):
        return _plain_sum(iterable, start)  # raises sum's own TypeError
    items = iter(iterable)
    result = start
    if type(result) is int and result in _C_LONG:
        for item in items:
            if type(item) in (int, bool) and item in _C_LONG and result + item in _C_LONG:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and item in _C_LONG:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def left_to_right_sum(values: Iterable[float]) -> float:
    """Floats added one at a time in iteration order, as ``sum`` did before 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def chain_excess(chain) -> float:
    """The most by which a proof chain's link exceeds the next one (<= 0 when exact)."""
    return max(
        chain.acceptance_gap - chain.trace_distance,
        chain.trace_distance - chain.convex_sum,
        chain.convex_sum - chain.closed_form,
    )


def uniform_state(keys: Iterable[tuple[Label, Label]]) -> SparseState:
    """Equal-amplitude superposition of the given (b, c) basis pairs."""
    keys = list(keys)
    amp = 1.0 / math.sqrt(len(keys))
    return SparseState({key: amp for key in keys})


def random_state(seed, b_pool=None, c_pool=None, support=None):
    """Seeded random sparse state over a small label pool."""
    rng = np.random.default_rng(seed)
    b_pool = b_pool or B_POOL
    c_pool = c_pool or C_POOL
    keys = [(b, c) for b in b_pool for c in c_pool]
    if support is None:
        support = int(rng.integers(1, len(keys) + 1))
    chosen = rng.choice(len(keys), size=support, replace=False)
    vec = rng.normal(size=support) + 1j * rng.normal(size=support)
    vec /= np.linalg.norm(vec)
    return SparseState({keys[i]: complex(a) for i, a in zip(chosen, vec)})


def random_ensemble(seed, members=3, **kwargs):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(members))
    states = [random_state(seed * 977 + 13 * i + 1, **kwargs) for i in range(members)]
    return Ensemble(tuple((float(w), s) for w, s in zip(weights, states)))


# ``adversary.chain_links`` as qseal had it before it started each root by
# Newton's method, copied unchanged apart from its name: 62 bisection steps over
# the bit patterns of every float in [0, 1], whatever the masses.
def bisection_links(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(trace distance, convex sum) of each row's strategy, from its zero-padded
    outcome masses q and their ``complements`` c.

    The members phi_i are orthonormal and <phi_i|psi> = sqrt(q_i), so in their
    basis |psi><psi| - sum_i q_i |phi_i><phi_i| is w w^T - diag(q), w_i = sqrt(q_i).
    Its one positive eigenvalue, the trace distance, is the root lambda of
    sum_i q_i / (q_i + lambda) = 1, a rank-one-modified eigenproblem (Golub 1973;
    Bunch, Nielsen and Sorensen 1978). Written as g(lambda) =
    sum_i q_i (c_i - lambda) / (q_i + lambda) = 0, it keeps its digits near 0 and
    1; g falls from sum_i c_i >= 0 at 0 to at most 0 at 1. Bisection halves the
    bit patterns of the floats in [0, 1] (below 2^62 of them), so 62 steps leave
    adjacent floats around the root; a row whose lower end never moves has its
    root below the least positive float, so 0. The convex sum is sum_i q_i sqrt(c_i).
    """
    lo, hi = np.zeros(len(q), dtype=np.int64), np.ones(len(q)).view(np.int64)
    for _ in range(62):
        mid = (lo + hi + 1) // 2  # above lo, so lambda > 0
        lam = mid.view(np.float64)[:, None]
        above = (q * (c - lam) / (q + lam)).sum(axis=-1) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(lo == 0, 0.0, hi.view(np.float64)), (q * np.sqrt(c)).sum(axis=-1)


def dense_trace_distance(psi, sigma):
    """Oracle: half the nuclear norm of the dense difference, via numpy."""
    keys = sorted(set(psi.amps) | {k for _, m in sigma.members for k in m.amps})
    index = {k: i for i, k in enumerate(keys)}

    def vec(state):
        v = np.zeros(len(keys), dtype=complex)
        for k, a in state.amps.items():
            v[index[k]] = a
        return v

    v = vec(psi)
    diff = np.outer(v, v.conj())
    for q, member in sigma.members:
        w = vec(member)
        diff -= q * np.outer(w, w.conj())
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def enumerate_basis_readout(amps):
    """Oracle: per-C-label collapse statistics from raw dictionary arithmetic.

    Returns {c_label: (probability, acceptance)} where acceptance is the
    squared overlap between the renormalized branch and the original state.
    """
    by_c = {}
    for (b, c), a in amps.items():
        by_c.setdefault(c, {})[(b, c)] = a
    out = {}
    for c, branch in by_c.items():
        prob = sum(abs(a) ** 2 for a in branch.values())
        overlap = sum(amps[k].conjugate() * a for k, a in branch.items()) / prob**0.5
        out[c] = (prob, abs(overlap) ** 2)
    return out


def max_abs_diff(a, b):
    """Largest amplitude-wise deviation between two sparse states."""
    keys = set(a.amps) | set(b.amps)
    return max(abs(a.amps.get(k, 0.0) - b.amps.get(k, 0.0)) for k in keys)


def b_weights(state):
    """Probability of each B label under a computational-basis readout."""
    weights = {}
    for (b, _), a in state.amps.items():
        weights[b] = weights.get(b, 0.0) + abs(a) ** 2
    return weights


def identity_unitary(labels):
    labels = tuple(labels)
    return LocalUnitary(labels, np.eye(len(labels), dtype=np.complex128))


def normal_block(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """The (len(rngs), 2, n, n) block ``haar_unitaries`` takes: one
    ``standard_normal((2, n, n))`` fill per generator, as ``random_unitary`` draws."""
    return np.stack([rng.standard_normal((2, n, n)) for rng in rngs])


def gram_schmidt_unitary(n, rng):
    """Reference: Gram-Schmidt, applied twice per column, on the complex
    Gaussian draw ``random_unitary`` makes; R's diagonal comes out positive."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = np.zeros_like(m)
    for j in range(n):
        v = m[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= (q[:, i].conj() @ v) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


# The random partition sampler as qseal had it before a sweep drew cell rows,
# copied unchanged apart from its name: the draw order it fixes is the
# specification ``adversary._random_cells`` keeps.
def reference_random_partition(labels: Sequence[Label], rng: np.random.Generator) -> ProjPartition:
    """Random assignment of labels to between 1 and len(labels) outcomes."""
    labels = sorted(labels)
    n_cells = int(rng.integers(1, len(labels) + 1))
    assignment = rng.integers(0, n_cells, size=len(labels))
    return ProjPartition(
        {label: f"cell{cell}" for label, cell in zip(labels, assignment)}
    )


# The partition sampler as qseal had it before ``states.sample_readout``,
# copied unchanged: it buckets the amplitudes per outcome, builds the sampled
# post-state and returns the whole distribution, so it shares no code with the
# sampler it checks beyond the draw's specification.


def _outcome_buckets(
    s: SparseState, p: ProjPartition
) -> dict[Label, tuple[float, dict[tuple[Label, Label], complex]]]:
    """(probability, amplitudes) of each outcome with nonzero probability."""
    buckets: dict[Label, dict[tuple[Label, Label], complex]] = {}
    for (b, c), a in s.amps.items():
        outcome = p.outcome_of.get(c)
        if outcome is None:
            raise ValueError(f"C label {c!r} is not covered by the partition")
        buckets.setdefault(outcome, {})[(b, c)] = a
    nonzero = {}
    for outcome, amps in buckets.items():
        prob = sum(abs(a) ** 2 for a in amps.values())
        if prob > 0.0:
            nonzero[outcome] = (prob, amps)
    return nonzero


def _post_state(prob: float, amps: Mapping[tuple[Label, Label], complex]) -> SparseState:
    scale = 1.0 / math.sqrt(prob)
    return SparseState({key: a * scale for key, a in amps.items()})


def measure_partition(
    s: SparseState, p: ProjPartition, rng_seed: int
) -> tuple[Label, SparseState, dict[Label, float]]:
    """Sample one projective outcome; deterministic for a fixed ``rng_seed``.

    Returns the sampled outcome label, the renormalized post-state, and the
    exact outcome distribution. Only the sampled post-state is built.
    """
    buckets = _outcome_buckets(s, p)
    distribution = {outcome: prob for outcome, (prob, _) in buckets.items()}
    outcomes = sorted(distribution)
    total = sum(distribution[o] for o in outcomes)
    draw = np.random.default_rng(rng_seed).random() * total
    cumulative = list(itertools.accumulate(distribution[o] for o in outcomes))
    sampled = outcomes[min(bisect.bisect_right(cumulative, draw), len(outcomes) - 1)]
    return sampled, _post_state(*buckets[sampled]), distribution


def oracle_readout(state: SparseState, rng_seed: int) -> Label:
    """The outcome ``measure_partition`` draws for a readout of every C label."""
    return measure_partition(state, ProjPartition.finest(state.c_labels()), rng_seed)[0]


# ``oaep.tu_overlap`` as qseal had it before it walked the reference over flat
# lists, copied unchanged apart from the norm, summed left to right as builtin
# ``sum`` did before 3.12: it builds the useless-pad ``SparseState`` (norm
# check, then prune) and takes ``squared_overlap`` with the reference. The
# current version must return the same bits and raise and warn alike.


def tu_overlap(inst: SealedInstance, excluded: set[int]) -> float:
    """Squared overlap between the full-pad and useless-pad superpositions.

    Computed from the actual state vectors. When ``excluded`` covers every
    pad the useless-pad state does not exist; by convention the overlap is 0
    and ``DegenerateUWarning`` is emitted.
    """
    k0, _n, _key = sealed_params(inst)
    support = 1 << k0
    bad = {r for r in excluded if not 0 <= r < support}
    if bad:
        raise ValueError(f"excluded pads out of range: {sorted(bad)}")
    if len(excluded) >= support:
        warnings.warn(
            "excluded set covers every pad; overlap is 0 by convention",
            DegenerateUWarning,
        )
        return 0.0
    excluded_labels = {format(r, f"0{k0}b") for r in excluded}
    kept = {
        key: a
        for key, a in inst.reference.amps.items()
        if key[0] not in excluded_labels
    }
    norm = math.sqrt(left_to_right_sum(abs(a) ** 2 for a in kept.values()))
    useless = SparseState({key: a / norm for key, a in kept.items()})
    return squared_overlap(inst.reference, useless)
