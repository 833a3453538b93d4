"""Sparse bipartite pure states and the exact linear algebra behind the protocol analyses.

States live on two registers: register B stays with the sealer, register C is
handed over. Basis labels are opaque strings, and amplitudes are stored as a
sparse map from (b_label, c_label) to a complex number. Encodings whose label
space is exponentially large but whose support is small therefore stay exact
and cheap.

Dense work on register C starts from ``c_block``, which lays a state's
amplitudes on a C basis out as a |B| x |basis| array. Strategies rotate that
array in ``adversary._rotated_branches``, which keeps only outcome masses;
``apply_unitary_c`` rotates one state, and builds a dense report's returned
mixture when it is read.

``collapse_branches`` gives every outcome of a partition of C with its
post-state; ``sample_readout`` draws one label of a basis readout of C.

The mixed-state trace distance ``trace_distance_pure_vs_ensemble`` works in the
span of the states involved (one QR column per state, ``span_trace_distance``)
instead of on a square matrix over their joint support, which is capped at
``DENSE_DIM_CAP`` keys. No strategy calls it: a proof chain reads its outcome
masses (``adversary.chain_links``), and the tests keep these two as its oracle.

``haar_unitaries`` and ``check_unitary`` take a stack of matrices (leading
axes), so a random sweep runs one QR for its Haar draws (a chunk's
(trials, 2, n, n) normal block, each slice filled as ``default_rng(seed + t)``
would fill it) and one unitarity check. numpy runs a stack slice by slice
through the same LAPACK calls, so a sweep's unitaries have the bits of
``random_unitary`` on each trial's generator.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

Label = str

DENSE_DIM_CAP = 512

# Tolerances, one meaning each. Every qseal module takes its tolerances from
# this block; a test rejects small float literals anywhere else in src/qseal.
PRUNE_TOL = 1e-15    # amplitudes below this are dropped
NORM_TOL = 1e-9      # how far an input's norm, ensemble weights or U^dagger U may miss exact
EXACT_TOL = 1e-12    # how far two exact routes to one number may differ (chain links, margins)


@dataclass(frozen=True)
class SparseState:
    """Normalized pure state on registers B and C, stored sparsely.

    ``amps`` maps (b_label, c_label) pairs to complex amplitudes. Amplitudes
    below ``PRUNE_TOL`` in modulus are dropped at construction; the remaining
    amplitudes must have squared moduli summing to 1 within ``NORM_TOL``.
    The state keeps its own copy of the map, each amplitude an exact
    ``complex``. Instances are treated as immutable.
    """

    amps: dict[tuple[Label, Label], complex]

    def __post_init__(self) -> None:
        amps = self.amps
        values = amps.values()
        # Summed before the prune, so that a NaN amplitude fails instead of vanishing.
        check_norm(_total_or_inf(map(pow, map(abs, values), itertools.repeat(2))))
        # Exact complex amplitudes of which none is pruned: the copy is what
        # the comprehension would build, without a Python-level loop.
        if {*map(type, values)} == {complex} and min(map(abs, values)) >= PRUNE_TOL:
            kept = dict(amps)
        else:
            kept = {key: complex(a) for key, a in amps.items() if abs(a) >= PRUNE_TOL}
        object.__setattr__(self, "amps", kept)

    @cached_property
    def norm_sq(self) -> float:
        """<self|self>, summed once by ``inner_product``; the construction-time
        sum of ``abs(a) ** 2`` rounds differently and would move overlap bits.
        ``oaep.tu_overlap`` sums the same terms in the same order from arrays."""
        return inner_product(self, self).real

    def b_labels(self) -> set[Label]:
        return {b for b, _ in self.amps}

    def c_labels(self) -> set[Label]:
        return {c for _, c in self.amps}



@dataclass(frozen=True)
class Ensemble:
    """Mixture of pure states with outcome probabilities as weights."""

    members: tuple[tuple[float, SparseState], ...]

    def __post_init__(self) -> None:
        members = tuple((float(q), state) for q, state in self.members)
        if any(q < 0.0 for q, _ in members):
            raise ValueError("ensemble weights must be nonnegative")
        check_weights(_total_or_inf(q for q, _ in members))
        object.__setattr__(self, "members", members)

    @classmethod
    def pure(cls, state: SparseState) -> "Ensemble":
        return cls(((1.0, state),))


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary acting on register C over an explicit label basis.

    ``matrix[j, i]`` is the amplitude sent from basis label i to basis label j.
    Labels outside ``basis`` are left alone (identity extension); the basis may
    also list labels the state has no support on, which is how callers bring
    ancilla-style work labels into register C.
    """

    basis: tuple[Label, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        n = len(self.basis)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match basis size {n}")
        if len(set(self.basis)) != n:
            raise ValueError("basis labels must be distinct")
        check_unitary(m)
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ProjPartition:
    """Partition of C labels into named projective-measurement outcomes."""

    outcome_of: dict[Label, Label]

    @classmethod
    def finest(cls, labels: Iterable[Label]) -> "ProjPartition":
        """One outcome per label, named after the label itself."""
        return cls({label: label for label in labels})


def _total_or_inf(values: Iterable[float]) -> float:
    """``math.fsum``, or inf where a value or the total overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def check_norm(total: float) -> None:
    """Raise ValueError unless a state's squared moduli sum to 1 within ``NORM_TOL``; NaN fails."""
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: sum of squared moduli is {total!r}")


def check_weights(total: float) -> None:
    """Raise ValueError unless an ensemble's weights sum to 1 within ``NORM_TOL``; NaN fails."""
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"ensemble weights sum to {total!r}, expected 1")


def inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared support."""
    small, big, conj_small = (
        (a.amps, b.amps, True) if len(a.amps) <= len(b.amps) else (b.amps, a.amps, False)
    )
    total = 0.0 + 0.0j
    for key, amp in small.items():
        other = big.get(key)
        if other is None:
            continue
        total += amp.conjugate() * other if conj_small else other.conjugate() * amp
    return total


def squared_overlap(a: SparseState, b: SparseState) -> float:
    """|<a|b>|^2 divided by both squared norms, cancelling representation round-off.

    The squared norms are cached on each state (``SparseState.norm_sq``), so a
    call costs O(min(|a|, |b|)) after the first use of each state.
    """
    return abs(inner_product(a, b)) ** 2 / (a.norm_sq * b.norm_sq)


def trace_distance_pure(a: SparseState, b: SparseState) -> float:
    """Trace distance between two pure states, sqrt(1 - |<a|b>|^2)."""
    return math.sqrt(max(0.0, 1.0 - squared_overlap(a, b)))


def trace_distance_pure_vs_ensemble(psi: SparseState, sigma: Ensemble) -> float:
    """Trace distance between |psi><psi| and the ensemble's density operator:
    ``span_trace_distance`` with one row per key of the joint support, which
    is held to ``DENSE_DIM_CAP`` keys (else ValueError) before V is allocated."""
    index: dict[tuple[Label, Label], int] = {}
    for state in [psi] + [member for _, member in sigma.members]:
        for key in state.amps:
            index.setdefault(key, len(index))
    if len(index) > DENSE_DIM_CAP:
        raise ValueError(f"joint basis has dimension {len(index)}, cap is {DENSE_DIM_CAP}")
    members = [(q, member) for q, member in sigma.members if q != 0.0]
    v = np.zeros((len(index), len(members) + 1), dtype=np.complex128)
    for j, state in enumerate([psi] + [member for _, member in members]):
        for key, a in state.amps.items():
            v[index[key], j] = a
    return span_trace_distance(v, [q for q, _ in members])


def span_trace_distance(v: np.ndarray, q: Sequence[float]) -> float:
    """Trace distance between |psi><psi| (column 0 of V) and sum_i q_i |phi_i><phi_i|
    (phi_i column i), where V has at most ``DENSE_DIM_CAP`` rows (else ValueError).

    The difference is V D V^dagger, D = diag(1, -q_1, ..., -q_m). With V = Q R
    (thin QR), its nonzero eigenvalues are those of the small Hermitian matrix
    R D R^dagger; half the sum of their moduli (its singular values) is the
    trace distance, and no square matrix over V's rows is formed.
    """
    if len(v) > DENSE_DIM_CAP:
        raise ValueError(f"joint basis has dimension {len(v)}, cap is {DENSE_DIM_CAP}")
    r = np.linalg.qr(v, mode="r")
    weights = np.concatenate(([1.0], -np.asarray(q, dtype=float)))
    singular = np.linalg.svd((r * weights) @ r.conj().T, compute_uv=False)
    return float(np.clip(0.5 * singular.sum(), 0.0, 1.0))


def c_block(
    s: SparseState, basis: Sequence[Label]
) -> tuple[list[Label], np.ndarray, dict[tuple[Label, Label], complex]]:
    """The state's amplitudes on a C basis as a dense |B| x |basis| array.

    Returns (rows, block, outside): ``rows`` are the B labels with support on
    the basis, sorted, ``block[i, j]`` is the amplitude on key
    (rows[i], basis[j]), and ``outside`` holds the amplitudes on C labels not
    in the basis. No key tuple is built.
    """
    col_of = {c: j for j, c in enumerate(basis)}
    outside = {key: a for key, a in s.amps.items() if key[1] not in col_of}
    rows = sorted({b for b, c in s.amps if c in col_of})
    row_of = {b: i for i, b in enumerate(rows)}
    block = np.zeros((len(rows), len(basis)), dtype=np.complex128)
    for (b, c), a in s.amps.items():
        if c in col_of:
            block[row_of[b], col_of[c]] = a
    return rows, block, outside


def apply_unitary_c(s: SparseState, u: LocalUnitary) -> SparseState:
    """Apply ``u`` to register C, leaving register B untouched.

    One matrix product on the state's block over ``u.basis`` (``c_block``);
    entries below ``PRUNE_TOL`` are left out before any key is built. Labels
    outside the basis ride along unchanged.
    """
    rows, block, outside = c_block(s, u.basis)
    flat = (block @ u.matrix.T).ravel()
    (kept,) = np.nonzero(np.abs(flat) >= PRUNE_TOL)
    n = len(u.basis)
    amps = dict(outside)
    amps.update(((rows[k // n], u.basis[k % n]), a)
                for k, a in zip(kept.tolist(), flat[kept].tolist()))
    return SparseState(amps)


def collapse_branches(
    s: SparseState, p: ProjPartition
) -> dict[Label, tuple[float, SparseState]]:
    """Exact outcome probabilities and renormalized post-states for a partition.

    Raises:
        ValueError: the state has support on a label the partition omits.
    """
    buckets: dict[Label, dict[tuple[Label, Label], complex]] = {}
    for (b, c), a in s.amps.items():
        outcome = p.outcome_of.get(c)
        if outcome is None:
            raise ValueError(f"C label {c!r} is not covered by the partition")
        buckets.setdefault(outcome, {})[(b, c)] = a
    branches: dict[Label, tuple[float, SparseState]] = {}
    for outcome, amps in buckets.items():
        prob = math.fsum(abs(a) ** 2 for a in amps.values())
        scale = 1.0 / math.sqrt(prob)  # > 0: a state keeps no amplitude below PRUNE_TOL
        branches[outcome] = (prob, SparseState({key: a * scale for key, a in amps.items()}))
    return branches


def sample_readout(s: SparseState, rng_seed: int) -> Label:
    """One computational-basis readout of register C; deterministic for a fixed ``rng_seed``.

    Label c has weight sum_b |a(b, c)|^2, added in the order of ``s.amps``. The
    draw ``default_rng(rng_seed).random()`` times the total weight, the last
    running sum over the labels in sorted order, is located on those sums.
    The running sums are a CDF, so they add in label order, not by ``math.fsum``.
    """
    weights: dict[Label, float] = {}
    for (_, c), a in s.amps.items():
        weights[c] = weights.get(c, 0.0) + abs(a) ** 2
    labels = sorted(weights)
    cumulative = list(itertools.accumulate(weights[c] for c in labels))
    draw = np.random.default_rng(rng_seed).random() * cumulative[-1]
    return labels[min(bisect.bisect_right(cumulative, draw), len(labels) - 1)]


def project_accept_probability(reference: SparseState, returned: Ensemble) -> float:
    """Probability that projecting the returned state onto ``reference`` accepts.

    Sum over members of weight times squared overlap. Overlaps are divided by
    the computed squared norms and the total is clamped to [0, 1], so an
    untouched reference is accepted with probability exactly 1. The squared
    norms are cached per state (``SparseState.norm_sq``), so the reference's
    full support is summed once, not once per member.
    """
    total = 0.0
    for q, state in returned.members:
        if q == 0.0:
            continue
        raw = abs(inner_product(reference, state)) ** 2
        total += q * raw / (reference.norm_sq * state.norm_sq)
    return min(1.0, max(0.0, total))


def check_unitary(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix in ``m`` (one, or a stack on the
    leading axes) has U^dagger U within ``NORM_TOL`` of I, entry by entry:
    an input check, as loose as the norm's. The message gives the first
    failing matrix's defect. A NaN fails."""
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    defects = np.abs(gram - np.eye(m.shape[-1])).max(axis=(-2, -1), initial=0.0).ravel()
    failing = ~(defects <= NORM_TOL)
    if failing.any():
        raise ValueError(f"matrix is not unitary (defect {defects[failing.argmax()]:.3e})")


def haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """The n x n Haar-random unitaries of a (T, 2, n, n) standard normal block,
    as a (T, n, n) stack.

    Slice t holds real parts, then imaginary parts: the values of one
    ``standard_normal((2, n, n))`` fill, or of two ``normal(size=(n, n))`` draws.
    Their complex stack goes through one QR. Each column of Q is multiplied by
    the phase d / |d| of R's matching diagonal entry, which makes the
    factorization unique (R's diagonal positive) and the distribution Haar
    (Mezzadri, "How to generate random matrices from the classical compact
    groups", 2007). Not checked for unitarity: see ``check_unitary``.
    """
    gaussians = np.empty(normals[:, 0].shape, dtype=np.complex128)
    gaussians.real, gaussians.imag = normals[:, 0], normals[:, 1]
    q, r = np.linalg.qr(gaussians)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(labels: Iterable[Label], rng: np.random.Generator | int) -> LocalUnitary:
    """Haar-random unitary on ``labels`` from a seeded complex Gaussian
    (``haar_unitaries`` on one ``standard_normal((1, 2, n, n))`` block)."""
    labels = tuple(labels)
    n = len(labels)
    normals = np.random.default_rng(rng).standard_normal((1, 2, n, n))  # a Generator passes through
    return LocalUnitary(labels, haar_unitaries(normals)[0])


def state_to_dict(state: SparseState) -> dict:
    """JSON-ready form: {"amps": [[b, c, re, im], ...]} sorted by key."""
    rows = [
        [b, c, a.real, a.imag] for (b, c), a in sorted(state.amps.items())
    ]
    return {"amps": rows}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def state_from_dict(data, where: str = "state") -> SparseState:
    """Rebuild a state from its JSON form; ``SparseState`` checks the norm.
    A malformed entry raises ``ValueError`` naming it, prefixed by ``where``."""
    rows = data.get("amps") if isinstance(data, Mapping) else None
    if not isinstance(rows, list):
        raise ValueError(f'{where} needs an "amps" list')
    amps: dict[tuple[Label, Label], complex] = {}
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 4 and isinstance(row[0], str)
                and isinstance(row[1], str) and _is_number(row[2]) and _is_number(row[3])):
            raise ValueError(f"{where}.amps[{i}] must be [b, c, re, im] with text labels, got {row!r}")
        key = (row[0], row[1])
        if key in amps:
            raise ValueError(f"{where}.amps[{i}] is a duplicate amplitude entry for {key}")
        amps[key] = complex(row[2], row[3])
    return SparseState(amps)


def ensemble_from_dict(data) -> Ensemble:
    """A returned state's JSON form: a state, or {"members": [{"weight", "state"}, ...]}."""
    if isinstance(data, Mapping) and "amps" in data:
        return Ensemble.pure(state_from_dict(data))
    members = data.get("members") if isinstance(data, Mapping) else None
    if not isinstance(members, list):
        raise ValueError('returned state needs an "amps" list or a "members" list')
    parsed = []
    for i, member in enumerate(members):
        weight = member.get("weight") if isinstance(member, Mapping) else None
        if not _is_number(weight):
            raise ValueError(f"members[{i}].weight must be a number, got {weight!r}")
        parsed.append((weight, state_from_dict(member.get("state"), f"members[{i}].state")))
    return Ensemble(tuple(parsed))
