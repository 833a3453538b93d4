"""Sparse bipartite pure states and the exact linear algebra behind the protocol analyses.

States live on two registers: register B stays with the sealer, register C is
handed over. Basis labels are opaque strings, and amplitudes are stored as a
sparse map from (b_label, c_label) to a complex number. Encodings whose label
space is exponentially large but whose support is small therefore stay exact
and cheap.

Dense work on register C goes through one pair of block helpers: ``c_block``
lays a state's amplitudes on a C basis out as a |B| x |basis| array, and
``state_from_block`` turns such an array back into a ``SparseState``. A
unitary on C is then one matrix product on that array (``apply_unitary_c``).

The mixed-state trace distance works in the span of the states involved (one
QR column per state) instead of on a square matrix over their joint support,
and that joint support is capped at ``DENSE_DIM_CAP`` keys.
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

# Tolerances, one reason each. Every qseal module takes its tolerances from
# this block; a test rejects small float literals anywhere else in src/qseal.
NORM_TOL = 1e-9      # squared moduli and ensemble weights sum to 1 within this
PRUNE_TOL = 1e-15    # amplitudes below this are dropped
UNITARY_TOL = 1e-9   # largest entry of U^dagger U - I a LocalUnitary accepts
CHAIN_TOL = 1e-8     # slack per proof-chain step; the trace distance is LAPACK's
MARGIN_TOL = 1e-9    # how far a sweep row's s may sit above its closed form
EXACT_TOL = 1e-12    # two exact routes to one number (state, closed form) agree


class StateError(Exception):
    """Base class for state-level failures."""


class DimensionTooLarge(StateError):
    """A dense computation would exceed the supported dimension cap."""


class UnknownLabel(StateError):
    """A unitary declared total does not cover a label the state uses."""


class UncoveredLabel(StateError):
    """A measurement partition does not cover a label the state uses."""


@dataclass(frozen=True)
class SparseState:
    """Normalized pure state on registers B and C, stored sparsely.

    ``amps`` maps (b_label, c_label) pairs to complex amplitudes. Amplitudes
    below ``PRUNE_TOL`` in modulus are dropped at construction; the remaining
    amplitudes must have squared moduli summing to 1 within ``NORM_TOL``.
    Instances are treated as immutable.
    """

    amps: dict[tuple[Label, Label], complex]

    def __post_init__(self) -> None:
        # Summed before the prune, and compared so that NaN fails: a NaN
        # amplitude would otherwise be pruned away unseen.
        total = sum(abs(a) ** 2 for a in self.amps.values())
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(
                f"state is not normalized: sum of squared moduli is {total!r}"
            )
        pruned = {
            key: complex(a)
            for key, a in self.amps.items()
            if abs(a) >= PRUNE_TOL
        }
        object.__setattr__(self, "amps", pruned)

    @cached_property
    def norm_sq(self) -> float:
        """<self|self>, summed once by ``inner_product``; the construction-time
        sum of ``abs(a) ** 2`` rounds differently and would move overlap bits."""
        return inner_product(self, self).real

    @classmethod
    def uniform(cls, keys: Iterable[tuple[Label, Label]]) -> "SparseState":
        """Equal-amplitude superposition of the given (b, c) basis pairs."""
        keys = list(keys)
        amp = 1.0 / math.sqrt(len(keys))
        return cls({key: amp for key in keys})

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
        total = sum(q for q, _ in members)
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"ensemble weights sum to {total!r}, expected 1")
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
        defect = np.abs(m.conj().T @ m - np.eye(n)).max() if n else 0.0
        if defect > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
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
    """Trace distance between |psi><psi| and the ensemble's density operator.

    The difference |psi><psi| - sum_i q_i |phi_i><phi_i| is V D V^dagger, where
    the columns of V are psi and the members with q_i != 0, one row per key of
    the joint support, and D = diag(1, -q_1, ..., -q_m). With V = Q R (thin QR,
    Q with orthonormal columns), its nonzero eigenvalues are those of the small
    Hermitian matrix R D R^dagger; half the sum of their moduli (its singular
    values) is the trace distance. The joint-support square matrix is never
    formed.

    Raises:
        DimensionTooLarge: the joint active basis exceeds ``DENSE_DIM_CAP``.
    """
    index: dict[tuple[Label, Label], int] = {}
    for state in [psi] + [member for _, member in sigma.members]:
        for key in state.amps:
            index.setdefault(key, len(index))
    if len(index) > DENSE_DIM_CAP:
        raise DimensionTooLarge(
            f"joint basis has dimension {len(index)}, cap is {DENSE_DIM_CAP}"
        )
    members = [(q, member) for q, member in sigma.members if q != 0.0]
    columns = [psi] + [member for _, member in members]
    v = np.zeros((len(index), len(columns)), dtype=np.complex128)
    for j, state in enumerate(columns):
        for key, a in state.amps.items():
            v[index[key], j] = a
    r = np.linalg.qr(v, mode="r")
    weights = np.array([1.0] + [-q for q, _ in members])
    singular = np.linalg.svd((r * weights) @ r.conj().T, compute_uv=False)
    return min(1.0, max(0.0, 0.5 * float(singular.sum())))


def c_block(
    s: SparseState, basis: Sequence[Label]
) -> tuple[list[tuple[Label, Label]], np.ndarray, dict[tuple[Label, Label], complex]]:
    """The state's amplitudes on a C basis as a dense |B| x |basis| array.

    Returns (keys, block, outside): the rows are the B labels with support on
    the basis, sorted, ``block[i, j]`` is the amplitude on key
    ``keys[i * len(basis) + j]`` = (row i, basis[j]), and ``outside`` holds the
    amplitudes on C labels not in the basis.
    """
    col_of = {c: j for j, c in enumerate(basis)}
    outside = {key: a for key, a in s.amps.items() if key[1] not in col_of}
    rows = sorted({b for b, c in s.amps if c in col_of})
    row_of = {b: i for i, b in enumerate(rows)}
    block = np.zeros((len(rows), len(basis)), dtype=np.complex128)
    for (b, c), a in s.amps.items():
        if c in col_of:
            block[row_of[b], col_of[c]] = a
    return [(b, c) for b in rows for c in basis], block, outside


def state_from_block(
    keys: Sequence[tuple[Label, Label]],
    block: np.ndarray,
    outside: Mapping[tuple[Label, Label], complex] | None = None,
) -> SparseState:
    """The state with amplitude ``block.flat[k]`` on ``keys[k]``, plus ``outside``.

    Entries below ``PRUNE_TOL`` are left out. States built from one ``keys``
    list share its key tuples, which keeps a returned ensemble small.
    """
    flat = np.ravel(block)
    (kept,) = np.nonzero(np.abs(flat) >= PRUNE_TOL)
    amps = dict(outside or {})
    amps.update(zip([keys[k] for k in kept.tolist()], flat[kept].tolist()))
    return SparseState(amps)


def apply_unitary_c(s: SparseState, u: LocalUnitary, *, total: bool = False) -> SparseState:
    """Apply ``u`` to register C, leaving register B untouched.

    One matrix product on the state's block over ``u.basis`` (``c_block``).
    Labels outside the basis ride along unchanged unless ``total`` is set, in
    which case support on an uncovered label raises ``UnknownLabel``.
    """
    keys, block, outside = c_block(s, u.basis)
    if total and outside:
        _, c = next(iter(outside))
        raise UnknownLabel(f"C label {c!r} is not covered by the unitary")
    return state_from_block(keys, block @ u.matrix.T, outside)


def _outcome_buckets(
    s: SparseState, p: ProjPartition
) -> dict[Label, tuple[float, dict[tuple[Label, Label], complex]]]:
    """(probability, amplitudes) of each outcome with nonzero probability."""
    buckets: dict[Label, dict[tuple[Label, Label], complex]] = {}
    for (b, c), a in s.amps.items():
        outcome = p.outcome_of.get(c)
        if outcome is None:
            raise UncoveredLabel(f"C label {c!r} is not covered by the partition")
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


def collapse_branches(
    s: SparseState, p: ProjPartition
) -> dict[Label, tuple[float, SparseState]]:
    """Exact outcome probabilities and renormalized post-states for a partition.

    Raises:
        UncoveredLabel: the state has support on a label the partition omits.
    """
    return {
        outcome: (prob, _post_state(prob, amps))
        for outcome, (prob, amps) in _outcome_buckets(s, p).items()
    }


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


def random_unitary(labels: Iterable[Label], rng: np.random.Generator | int) -> LocalUnitary:
    """Haar-random unitary from the QR factorization of a seeded complex Gaussian.

    Each column of Q is multiplied by the phase d / |d| of R's matching
    diagonal entry, which makes the factorization unique (R's diagonal
    positive) and the distribution Haar (Mezzadri, "How to generate random
    matrices from the classical compact groups", 2007).
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    labels = tuple(labels)
    n = len(labels)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return LocalUnitary(labels, q * (d / np.abs(d)))


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
