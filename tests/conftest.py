"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: trace
distances come from numpy's eigensolver on dense matrices, measurement
statistics are enumerated with plain dictionary arithmetic, chain
distances come from a fixed bisection of every float in [0, 1], random
unitaries are checked against a Gram-Schmidt reference, the sparse strategy
route, a stack's reports, the rotated engine's outcome masses and the CSV
writer against copies of their previous versions (``previous_sparse_report``,
``_previous_reports``, ``previous_rotated_masses``, ``previous_rows_to_csv``),
random partitions against a copy of the sampler that built them label by
label, sampled readouts against a copy of the partition sampler that
``sample_readout`` replaced, ``oaep.tu_overlap`` against its definition in
exact rational arithmetic, and every ``math.fsum`` in qseal against
``exact_sum``'s ``Fraction`` total.
"""

import bisect
import functools
import itertools
import math
import operator
import warnings
from dataclasses import fields
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from qseal.adversary import (
    CheatReport,
    chain_links,
    complements,
    soundness_bound,
)
from qseal.harness import SweepRow
from qseal.oaep import DegenerateUWarning, sealed_params
from qseal.protocols import SealedInstance
from qseal.states import (
    PRUNE_TOL,
    Ensemble,
    Label,
    LocalUnitary,
    ProjPartition,
    SparseState,
    check_weights,
)

B_POOL = [f"b{i}" for i in range(6)]
C_POOL = [f"c{i}" for i in range(6)]

def exact_sum(values: Iterable[float]) -> float:
    """The floats' exact sum, rounded once: ``Fraction`` arithmetic, which
    shares no code with ``math.fsum``."""
    return float(sum(map(Fraction, values), Fraction(0)))


def chain_excess(report) -> float:
    """The most by which a report's proof-chain link exceeds the next one (<= 0 when exact)."""
    return max(
        report.s - report.trace_distance,
        report.trace_distance - report.convex_sum,
        report.convex_sum - report.bound,
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


# ``oaep.tu_overlap``'s definition in exact rational arithmetic. With P the
# projector onto the pads outside the excluded set, the useless-pad state is
# P|ref> / ||P|ref>||, so the squared overlap is
# |<ref|P ref>|^2 / (<P ref|P ref> <ref|ref>). Each inner product is an exact sum
# of conj(a) * b products and no square root is taken, so the oracle shares no
# arithmetic with the kept-over-total masses it checks; only its warnings and
# errors are the same.


def exact_inner(pairs: Iterable[tuple[complex, complex]]) -> tuple[Fraction, Fraction]:
    """(real, imaginary) parts of the sum of conj(a) * b over the (a, b) pairs,
    exactly. Every float is an integer over a power of two, so scaling each
    part by the largest denominator present makes all the products integers."""
    ratios = [x.as_integer_ratio() for a, b in pairs for x in (a.real, a.imag, b.real, b.imag)]
    scale = max((d for _, d in ratios), default=1)
    ar, ai, br, bi = ([n * (scale // d) for n, d in ratios[i::4]] for i in range(4))
    re = sum(map(operator.mul, ar, br)) + sum(map(operator.mul, ai, bi))
    im = sum(map(operator.mul, ar, bi)) - sum(map(operator.mul, ai, br))
    return Fraction(re, scale * scale), Fraction(im, scale * scale)


def tu_overlap(inst: SealedInstance, excluded: set[int]) -> float:
    """Squared overlap between the full-pad and useless-pad superpositions,
    the exact value rounded once.

    When ``excluded`` covers every pad the useless-pad state does not exist;
    by convention the overlap is 0 and ``DegenerateUWarning`` is emitted. When
    it covers every pad the reference holds, P|ref> = 0 cannot be normalized.
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
    amps = inst.reference.amps
    # P|ref> has ref's amplitudes on the kept keys, so <ref|P ref> and
    # <P ref|P ref> are both the sum of conj(a) * a over those keys.
    kept = [(a, a) for (b, _), a in amps.items() if b not in excluded_labels]
    ref_p_ref = p_ref_p_ref = exact_inner(kept)
    if p_ref_p_ref == (0, 0):
        raise ValueError("state is not normalized: sum of squared moduli is 0.0")
    ref_ref = exact_inner((a, a) for a in amps.values())
    overlap_sq = ref_p_ref[0] ** 2 + ref_p_ref[1] ** 2
    return float(overlap_sq / (p_ref_p_ref[0] * ref_ref[0]))


# The sparse strategy route as qseal had it before its per-branch work was cut:
# ``states.inner_product``, ``squared_overlap`` with each norm summed as
# <s|s> by ``inner_product`` (inlined in the table build), ``collapse_branches``,
# and the table build of ``adversary._sparse_branches`` with its ``_reports``,
# copied unchanged apart from their names. The rewritten route must give every
# bit these give. One rule has moved since: qseal now sums the products of an
# inner product correctly rounded, part by part, so ``previous_inner_product``
# adds the same products exactly (``exact_sum``) and rounds each part once.


def previous_inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared support: each product rounded as Python's complex
    multiplication rounds it, each part of their sum exact, then rounded once."""
    small, big, conj_small = (
        (a.amps, b.amps, True) if len(a.amps) <= len(b.amps) else (b.amps, a.amps, False)
    )
    products = []
    for key, amp in small.items():
        other = big.get(key)
        if other is None:
            continue
        products.append(amp.conjugate() * other if conj_small else other.conjugate() * amp)
    return complex(exact_sum(p.real for p in products), exact_sum(p.imag for p in products))


def previous_collapse_branches(
    s: SparseState, p: ProjPartition
) -> dict[Label, tuple[float, SparseState]]:
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


def _previous_reports(inst, qs, tables, lones, members):
    cs = complements(qs)
    links = zip(*(column.tolist() for column in chain_links(qs, cs)))
    reports = []
    for table, rests, lone, mixture, (s, distance, convex) in zip(
            tables, cs.tolist(), lones, members, links):
        pinned = [(q, c) for (_, q, _), c, label in zip(table, rests, lone)
                  if inst.decode.get(label) is not None]
        p = min(1.0, math.fsum(q for q, _ in pinned))
        p_bound, c = max(pinned, default=(0.0, 1.0))
        p_bound = min(1.0, p_bound)
        bound = soundness_bound(p_bound, c)
        reports.append(CheatReport(p, s, bound, tuple(table), mixture, p_bound, distance, convex))
    return reports


def previous_sparse_report(inst: SealedInstance, partition: ProjPartition) -> CheatReport:
    """The previous ``_sparse_branches``; its ``Ensemble`` re-boxed each weight."""
    reference = inst.reference
    branches = previous_collapse_branches(reference, partition)
    outcomes = sorted(branches)
    returned = Ensemble(tuple((float(q), post) for q, post in (branches[o] for o in outcomes)))
    # The previous ``squared_overlap``, |<ref|post>|^2 / (<ref|ref> <post|post>), each
    # norm summed by ``previous_inner_product``; <ref|ref> is the same for every
    # branch, so it is summed once here, with the same bits.
    ref_sq = previous_inner_product(reference, reference).real
    table = [(outcome, q, abs(previous_inner_product(reference, post)) ** 2
              / (ref_sq * previous_inner_product(post, post).real))
             for outcome, (q, post) in zip(outcomes, returned.members)]
    actives = (post.c_labels() for _, post in returned.members)
    lones = (next(iter(labels)) if len(labels) == 1 else None for labels in actives)
    (report,) = _previous_reports(inst, np.array([[q for _, q, _ in table]]), [table], [lones], [returned])
    return report


# The rotated engine's outcome masses as qseal had them before it scattered
# each column into its (trial, outcome) slot: ``adversary._rotated_branches``
# up to its pinned mask, copied unchanged. It marks each trial's cells in a
# (trials, outcomes, columns) indicator and sums the masses under it with
# numpy's pairwise sum, which runs left to right below 8 columns.
# ``states.c_block`` and ``adversary._outcome_codes`` (with its
# ``_cell_names``) are copied unchanged too, so the oracle lays out the block
# and codes the outcomes without the engine's helpers.


@functools.cache
def _previous_cell_names(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(the names "cell0" ... f"cell{n - 1}" in sorted order, each cell number's rank there)."""
    order = sorted(range(n), key=lambda k: f"cell{k}")
    return np.array([f"cell{k}" for k in order], dtype=object), np.argsort(order)


def _previous_outcome_codes(columns: Sequence[Label], partitions) -> tuple[np.ndarray, np.ndarray]:
    """(sorted outcome names, each trial's code per column: its outcome's index in
    the names, -1 if uncovered) of a (trials, columns) int array of cell numbers,
    cell k named f"cell{k}", or of one ``ProjPartition`` per trial."""
    if isinstance(partitions, np.ndarray):
        names, rank = _previous_cell_names(partitions.shape[-1])
        return names, rank[partitions]
    rows = [[p.outcome_of.get(c) for c in columns] for p in partitions]
    names = sorted({outcome for row in rows for outcome in row} - {None})
    code = {name: i for i, name in enumerate(names)} | {None: -1}
    return np.array(names, dtype=object), np.array([[code[o] for o in row] for row in rows])


def _previous_c_block(
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


def previous_rotated_masses(inst: SealedInstance, basis, matrices, partitions):
    """(q's, pinned mask, column masses, active-column mask, outcome codes) of a
    stack, each (trials, columns), as the indicator route gave them."""
    reference = inst.reference
    _, psi, outside = _previous_c_block(reference, basis)
    riders = sorted({c for _, c in outside})
    columns = tuple(basis) + tuple(riders)
    # Each rider's mass, added left to right in sorted-B order as numpy adds
    # the rows of a block of two or more columns.
    rider_at = {c: j for j, c in enumerate(riders)}
    entries = sorted(outside.items(), key=lambda item: item[0][0])
    at = np.fromiter((rider_at[c] for (_, c), _ in entries), dtype=np.intp, count=len(entries))
    amps = np.fromiter((a for _, a in entries), dtype=np.complex128, count=len(entries))
    rider_mass = np.bincount(at, weights=np.abs(amps) ** 2, minlength=len(riders))
    moduli = np.abs(psi @ np.swapaxes(matrices, -1, -2))
    rides = np.ones((len(matrices), len(riders)), dtype=bool)  # hold reference mass: active
    mass = np.concatenate(((moduli ** 2).sum(axis=-2), rides * rider_mass), axis=-1)
    held = np.concatenate(((moduli >= PRUNE_TOL).any(axis=-2), rides), axis=-1)
    del psi, moduli
    names, codes = _previous_outcome_codes(columns, partitions)
    uncovered = np.argwhere(held & (codes < 0))
    if len(uncovered):
        raise ValueError(f"C label {columns[uncovered[0, 1]]!r} is not covered by the partition")
    used = np.zeros((len(matrices), len(names)), dtype=bool)
    at_t, at_j = np.nonzero(held)
    used[at_t, codes[at_t, at_j]] = True
    # Each column's outcome index among its trial's sorted outcomes, -1 if inactive.
    cell_of = np.where(held, np.take_along_axis(np.cumsum(used, axis=-1) - 1, codes, -1), -1)
    counts = used.sum(axis=-1)
    in_cell = cell_of[:, None] == np.arange(counts.max())[:, None]
    qs = np.zeros(mass.shape)
    qs[:, :in_cell.shape[1]] = (mass[:, None] * in_cell).sum(axis=-1)
    for total in qs.sum(axis=-1).tolist():
        check_weights(total)
    decodes = np.array([inst.decode.get(c) is not None for c in columns] + [False])
    pinned = np.zeros(qs.shape, dtype=bool)  # each outcome's lone active column's flag
    pinned[:, :in_cell.shape[1]] = decodes[  # at -1, none or several: False
        np.where(in_cell.sum(axis=-1) == 1, in_cell.argmax(axis=-1), -1)]
    return qs, pinned, mass, held, codes


def previous_rows_to_csv(rows: Sequence) -> str:
    """The previous ``harness.rows_to_csv``: each value formatted on its own,
    ``%.17g`` for a float and ``str`` otherwise, header from ``SweepRow`` for no rows."""
    def cell(value) -> str:
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    names = [f.name for f in fields(rows[0] if rows else SweepRow)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(cell(getattr(row, n)) for n in names))
    return "\n".join(lines) + "\n"
