"""Cheating strategies against sealed instances, with exact bookkeeping.

Every strategy here follows the measure-and-uncompute template: apply a
unitary to register C, make a projective measurement, apply the adjoint, and
hand the resulting mixture back for verification. For any strategy of that
shape the branch overlaps with the reference obey |<ref|branch_i>| = sqrt(q_i)
exactly, which is what makes the closed-form detection bound

    s <= p*sqrt(1-p) + (1-p)

hold trial after trial. Verification projects onto the reference, so an
honest return is always accepted and the bound carries no completeness-error
term. Every honest unseal is a computational-basis readout of register C, so
running it coherently and uncomputing it is exactly ``basis_cheat``.

With a unitary, a whole strategy runs on the reference's dense |B| x |C|
block, and its returned members become sparse states only when read. Without
one it stays sparse, so the basis and predicate cheats reach ``SUPPORT_CAP`` keys.
A random sweep evaluates its trials as stacks: one QR for the unitaries, one
rotation, and one trace-distance call per group of trials with as many
outcomes; a single strategy is a stack of one on the same path.

Two recovery numbers appear in a report. ``p`` counts every outcome that
pinpoints some message (for an indexed-picture instance the honest basis
measurement pinpoints one picture every time, so p = 1). ``p_bound`` is the
mass of the single best outcome pinpointing one fixed message, which is the
quantity the closed-form bound is stated for; the two coincide whenever the
instance seals a single message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .protocols import MULTIPICTURE, SealedInstance
from .states import (
    CHAIN_TOL,
    DENSE_DIM_CAP,
    NORM_TOL,
    PRUNE_TOL,
    Ensemble,
    Label,
    LocalUnitary,
    ProjPartition,
    SparseState,
    apply_unitary_c,  # noqa: F401  (not called; perfbench/test_oracles.py looks it up here)
    c_block,
    check_unitary,
    collapse_branches,
    haar_unitaries,
    project_accept_probability,
    span_trace_distance,
    squared_overlap,
    state_from_block,
    trace_distance_pure_vs_ensemble,
)


Predicate = Mapping[Label, int]


def soundness_bound(p: float) -> float:
    """Closed-form ceiling on detection for a recovery probability ``p``."""
    return p * math.sqrt(max(0.0, 1.0 - p)) + (1.0 - p)


@dataclass(frozen=True)
class CheatReport:
    """Exact outcome of one cheating strategy.

    ``outcome_table`` rows are (outcome label, branch probability q_i, branch
    acceptance |<ref|phi_i>|^2). ``returned`` is the mixture handed back for
    verification, held in ``members`` as an ``Ensemble`` or, with a unitary, as
    (keys, V): V's column 0 is the reference on ``keys``, column i member i.
    ``margin`` is the slack left under the closed-form bound. ``distance`` is
    the proof chain's trace distance when the report's maker computed it (a
    random sweep does, in groups), else None.
    """

    p: float
    s: float
    bound: float
    outcome_table: tuple[tuple[Label, float, float], ...]
    members: Ensemble | tuple = field(repr=False, compare=False)
    p_bound: float
    distance: float | None = field(default=None, repr=False, compare=False)

    @cached_property
    def returned(self) -> Ensemble:
        """Built on first read: a dense strategy's members become sparse states here."""
        if isinstance(self.members, Ensemble):
            return self.members
        keys, v = self.members
        states = (state_from_block(keys, phi) for phi in v[:, 1:].T)
        return Ensemble(tuple(zip((q for _, q, _ in self.outcome_table), states)))

    @property
    def margin(self) -> float:
        return self.bound - self.s

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "bound": self.bound,
            "margin": self.margin,
            "outcome_table": [list(row) for row in self.outcome_table],
        }


def _sparse_branches(reference: SparseState, partition: ProjPartition | None) -> tuple:
    """(table, active labels of each outcome, lazily, members, acceptance) with no unitary.

    The partition is diagonal, so each post-state is a rescaled piece of the
    reference: nothing needs undoing, and its C labels are the active ones.
    """
    if partition is None:
        partition = ProjPartition.finest(sorted(reference.c_labels()))
    branches = collapse_branches(reference, partition)
    outcomes = sorted(branches)
    returned = Ensemble(tuple(branches[outcome] for outcome in outcomes))
    table = [(outcome, q, squared_overlap(reference, post))
             for outcome, (q, post) in zip(outcomes, returned.members)]
    actives = (post.c_labels() for _, post in returned.members)
    return table, actives, returned, project_accept_probability(reference, returned)


def _cells(
    columns: Sequence[Label], active: list[int], partition: ProjPartition | None
) -> tuple[list[Label], dict[Label, list[int]]]:
    """(sorted outcomes, outcome -> its active column indices, ascending) of a
    partition, the finest over the active labels when it is None.

    Raises:
        ValueError: the partition omits an active label.
    """
    if partition is None:
        partition = ProjPartition.finest(sorted(columns[j] for j in active))
    cells: dict[Label, list[int]] = {}
    for j in active:
        outcome = partition.outcome_of.get(columns[j])
        if outcome is None:
            raise ValueError(f"C label {columns[j]!r} is not covered by the partition")
        cells.setdefault(outcome, []).append(j)
    return sorted(cells), cells


def _rotated_branches(
    reference: SparseState,
    basis: Sequence[Label],
    matrices: np.ndarray,
    partitions: Sequence[ProjPartition | None],
) -> tuple[list[tuple], list[tuple]]:
    """Rotate, measure, undo, for each unitary of a stack on one basis.

    ``matrices[t]`` is measured with ``partitions[t]``. Returns (results,
    groups): ``results[t]`` is what ``_sparse_branches`` returns, and each
    group is (trial indices, stacked V's, stacked q's) of the trials with one
    outcome count; each trial's V is a slice of its group's stack.

    The whole strategy stays in the reference's |B| x |C| block: rotate the
    basis columns once for the stack (psi @ U^T), take each outcome's columns
    of the rotated block (q is their squared norm), and undo with the
    matching rows of conj(U), one batched product per cell size. C labels
    outside the basis ride along under the identity: their columns are the
    reference's own and no product touches them. Active labels are the
    columns holding some amplitude of at least ``PRUNE_TOL`` after the
    rotation. ``SparseState``'s and ``Ensemble``'s norm checks run on V.

    Raises:
        ValueError: a partition omits an active label, or a norm check fails.
    """
    n = len(basis)
    columns = tuple(basis) + tuple(sorted(reference.c_labels() - set(basis)))
    b_labels, psi, _ = c_block(reference, columns)
    rotated = psi[:, :n] @ np.swapaxes(matrices, -1, -2)
    undo = matrices.conj()
    rides = psi[:, n:]  # every ride-along column holds reference amplitude, so it is active
    mass = np.concatenate(((np.abs(rotated) ** 2).sum(axis=-2), np.broadcast_to(
        (np.abs(rides) ** 2).sum(axis=0), (len(matrices), rides.shape[1]))), axis=-1)
    # Members live on the basis columns and the reference's support: V keeps the
    # (b, basis column) keys, b-major, then the reference's keys on ride-along columns.
    ride_b, ride_j = np.nonzero(rides)
    n_basis = psi.shape[0] * n
    keys = [(b, c) for b in b_labels for c in basis]
    keys += [(b_labels[i], columns[n + j]) for i, j in zip(ride_b.tolist(), ride_j.tolist())]
    ride_amps = rides[ride_b, ride_j]
    reference_row = np.concatenate((psi[:, :n].ravel(), ride_amps))
    ride_keys = np.arange(n_basis, len(keys))
    del psi, rides  # |B| x |C|; only the kept keys' amplitudes are read below
    trials = []  # (outcomes, cells, probs) per trial
    for t, held in enumerate((np.abs(rotated) >= PRUNE_TOL).any(axis=-2).tolist()):
        active = [j for j, h in enumerate(held) if h] + list(range(n, len(columns)))
        outcomes, cells = _cells(columns, active, partitions[t])
        order = [j for outcome in outcomes for j in cells[outcome]]
        starts = list(itertools.accumulate((len(cells[o]) for o in outcomes[:-1]), initial=0))
        trials.append((outcomes, cells, np.add.reduceat(mass[t, order], starts)))
    by_count: dict[int, list[int]] = {}
    for t, (outcomes, _, _) in enumerate(trials):
        by_count.setdefault(len(outcomes), []).append(t)
    results: list = [None] * len(trials)
    groups = []
    for m, group in by_count.items():
        # Row 0 of a trial's slice is the reference, row i member i.
        vts = np.zeros((len(group), m + 1, len(keys)), dtype=np.complex128)
        vts[:, 0] = reference_row
        qs = np.array([trials[t][2] for t in group])
        for vt, t, roots in zip(vts, group, np.sqrt(qs).tolist()):
            outcomes, cells, _ = trials[t]
            by_size: dict[int, list[tuple[int, list[int]]]] = {}
            for i, outcome in enumerate(outcomes, 1):
                j = [j for j in cells[outcome] if j < n]
                if j:
                    by_size.setdefault(len(j), []).append((i, j))
            # Member i on the basis columns is (its cell's rotated columns / sqrt(q_i))
            # times the matching rows of conj(U): one product for the cells of each size.
            for pairs in by_size.values():
                rows = [i for i, _ in pairs]
                j = np.array([j for _, j in pairs])
                branch = rotated[t][:, j] / np.array([roots[i - 1] for i in rows])[:, None]
                members = np.swapaxes(branch, 0, 1) @ undo[t][j]
                vt[rows, :n_basis] = members.reshape(len(rows), n_basis)
            if ride_j.size:
                row_of = [0] * (len(columns) - n)
                for i, outcome in enumerate(outcomes, 1):
                    for j in cells[outcome]:
                        if j >= n:
                            row_of[j - n] = i
                rows = np.array(row_of)[ride_j]
                vt[rows, ride_keys] = ride_amps / np.array(roots)[rows - 1]
        norms = (np.abs(vts) ** 2).sum(axis=-1)
        # The entry farthest from 1 in each V; a NaN is the argmax.
        worst = np.take_along_axis(norms, np.abs(norms - 1.0).argmax(axis=-1)[:, None], -1)
        for w, total in zip(worst[:, 0].tolist(), qs.sum(axis=-1).tolist()):
            if not abs(w - 1.0) <= NORM_TOL:
                raise ValueError(f"state is not normalized: sum of squared moduli is {w!r}")
            if not abs(total - 1.0) <= NORM_TOL:
                raise ValueError(f"ensemble weights sum to {total!r}, expected 1")
        # 1 - acceptance is |part of phi_i orthogonal to psi|^2 / |phi_i|^2: one minus
        # the overlap ratio keeps 1e-16 of round-off, 1e-8 once the chain takes sqrt.
        overlaps = (vts[:, 1:] @ vts[:, 0, :, None].conj()) / norms[:, :1, None]
        # In place, so that one complex array of V's size is live next to V at a time.
        away = overlaps * vts[:, :1]
        np.subtract(vts[:, 1:], away, out=away)
        away_sq = np.abs(away)
        del away
        np.square(away_sq, out=away_sq)
        acceptances = np.maximum(0.0, 1.0 - away_sq.sum(axis=-1) / norms[:, 1:])
        accepts = np.clip((qs * acceptances).sum(axis=-1), 0.0, 1.0)
        vs = np.swapaxes(vts, 1, 2)
        for t, v, probs, row, accept in zip(
                group, vs, qs.tolist(), acceptances.tolist(), accepts.tolist()):
            outcomes, cells, _ = trials[t]
            actives = [[columns[j] for j in cells[outcome]] for outcome in outcomes]
            results[t] = (list(zip(outcomes, probs, row)), actives, (keys, v), accept)
        groups.append((group, vs, qs))
    return results, groups


def _report(inst: SealedInstance, table, actives, members, accept, distance=None) -> CheatReport:
    """The report of one strategy from its branches (what ``_sparse_branches`` returns)."""
    recovery_mass: dict[str, float] = {}
    for (_, prob, _), active in zip(table, actives):
        if len(active) == 1:
            message = inst.decode.get(next(iter(active)))
            if message is not None:
                recovery_mass[message] = recovery_mass.get(message, 0.0) + prob
    p = min(1.0, float(sum(recovery_mass.values())))
    p_bound = min(1.0, float(max(recovery_mass.values(), default=0.0)))
    return CheatReport(p, 1.0 - accept, soundness_bound(p_bound), tuple(table), members,
                       p_bound, distance)


def strategy_report(
    inst: SealedInstance,
    unitary: LocalUnitary | None = None,
    partition: ProjPartition | None = None,
) -> CheatReport:
    """Evaluate one measure-and-uncompute strategy exactly.

    ``unitary=None`` means the identity; ``partition=None`` means the finest
    computational-basis partition over the active C labels.
    """
    if unitary is None:
        return _report(inst, *_sparse_branches(inst.reference, partition))
    (branches,), _ = _rotated_branches(
        inst.reference, unitary.basis, unitary.matrix[None], [partition])
    return _report(inst, *branches)


def basis_cheat(inst: SealedInstance) -> CheatReport:
    """Measure register C in the computational basis, then uncompute.

    This is also the generic cheat, the honest unseal run coherently.
    """
    return strategy_report(inst, None, None)


def predicate_cheat(inst: SealedInstance, g: Predicate) -> CheatReport:
    """Measure a two-valued classical predicate of the C label.

    The partition is diagonal in the computational basis, so no uncomputation
    is needed; a predicate constant on the support leaves the state untouched.
    """
    active = inst.reference.c_labels()
    missing = sorted(active - set(g))
    if missing:
        raise ValueError(f"predicate undefined on labels {missing}")
    bad = {label: v for label, v in g.items() if v not in (0, 1)}
    if bad:
        raise ValueError(f"predicate values must be 0 or 1, got {bad}")
    partition = ProjPartition({label: f"g={g[label]}" for label in active})
    return strategy_report(inst, None, partition)


def optimal_post_collapse_response(
    inst: SealedInstance, collapsed_b: Label
) -> tuple[float, SparseState]:
    """Best acceptance reachable once register B has collapsed to one index.

    Whatever is returned in register C, the acceptance is capped by the
    squared norm of the reference's component on that index; the cap is met
    by returning the matching branch itself.
    """
    if inst.protocol != MULTIPICTURE:
        raise ValueError(f"instance protocol is {inst.protocol!r}, not multipicture")
    block = {k: a for k, a in inst.reference.amps.items() if k[0] == collapsed_b}
    if not block:
        raise ValueError(f"no branch with index label {collapsed_b!r}")
    best_accept = sum(abs(a) ** 2 for a in block.values())
    scale = 1.0 / math.sqrt(best_accept)
    best_state = SparseState({k: a * scale for k, a in block.items()})
    return best_accept, best_state


def random_partition(labels: Sequence[Label], rng: np.random.Generator) -> ProjPartition:
    """Random assignment of labels to between 1 and len(labels) outcomes."""
    labels = sorted(labels)
    n_cells = int(rng.integers(1, len(labels) + 1))
    assignment = rng.integers(0, n_cells, size=len(labels))
    return ProjPartition(
        {label: f"cell{cell}" for label, cell in zip(labels, assignment)}
    )


# Trials per chunk of a sweep, so that a chunk's stacked V's (about
# |B| x |C| x |C| amplitudes per trial) hold at most this many amplitudes.
# With every trial in one chunk, bound-sweep's peak memory rose from 44.1 to
# 46.8 MiB; at this budget it is below the per-trial loop's, and a chunk still
# holds 13 trials at |B| = |C| = 17 and 8192 at |B| = |C| = 2.
_CHUNK_AMPLITUDES = 1 << 16


def random_strategy_sweep(
    inst: SealedInstance, trials: int, rng_seed: int
) -> list[CheatReport]:
    """Stress the bound with random unitaries and random partitions.

    Trial t draws from ``default_rng(rng_seed + t)`` what ``random_unitary``
    and then ``random_partition`` draw, so sweeps are reproducible and each
    report equals ``strategy_report`` on that unitary and partition. The
    trials run as stacks, chunked by ``_CHUNK_AMPLITUDES``: one QR, one
    unitarity check and one rotation per chunk, and one ``span_trace_distance``
    call per group of trials with as many outcomes. Each report stores its
    distance for ``proof_chain``.

    Raises ValueError when |B|*|C| exceeds ``DENSE_DIM_CAP``, the cap on the
    proof chain's trace distance, so that every sweep report can be checked;
    it also fixes ``bound-sweep``'s row set. It is not there for speed: 100
    trials with their proof chains take about 0.05 s at |B| = |C| = 17 and
    2.6 s at |B| = 2, |C| = 256 (one vCPU, single-threaded BLAS).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    labels = sorted(inst.reference.c_labels())
    n_b, n = len(inst.reference.b_labels()), len(labels)
    if n_b * n > DENSE_DIM_CAP:
        raise ValueError(f"sweep joint dimension {n_b * n} exceeds cap {DENSE_DIM_CAP}")
    per_chunk = max(1, _CHUNK_AMPLITUDES // (n_b * n * n))
    reports = []
    for first in range(0, trials, per_chunk):
        rngs = [np.random.default_rng(rng_seed + t)
                for t in range(first, min(trials, first + per_chunk))]
        unitaries = haar_unitaries(rngs, n)
        check_unitary(unitaries)
        partitions = [random_partition(labels, rng) for rng in rngs]
        branches, groups = _rotated_branches(inst.reference, labels, unitaries, partitions)
        distances = [0.0] * len(branches)
        for group, vs, qs in groups:
            for t, distance in zip(group, span_trace_distance(vs, qs).tolist()):
                distances[t] = distance
        reports.extend(_report(inst, *b, d) for b, d in zip(branches, distances))
    return reports


@dataclass(frozen=True)
class ProofChain:
    """The four quantities whose chain of inequalities backs the bound.

    acceptance_gap <= trace_distance <= convex_sum <= closed_form, each
    within numerical tolerance.
    """

    acceptance_gap: float
    trace_distance: float
    convex_sum: float
    closed_form: float

    def holds(self, tol: float = CHAIN_TOL) -> bool:
        return (
            self.acceptance_gap <= self.trace_distance + tol
            and self.trace_distance <= self.convex_sum + tol
            and self.convex_sum <= self.closed_form + tol
        )


def proof_chain(inst: SealedInstance, report: CheatReport) -> ProofChain:
    """Evaluate the inequality chain for one report.

    The trace distance is the one the report stores (a random sweep's),
    else ``span_trace_distance`` on the reference and the returned branches
    (for a sparse report through its Ensemble). The other
    three links are read off the report: the acceptance gap is ``s``, the
    convex sum weighs each branch's pure-state distance sqrt(1 - acceptance)
    by its probability, and the closed form is ``bound``. Raises ValueError
    when the joint basis (a dense report's block) exceeds ``DENSE_DIM_CAP`` keys.
    """
    if report.distance is not None:
        distance = report.distance
    elif isinstance(report.members, Ensemble):
        distance = trace_distance_pure_vs_ensemble(inst.reference, report.members)
    else:
        distance = span_trace_distance(report.members[1], [q for _, q, _ in report.outcome_table])
    convex = sum(
        q * math.sqrt(max(0.0, 1.0 - acceptance))
        for _, q, acceptance in report.outcome_table
    )
    return ProofChain(report.s, distance, convex, report.bound)
