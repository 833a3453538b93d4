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

Two recovery numbers appear in a report. ``p`` counts every outcome that
pinpoints some message (for an indexed-picture instance the honest basis
measurement pinpoints one picture every time, so p = 1). ``p_bound`` is the
mass of the single best outcome pinpointing one fixed message, which is the
quantity the closed-form bound is stated for; the two coincide whenever the
instance seals a single message.
"""

from __future__ import annotations

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
    collapse_branches,
    project_accept_probability,
    random_unitary,
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
    ``margin`` is the slack left under the closed-form bound.
    """

    p: float
    s: float
    bound: float
    outcome_table: tuple[tuple[Label, float, float], ...]
    members: Ensemble | tuple = field(repr=False, compare=False)
    p_bound: float

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


def _rotated_branches(
    reference: SparseState, unitary: LocalUnitary, partition: ProjPartition | None
) -> tuple:
    """Rotate, measure, undo; returns what ``_sparse_branches`` does.

    The whole strategy stays in the reference's |B| x |C| block: rotate once
    (psi @ U^T), take each outcome's columns of the rotated block (q is their
    squared norm), and undo with the matching rows of conj(U). C labels
    outside the unitary's basis ride along under the identity. Active labels
    are the columns holding some amplitude of at least ``PRUNE_TOL`` after
    the rotation. ``SparseState``'s and ``Ensemble``'s norm checks run on V.

    Raises:
        ValueError: the partition omits an active label, or a norm check fails.
    """
    n = len(unitary.basis)
    columns = unitary.basis + tuple(sorted(reference.c_labels() - set(unitary.basis)))
    keys, psi, _ = c_block(reference, columns)
    u = np.eye(len(columns), dtype=np.complex128)
    u[:n, :n] = unitary.matrix
    rotated = psi @ u.T
    active = np.nonzero((np.abs(rotated) >= PRUNE_TOL).any(axis=0))[0].tolist()
    if partition is None:
        partition = ProjPartition.finest(sorted(columns[j] for j in active))
    cells: dict[Label, list[int]] = {}
    for j in active:
        outcome = partition.outcome_of.get(columns[j])
        if outcome is None:
            raise ValueError(f"C label {columns[j]!r} is not covered by the partition")
        cells.setdefault(outcome, []).append(j)
    # Members live on the basis columns and the reference's support: V keeps those keys.
    kept = np.flatnonzero((psi != 0) | (np.arange(len(columns)) < n))
    outcomes = sorted(cells)
    v = np.empty((kept.size, len(outcomes) + 1), dtype=np.complex128)
    v[:, 0], probs = psi.ravel()[kept], []
    for i, outcome in enumerate(outcomes, 1):
        branch = rotated[:, cells[outcome]]
        probs.append(float(np.vdot(branch, branch).real))
        v[:, i] = ((branch / math.sqrt(probs[-1])) @ u[cells[outcome], :].conj()).ravel()[kept]
    norms = (np.abs(v) ** 2).sum(axis=0)
    worst = float(norms[np.argmax(np.abs(norms - 1.0))])  # a NaN is the argmax
    if not abs(worst - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: sum of squared moduli is {worst!r}")
    if not abs(sum(probs) - 1.0) <= NORM_TOL:
        raise ValueError(f"ensemble weights sum to {sum(probs)!r}, expected 1")
    # 1 - acceptance is |part of phi_i orthogonal to psi|^2 / |phi_i|^2: one minus
    # the overlap ratio keeps 1e-16 of round-off, 1e-8 once the chain takes sqrt.
    away = v[:, 1:] - np.outer(v[:, 0], (v[:, 0].conj() @ v[:, 1:]) / norms[0])
    acceptances = np.maximum(0.0, 1.0 - (np.abs(away) ** 2).sum(axis=0) / norms[1:])
    actives = ([columns[j] for j in cells[outcome]] for outcome in outcomes)
    accept = min(1.0, max(0.0, float(np.dot(probs, acceptances))))
    keys = [keys[k] for k in kept.tolist()]
    return list(zip(outcomes, probs, acceptances.tolist())), actives, (keys, v), accept


def strategy_report(
    inst: SealedInstance,
    unitary: LocalUnitary | None = None,
    partition: ProjPartition | None = None,
) -> CheatReport:
    """Evaluate one measure-and-uncompute strategy exactly.

    ``unitary=None`` means the identity; ``partition=None`` means the finest
    computational-basis partition over the active C labels.
    """
    table, actives, members, accept = (
        _sparse_branches(inst.reference, partition) if unitary is None
        else _rotated_branches(inst.reference, unitary, partition))
    recovery_mass: dict[str, float] = {}
    for (_, prob, _), active in zip(table, actives):
        if len(active) == 1:
            message = inst.decode.get(next(iter(active)))
            if message is not None:
                recovery_mass[message] = recovery_mass.get(message, 0.0) + prob
    p = min(1.0, float(sum(recovery_mass.values())))
    p_bound = min(1.0, float(max(recovery_mass.values(), default=0.0)))
    return CheatReport(p, 1.0 - accept, soundness_bound(p_bound), tuple(table), members, p_bound)


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


def random_strategy_sweep(
    inst: SealedInstance, trials: int, rng_seed: int
) -> list[CheatReport]:
    """Stress the bound with random unitaries and random partitions.

    Trial t is seeded with rng_seed + t, so sweeps are reproducible and
    trials could be evaluated independently.

    Raises ValueError when |B|*|C| exceeds ``DENSE_DIM_CAP``, the cap on the
    proof chain's trace distance, so that every sweep report can be checked;
    it also fixes ``bound-sweep``'s row set. It is not there for speed: one
    strategy takes 0.02-0.07 s at |B| = |C| = 129.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    labels = sorted(inst.reference.c_labels())
    joint_dim = len(inst.reference.b_labels()) * len(labels)
    if joint_dim > DENSE_DIM_CAP:
        raise ValueError(
            f"sweep joint dimension {joint_dim} exceeds cap {DENSE_DIM_CAP}"
        )
    reports = []
    for t in range(trials):
        rng = np.random.default_rng(rng_seed + t)
        u = random_unitary(labels, rng)
        partition = random_partition(labels, rng)
        reports.append(strategy_report(inst, u, partition))
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

    The trace distance is ``span_trace_distance`` on the reference and the
    returned branches (for a sparse report through its Ensemble). The other
    three links are read off the report: the acceptance gap is ``s``, the
    convex sum weighs each branch's pure-state distance sqrt(1 - acceptance)
    by its probability, and the closed form is ``bound``. Raises ValueError
    when the joint basis (a dense report's block) exceeds ``DENSE_DIM_CAP`` keys.
    """
    if isinstance(report.members, Ensemble):
        distance = trace_distance_pure_vs_ensemble(inst.reference, report.members)
    else:
        distance = span_trace_distance(report.members[1], [q for _, q, _ in report.outcome_table])
    convex = sum(
        q * math.sqrt(max(0.0, 1.0 - acceptance))
        for _, q, acceptance in report.outcome_table
    )
    return ProofChain(report.s, distance, convex, report.bound)
