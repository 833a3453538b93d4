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

Two engines evaluate strategies; both hand ``_reports`` a stack of outcome
masses, a mask of the outcomes pinpointing a message and each strategy as its
entry point was given it (``CheatReport.strategy``), and it builds every
``CheatReport``, proof chain included, in array passes over the stack. A report
replays its strategy on the single-state route when its returned mixture is
read, sharing no column coding or emulated draw with the engines. Without a
unitary, ``sparse_reports`` runs a stack of strategies (one, or bound-sweep's
named rows) and stays sparse, so the basis and predicate cheats reach
``SUPPORT_CAP`` keys: it buckets the reference in one pass (``states._buckets``)
and takes the outcomes in sorted order. A branch costs one post-state and its
one C label (``states._branch``), scored by one ``squared_overlap`` and dropped
before the next is built, and one ``decode`` lookup for that label;
strategies of one outcome count share a ``_reports`` call. With one,
``_rotated_branches`` runs a stack of strategies (one, or a sweep's trials) on
the reference's dense |B| x |basis| block and keeps only the outcome masses. A
report's s, every link of its proof chain (``chain_links``) and its margin are
functions of the outcome masses, so no chain has a size cap. With b the pinned
outcome that sets (p_bound, c), margin = p_b (sqrt(c) - c) + sum_{i != b} q_i^2
(sum_i q_i^2 when nothing is pinned): both terms are >= 0 for any masses summing
to 1, so a positive margin says nothing about whether the masses are the states'.

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
from functools import cache, cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .protocols import MULTIPICTURE, SealedInstance
from .states import (
    DENSE_DIM_CAP,
    EXACT_TOL,
    NORM_TOL,
    PRUNE_TOL,
    TRIALS_CAP,
    Ensemble,
    Label,
    LocalUnitary,
    ProjPartition,
    SparseState,
    _branch,
    _buckets,
    apply_unitary_c,
    c_block,
    check_unitary,
    check_weights,
    collapse_branches,
    haar_unitaries,
    random_unitary,
    squared_overlap,
)


Predicate = Mapping[Label, int]


def soundness_bound(p: float | np.ndarray, c: float | np.ndarray | None = None):
    """Closed-form ceiling p*sqrt(c) + c on detection for a recovery probability
    ``p``, where c = 1 - p is the mass of the other outcomes. Reports pass c
    from ``complements``, which keeps its digits when p is near 1. Elementwise
    on arrays; floats give a float64 with the bits ``math.sqrt`` would give."""
    c = 1.0 - p if c is None else c
    return p * np.sqrt(np.maximum(c, 0.0)) + c


def complements(q: np.ndarray) -> np.ndarray:
    """Each outcome mass's complement c_i, the sum of the other masses, along the last axis.

    1 - q_i is exact enough where q_i <= 1/2. A mass above 1/2 (one, or two
    within round-off of 1/2) gets the sum of the others instead: 1 - q_i keeps
    only the digits of 1 that q_i lacks, 0 at q = (1 - 1e-17, 1e-17).
    """
    big = q > 0.5
    rest = np.where(big, 0.0, q).sum(axis=-1, keepdims=True)
    other_big = np.where(big, q, 0.0).sum(axis=-1, keepdims=True) - q
    return np.where(big, rest + other_big, 1.0 - q)


def chain_links(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, trace distance, convex sum) of each row's strategy, from its zero-padded
    outcome masses q and their ``complements`` c. s = 1 - sum_i q_i^2 is summed as
    sum_i q_i c_i, whose terms are all >= 0, so no digit cancels near a pure state.
    The convex sum is sum_i q_i sqrt(c_i).

    The members phi_i are orthonormal and <phi_i|psi> = sqrt(q_i), so in their basis
    |psi><psi| - sum_i q_i |phi_i><phi_i| is w w^T - diag(q), w_i = sqrt(q_i). Its one
    positive eigenvalue, the trace distance, is the root lambda of
    sum_i q_i / (q_i + lambda) = 1, a rank-one-modified eigenproblem (Golub 1973;
    Bunch, Nielsen and Sorensen 1978). Written as
    g(lambda) = sum_i q_i (c_i - lambda) / (q_i + lambda) = 0, it keeps its digits
    near 0 and 1; g falls from sum_i c_i >= 0 at 0 to at most 0 at 1, and is convex.
    Newton's method, g'(lambda) = -sum_i q_i / (q_i + lambda)^2, starts each row at
    max(s, sqrt(q_max c_max)) clipped to [least positive float, 1]. Both lie on or
    below the root: s by the chain, and sqrt(q_max c_max) (c_max the largest mass's
    complement) is the root once the other outcomes merge into one, which lowers each
    sum of the concave x / (x + lambda) and so the root; near a pure row it is far
    above s. By convexity one step from either side lands left of the root, and the
    iterates climb to it. A row stops once its step is within 4 ulps, within 64 steps,
    and brackets its iterate by +-4 float bit patterns if g changes sign there (a lower
    end of 0 is taken as given); other rows take [0, 1]. Bisection halves the brackets'
    bit patterns (under 2^62 in [0, 1]) down to adjacent floats. The distance is the
    upper end, or 0 where the lower end is 0: a root below the least positive float.
    No row's bits depend on another's, and g is never evaluated at 0, where zero
    padding gives 0/0.
    """
    def g(lam: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
        lam = lam[:, None]
        return (q * (c - lam) / (q + lam if d is None else d)).sum(axis=-1)  # d: q + lam

    tiny = np.nextafter(0.0, 1.0)  # the float with bit pattern 1
    one = np.ones(len(q)).view(np.int64)  # each row's bit pattern of 1.0
    qc = q * c
    s = qc.sum(axis=-1)
    pair = np.sqrt(qc[np.arange(len(q)), q.argmax(axis=-1)])
    lam = np.minimum(np.maximum(np.maximum(s, pair), tiny), 1.0)
    moving = np.ones(len(q), dtype=bool)
    for _ in range(64):
        if not moving.any():
            break
        d = q + lam[:, None]
        nxt = np.minimum(np.maximum(lam + g(lam, d) / (q / d / d).sum(axis=-1), tiny), 1.0)
        small = np.abs(nxt - lam) <= 4 * np.spacing(lam)
        lam, moving = np.where(moving, nxt, lam), moving & ~small
    bits = lam.view(np.int64)
    lo, hi = np.maximum(bits - 4, 0), np.minimum(bits + 4, one)
    at = np.maximum(lo, 1).view(np.float64)
    checked = ~moving & ((lo == 0) | (g(at) > 0.0)) & (g(hi.view(np.float64)) <= 0.0)
    lo, hi = np.where(checked, lo, 0), np.where(checked, hi, one)
    for _ in range(int((hi - lo).max(initial=1) - 1).bit_length()):
        mid = (lo + hi + 1) // 2  # above lo, so lambda > 0
        above = g(mid.view(np.float64)) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return s, np.where(lo == 0, 0.0, hi.view(np.float64)), (q * np.sqrt(c)).sum(axis=-1)


@dataclass(frozen=True, init=False)
class CheatReport:
    """Exact outcome of one cheating strategy.

    ``outcome_table`` rows are (outcome label, branch probability q_i, branch
    acceptance |<ref|phi_i>|^2). ``strategy`` is (reference, unitary, partition)
    as the entry point was given it: ``strategy_report`` with a unitary holds its
    ``LocalUnitary`` and ``ProjPartition``, ``sparse_reports`` None and its
    partition, and a sweep trial its seed and None, so a sweep keeps no trial's
    |C| x |C| matrix. ``returned`` is the mixture handed back for verification,
    replayed from ``strategy`` on read. ``s``, ``trace_distance`` and
    ``convex_sum`` are ``chain_links``' three links of the q's, ``bound`` the
    closed form that ends the proof chain, and ``margin`` the slack under it. Its
    ``__init__`` takes the eight fields by position or name and stores them in the
    instance dict: 0.41 us a report against 1.11 us with one ``object.__setattr__``
    a field, and a dict of 136 bytes where ``dict.update`` would unshare it (272)."""

    p: float
    s: float
    bound: float
    outcome_table: tuple[tuple[Label, float, float], ...]
    strategy: tuple = field(repr=False, compare=False)
    p_bound: float
    trace_distance: float
    convex_sum: float

    def __init__(self, p, s, bound, outcome_table, strategy, p_bound, trace_distance, convex_sum):
        d = self.__dict__  # key by key in field order: every report's dict shares one key table
        d["p"], d["s"], d["bound"], d["outcome_table"] = p, s, bound, outcome_table
        d["strategy"], d["p_bound"] = strategy, p_bound
        d["trace_distance"], d["convex_sum"] = trace_distance, convex_sum

    @cached_property
    def returned(self) -> Ensemble:
        """Built on first read by the single-state route: ``apply_unitary_c``
        with U, ``collapse_branches``, ``apply_unitary_c`` with U^dagger (the
        rotations only when U is given), weighted by the table's q's. A sweep
        trial's seed is redrawn as the trial drew it: ``default_rng(seed)``, then
        ``random_unitary`` and ``random_partition`` on the sorted C labels, bit
        for bit the sweep's U and cells, in 0.07-0.12 ms at |C| = 3 and 14-17 ms
        at |C| = 256 (quartiles of 200 and 20 runs, shared 2-vCPU VM, numpy
        2.4, single-threaded BLAS). Raises ValueError naming the first outcome, the
        table's then the replay's, that only one of the two has."""
        reference, u, partition = self.strategy
        if isinstance(u, int):  # a sweep trial's seed
            labels = sorted(reference.c_labels())
            rng = np.random.default_rng(u)
            u, partition = random_unitary(labels, rng), random_partition(labels, rng)
        if u is not None:
            undo = LocalUnitary(u.basis, u.matrix.conj().T)
            reference = apply_unitary_c(reference, u)
        branches = collapse_branches(reference, partition)
        table = dict.fromkeys(outcome for outcome, _, _ in self.outcome_table)
        if table.keys() != branches.keys():
            odd = next(o for o in (*table, *branches) if (o in table) != (o in branches))
            raise ValueError(f"outcome table and replay disagree at outcome {odd!r}")
        return Ensemble(tuple((q, branches[outcome][1] if u is None
                               else apply_unitary_c(branches[outcome][1], undo))
                              for outcome, q, _ in self.outcome_table))

    @property
    def margin(self) -> float:
        return self.bound - self.s

    def holds(self, tol: float = EXACT_TOL) -> bool:
        """s <= trace_distance <= convex_sum <= bound, each exact link within ``tol``."""
        return (self.s <= self.trace_distance + tol
                and self.trace_distance <= self.convex_sum + tol
                and self.convex_sum <= self.bound + tol)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "bound": self.bound,
            "margin": self.margin,
            "outcome_table": [list(row) for row in self.outcome_table],
        }


def _reports(qs: np.ndarray, pinned: np.ndarray, tables, strategies) -> list[CheatReport]:
    """A stack's reports, in array passes over its zero-padded outcome masses
    ``qs``: strategy t has outcome table ``tables[t]`` and is ``strategies[t]``,
    and ``pinned[t, i]`` marks an outcome whose lone active label decodes to a
    message (distinct labels, injective ``decode``: no message pinned twice).
    s and the chain come from one ``chain_links`` call. p sums the pinned masses:
    a row sum where a row pins at most two (zeros add exactly and one addition
    rounds once, as ``math.fsum`` does), ``math.fsum`` where it pins more.
    (p_bound, c) is the tuple max of the pinned (q, complement) pairs, (0, 1)
    where none is; one ``soundness_bound`` call gives every bound."""
    cs = complements(qs)
    s, distance, convex = chain_links(qs, cs)
    masses = np.where(pinned, qs, 0.0)
    sums = masses.sum(axis=-1)
    for t in np.flatnonzero(pinned.sum(axis=-1) > 2).tolist():
        sums[t] = math.fsum(masses[t].tolist())
    best = masses.max(axis=-1)
    tied = pinned & (qs == best[:, None])
    c = np.where(tied.any(axis=-1), np.max(cs, axis=-1, where=tied, initial=0.0), 1.0)
    p_bound = np.minimum(best, 1.0)
    bounds = soundness_bound(p_bound, c)
    return [*map(CheatReport, np.minimum(sums, 1.0).tolist(), s.tolist(), bounds.tolist(), tables,
                 strategies, p_bound.tolist(), distance.tolist(), convex.tolist())]


def sparse_reports(strategies: Sequence[tuple[SealedInstance, ProjPartition]]) -> list[CheatReport]:
    """The reports of strategies with no unitary, each an (instance, partition), in order,
    then one ``_reports`` per outcome count. The partition is diagonal, so a post-state is a
    rescaled piece of the reference: nothing needs undoing. After one ``_buckets`` pass, each
    outcome's bucket, in sorted outcome order, is dropped, its post-state built (``_branch``),
    scored by one ``squared_overlap`` and dropped before the next is built. A stack's rows
    have one width, each row's own, so each report has the bits it gets alone."""
    stacks: dict[int, list] = {}  # outcome count -> [(strategy index, masses, pins, table, strategy)]
    for t, (inst, partition) in enumerate(strategies):
        reference, decode = inst.reference, inst.decode
        buckets = _buckets(reference, partition)
        outcomes, qs, overlaps, pins = sorted(buckets), [], [], []
        for outcome in outcomes:
            q, post, label = _branch(buckets.pop(outcome))
            qs.append(q)
            overlaps.append(squared_overlap(reference, post))
            pins.append(label is not None and decode.get(label) is not None)
            del post
        check_weights(math.fsum(qs))
        table = tuple(zip(outcomes, qs, overlaps))
        del buckets, outcomes, overlaps  # each holds a slot per outcome until freed
        stacks.setdefault(len(qs), []).append((t, qs, pins, table, (reference, None, partition)))
    reports: list = [None] * len(strategies)
    for stack in stacks.values():
        at, qs, pins, tables, given = zip(*stack)
        for t, report in zip(at, _reports(np.array(qs), np.array(pins), tables, given)):
            reports[t] = report
    return reports


@cache
def _cell_names(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(the names "cell0" ... f"cell{n - 1}" in sorted order, each cell number's rank there)."""
    order = sorted(range(n), key=lambda k: f"cell{k}")
    return np.array([f"cell{k}" for k in order], dtype=object), np.argsort(order)


def _outcome_codes(columns: Sequence[Label], partitions) -> tuple[np.ndarray, np.ndarray]:
    """(sorted outcome names, each trial's code per column: its outcome's index in
    the names, -1 if uncovered) of a (trials, columns) int array of cell numbers,
    cell k named f"cell{k}", or of one ``ProjPartition`` per trial."""
    if isinstance(partitions, np.ndarray):
        names, rank = _cell_names(partitions.shape[-1])
        return names, rank[partitions]
    rows = [[p.outcome_of.get(c) for c in columns] for p in partitions]
    names = sorted({outcome for row in rows for outcome in row} - {None})
    code = {name: i for i, name in enumerate(names)} | {None: -1}
    return np.array(names, dtype=object), np.array([[code[o] for o in row] for row in rows])


def _rotated_branches(
    inst: SealedInstance,
    basis: Sequence[Label],
    matrices: np.ndarray,
    partitions: np.ndarray | Sequence[ProjPartition],
    strategies: Sequence[tuple],
) -> list[CheatReport]:
    """Rotate, measure, undo, for each unitary of a stack on one basis.

    ``matrices[t]`` is measured with ``partitions[t]`` (see ``_outcome_codes``),
    and report t holds ``strategies[t]`` as given (``CheatReport.strategy``).
    The strategy stays in the reference's |B| x |basis| block: rotate it once
    for the stack (psi @ U^T), then ``np.bincount`` each active column into its
    (trial, outcome) slot, so no array has both an outcome axis and a column
    axis. q sums an outcome's column masses in column order; a trial's q's are
    packed left in sorted outcome order and zero-padded to one entry per column,
    so every sum over a trial's q's has the bits it has for that trial alone.
    C labels outside the basis (riders) ride along under the identity with their
    reference mass, summed from the amplitudes ``c_block`` leaves outside the
    block, so no rider is laid out densely. Active labels are the columns holding
    some amplitude of at least ``PRUNE_TOL`` after the rotation. Every trial's q's
    pass ``check_weights``' test in one array pass, and the first trial that
    fails raises its message; acceptance i is q_i. An outcome is pinned when it has one
    active column, which decodes to a message. ``_reports`` builds the reports,
    s and proof chains included, in array passes with one ``chain_links`` call.

    Raises:
        ValueError: a partition omits an active label, or the q's do not sum to 1.
    """
    reference = inst.reference
    _, psi, outside = c_block(reference, basis)
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
    names, codes = _outcome_codes(columns, partitions)
    uncovered = np.argwhere(held & (codes < 0))
    if len(uncovered):
        raise ValueError(f"C label {columns[uncovered[0, 1]]!r} is not covered by the partition")
    at_t, at_j = np.nonzero(held)  # trial by trial, each trial's active columns in order
    slots = (len(matrices), len(names))  # one per (trial, outcome name)
    slot = np.ravel_multi_index((at_t, codes[at_t, at_j]), slots)
    sums = np.bincount(slot, weights=mass[at_t, at_j], minlength=math.prod(slots))  # column order
    sizes = np.bincount(slot, minlength=math.prod(slots))
    decodes = np.array([inst.decode.get(c) is not None for c in columns], dtype=bool)
    messages = np.bincount(slot[decodes[at_j]], minlength=math.prod(slots))
    used = np.flatnonzero(sizes)  # trial by trial, each trial's outcomes in sorted order
    used_t, used_name = np.unravel_index(used, slots)
    counts = np.bincount(used_t, minlength=len(matrices))
    rank = np.arange(len(used)) - np.repeat(np.cumsum(counts) - counts, counts)
    qs, pinned = np.zeros(mass.shape), np.zeros(mass.shape, dtype=bool)
    qs[used_t, rank] = sums[used]
    pinned[used_t, rank] = (sizes[used] == 1) & (messages[used] == 1)
    totals = qs.sum(axis=-1)
    failing = ~(np.abs(totals - 1.0) <= NORM_TOL)  # check_weights' test; NaN fails
    if failing.any():
        check_weights(totals[failing.argmax()].item())  # raises with its message
    q = sums[used].tolist()
    rows = [*zip(names[used_name].tolist(), q, q)]  # trial by trial
    ends = np.cumsum(counts).tolist()
    tables = [tuple(rows[a:b]) for a, b in zip([0, *ends], ends)]
    return _reports(qs, pinned, tables, strategies)


def strategy_report(
    inst: SealedInstance,
    unitary: LocalUnitary | None = None,
    partition: ProjPartition | None = None,
) -> CheatReport:
    """Evaluate one measure-and-uncompute strategy exactly.

    ``unitary=None`` means the identity; ``partition=None`` means the finest
    computational-basis partition over the reference's C labels and the unitary's basis.
    """
    if partition is None:
        labels = inst.reference.c_labels()
        partition = ProjPartition.finest(labels if unitary is None else labels.union(unitary.basis))
    if unitary is None:
        return sparse_reports([(inst, partition)])[0]
    (report,) = _rotated_branches(inst, unitary.basis, unitary.matrix[None], [partition],
                                  [(inst.reference, unitary, partition)])
    return report


def basis_cheat(inst: SealedInstance) -> CheatReport:
    """Measure register C in the computational basis, then uncompute.

    This is also the generic cheat, the honest unseal run coherently.
    """
    return strategy_report(inst, None, None)


def predicate_partition(inst: SealedInstance, g: Predicate) -> ProjPartition:
    """The two-outcome partition, "g=0" and "g=1", of a predicate defined on every
    C label of the reference, each value 0 or 1 (else ValueError)."""
    active = inst.reference.c_labels()
    missing = sorted(active - set(g))
    if missing:
        raise ValueError(f"predicate undefined on labels {missing}")
    bad = {label: v for label, v in g.items() if v not in (0, 1)}
    if bad:
        raise ValueError(f"predicate values must be 0 or 1, got {bad}")
    return ProjPartition({label: "g=1" if g[label] == 1 else "g=0" for label in active})


def predicate_cheat(inst: SealedInstance, g: Predicate) -> CheatReport:
    """Measure a two-valued classical predicate of the C label (``predicate_partition``).

    The partition is diagonal in the computational basis, so no uncomputation
    is needed; a predicate constant on the support leaves the state untouched.
    """
    return strategy_report(inst, None, predicate_partition(inst, g))


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
    return _branch(block)[:2]


def _random_cells(n: int, rng: np.random.Generator) -> np.ndarray:
    """The cell numbers of n sorted labels: a cell count in 1..n, then one cell each."""
    n_cells = int(rng.integers(1, n + 1))
    return rng.integers(0, n_cells, size=n)


def random_partition(labels: Sequence[Label], rng: np.random.Generator) -> ProjPartition:
    """Random assignment of labels to between 1 and len(labels) outcomes."""
    labels = sorted(labels)
    cells = _random_cells(len(labels), rng).tolist()
    return ProjPartition({label: f"cell{cell}" for label, cell in zip(labels, cells)})


# numpy's SeedSequence hash constants and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _LOW128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_constants(h: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's running hash constants h mult^k mod 2^32, k = 0..calls, as a uint32 column."""
    return np.array([h * pow(mult, k, 1 << 32) & _LOW32 for k in range(calls + 1)], "u4")[:, None]


def _hashmix(words: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 rows: row k xors h[k], then multiplies by h[k + 1]."""
    words = (words ^ h[:-1]) * h[1:]
    return words ^ (words >> np.uint32(16))


def _pcg64_states(seeds: range) -> list[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` for each seed, ready
    to set on a PCG64.

    ``SeedSequence``'s ``mix_entropy`` and ``generate_state(4, uint64)`` run as
    uint32 array operations on the seeds' 32-bit words, low first, then PCG64's
    seeding step: state = ((inc + s) * MULT + inc) mod 2^128, inc = 2 initseq + 1.
    A missing pool word hashes as a zero word does, so seeds below 2^128 share
    one pass on four words; longer ones take one pass per word count. A pass is
    4 + (width - 4) ``_hashmix`` rounds, one per source word over the words it
    mixes into (consecutive constants as a column), between one for the pool and
    one for all eight output words.
    """
    if seeds.start < 0:
        raise ValueError("expected non-negative integer")
    states: list[dict] = []
    start = seeds.start
    while start < seeds.stop:
        width = max(4, -(-start.bit_length() // 32))
        stop = min(seeds.stop, 1 << 32 * width)
        entropy = b"".join(seed.to_bytes(4 * width, "little") for seed in range(start, stop))
        words = np.frombuffer(entropy, dtype="<u4").reshape(-1, width).T
        h = _hash_constants(_INIT_A, _MULT_A, 4 * width)
        pool, k = _hashmix(words[:4], h[:5]), 4
        # Each pool word mixes in every other pool word's hash, then each extra word's.
        for src in range(width):
            dst = [d for d in range(4) if d != src]  # src's hashes share one round
            hashed = _hashmix(pool[src] if src < 4 else words[src], h[k:k + len(dst) + 1])
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
            pool[dst], k = mixed ^ (mixed >> np.uint32(16)), k + len(dst)
        out = _hashmix(pool[[0, 1, 2, 3] * 2], _hash_constants(_INIT_B, _MULT_B, 8)).astype("u8")
        # generate_state's uint64 words join its uint32 words low half first;
        # PCG64 reads s from uint64 words 0 and 1, initseq from 2 and 3, high word first.
        s_hi, s_lo, i_hi, i_lo = (out[::2] | (out[1::2] << np.uint64(32))).tolist()
        for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
            inc = (c << 64 | d) << 1 & _LOW128 | 1
            state = {"state": ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _LOW128, "inc": inc}
            states.append({"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0})
        start = stop
    return states


def _lemire(words: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(draws in [0, k), accepted) of 32-bit words held as uint64, by the rule
    ``Generator.integers`` applies (Lemire, "Fast random integer generation in
    an interval", 2019): m = word * k gives m >> 32 unless m mod 2^32 < (2^32 - k) mod k."""
    k = np.asarray(k, dtype=np.uint64)
    m = words * k
    return m >> np.uint64(32), (m & np.uint64(_LOW32)) >= (np.uint64(1 << 32) - k) % k


def _draw_trials(rng: np.random.Generator, states, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 2, n, n) normal block and (T, n) cell rows that ``random_unitary``
    and then ``_random_cells`` draw from each state, set in turn on ``rng``'s PCG64.

    A trial makes three calls, the floor of its Python: it sets the state, fills
    its normals with ``standard_normal`` and draws with ``random_raw``, 1.1, 1.0
    and 0.7 ms per 1000 trials at n = 4 (the fill 2.2 at n = 8), of a 3.1 ms
    loop. Its cell count and cells are ``_lemire`` across the trials on the raw
    words' 32-bit halves, low half first (``next_uint32``'s order), where a range
    of one takes no word. A trial with a rejected word (chance below n^2 / 2^32)
    is drawn again by ``_random_cells``, word by word.
    """
    bitgen = rng.bit_generator
    normals = np.empty((len(states), 2, n, n))
    raw = np.empty((len(states), n // 2 + 1), dtype=np.uint64)  # n + 1 words or more
    fill, draw, width = rng.standard_normal, bitgen.random_raw, raw.shape[1]
    for state, block, row in zip(states, normals, raw):
        bitgen.state = state
        fill(out=block)
        row[:] = draw(width)
    words = np.stack((raw & np.uint64(_LOW32), raw >> np.uint64(32)), -1).reshape(len(raw), -1)
    count, count_kept = _lemire(words[:, 0], n)
    cells, kept = _lemire(words[:, 1:n + 1], count[:, None] + np.uint64(1))
    cells = cells.astype(np.int64)
    for t in np.flatnonzero(~(count_kept & kept.all(axis=-1))).tolist():
        bitgen.state = states[t]
        fill(out=normals[t])
        cells[t] = _random_cells(n, rng)
    return normals, cells


# A sweep's chunk budget (``_trials_per_chunk``): a trial's largest arrays are
# its (2, |C|, |C|) normals, its |C| x |C| U with the QR's temporaries and its
# |B| x |C| rotation, so a chunk takes this many over |C| x max(|C|, |B|) trials,
# at least one; its masses and outcome slots take |C| entries per trial. So no
# array of a chunk passes 2^17 entries unless one trial does. A chunk holds 226
# trials at |C| = 17 (|B| = 2 or 17), 135 at |B| = |C| = 22, 128 at |B| = 256,
# |C| = 2, and one at |B| = 2, |C| = 256.
_CHUNK_AMPLITUDES = 1 << 16


def _trials_per_chunk(n_b: int, n: int) -> int:
    """Trials in one chunk of a sweep on |B| = n_b, |C| = n (see ``_CHUNK_AMPLITUDES``)."""
    return max(1, _CHUNK_AMPLITUDES // (n * max(n, n_b)))


def random_strategy_sweeps(
    insts: Sequence[SealedInstance], trials: int, rng_seed: int
) -> Iterator[tuple[int, int, list[CheatReport]]]:
    """Stress the bound on several instances with the same random strategies.

    Trial t draws from ``default_rng(rng_seed + t)`` what ``random_unitary``
    and then ``random_partition`` draw on |C| sorted labels, bit for bit, so
    sweeps are reproducible and each report equals ``strategy_report`` on that
    unitary and partition. A trial's strategy depends only on its seed and
    |C|, so the seeds are computed once for every instance (``_pcg64_states``;
    no generator is built per trial) and instances of one |C| share each draw.
    Grouped by |C| in order of first appearance, a group runs its trials as
    stacks of the least ``_trials_per_chunk`` of its members: one
    ``_draw_trials``, one QR and one unitarity check per chunk, then one
    rotation, one (trials, |C|) array of cell numbers (no ``ProjPartition``)
    and one ``chain_links`` call per member. Yields (index of the instance in
    ``insts``, its first trial, its reports of that chunk), chunk by chunk and
    member by member; an instance's chunks come in trial order. A report holds
    its trial's seed, not its U or cells (``CheatReport.returned`` redraws both
    when read), so a chunk's arrays go once the next chunk's U replaces them and
    memory does not grow with trials.

    Raises ValueError when the first chunk is asked for, before any trial is
    seeded, if ``trials`` is outside 1..``TRIALS_CAP``, an instance's |B|*|C|
    exceeds ``DENSE_DIM_CAP`` or ``rng_seed`` is negative. No report or chain
    needs the cap; it fixes which rows ``bound-sweep`` prints, and so the rows
    its reference records.
    100 trials with their proof chains take 0.0042-0.0046 s at |B| = |C| = 17
    (one chunk; 0.0060-0.0064 s as eight) and 1.1-1.3 s at |B| = 2, |C| = 256
    (a chunk a trial), where the Haar QR dominates (quartiles of 30 and 5 runs
    on a shared 2-vCPU VM whose speed varies by about 1.7x; Python 3.11, numpy
    2.4, single-threaded BLAS). Another instance of the same |C| adds only its
    rotation and reports: at |C| = 2, 100 trials take 1.06 ms on naive alone
    and 2.04 ms on naive, garbage-1 and multipicture-2 together, against 3.5 ms
    as three sweeps (medians of 200 runs, same machine).
    """
    if not 1 <= trials <= TRIALS_CAP:
        raise ValueError(f"trials must be from 1 to {TRIALS_CAP}, got {trials}")
    groups: dict[int, list[tuple[int, int, list[Label]]]] = {}  # |C| -> (index, |B|, labels)
    for i, inst in enumerate(insts):
        labels = sorted(inst.reference.c_labels())
        n_b, n = len(inst.reference.b_labels()), len(labels)
        if n_b * n > DENSE_DIM_CAP:
            raise ValueError(f"sweep joint dimension {n_b * n} exceeds cap {DENSE_DIM_CAP}")
        groups.setdefault(n, []).append((i, n_b, labels))
    seeds = range(rng_seed, rng_seed + trials)
    states = _pcg64_states(seeds)
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded per trial
    for n, members in groups.items():
        per_chunk = min(_trials_per_chunk(n_b, n) for _, n_b, _ in members)
        for first in range(0, trials, per_chunk):
            chunk = slice(first, first + per_chunk)
            normals, cells = _draw_trials(rng, states[chunk], n)
            unitaries = haar_unitaries(normals)
            del normals  # not held through the rotations
            check_unitary(unitaries)
            # No del: the stack lives on until the next chunk's U replaces it. Freed
            # before the next draw, it lets glibc trim the heap, which that draw then
            # faults back in: 1508 minor faults a trial at |B| = 2, |C| = 256, not 512.
            for i, _, labels in members:
                strategies = [(insts[i].reference, seed, None) for seed in seeds[chunk]]
                yield i, first, _rotated_branches(insts[i], labels, unitaries, cells, strategies)


def random_strategy_sweep(
    inst: SealedInstance, trials: int, rng_seed: int
) -> list[CheatReport]:
    """``random_strategy_sweeps`` on one instance: its reports in trial order.

    Raises ValueError, before any trial is seeded, as ``random_strategy_sweeps`` does.
    """
    return [report for _, _, reports in random_strategy_sweeps([inst], trials, rng_seed)
            for report in reports]


def proof_chain(inst: SealedInstance, report: CheatReport) -> CheatReport:
    """The report itself, which holds its proof chain (``CheatReport.holds``)."""
    return report
