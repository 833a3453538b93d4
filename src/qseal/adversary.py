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

Two engines evaluate strategies; both return ``CheatReport``s built by
``_report``. Without a unitary, ``_sparse_branches`` stays sparse, so the basis
and predicate cheats reach ``SUPPORT_CAP`` keys. With one, ``_rotated_branches``
runs a stack of strategies (one, or a sweep's trials) on the reference's dense
|B| x |C| block and keeps only the outcome masses; members become sparse
states only when read. Every link of a proof chain is a function of the
outcome masses (``chain_links``), so no chain has a size cap.

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
from functools import cache, cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .protocols import MULTIPICTURE, SealedInstance
from .states import (
    DENSE_DIM_CAP,
    EXACT_TOL,
    PRUNE_TOL,
    Ensemble,
    Label,
    LocalUnitary,
    ProjPartition,
    SparseState,
    apply_unitary_c,
    c_block,
    check_unitary,
    check_weights,
    collapse_branches,
    haar_unitaries,
    project_accept_probability,
    squared_overlap,
    sum_in_order,
)


Predicate = Mapping[Label, int]


def soundness_bound(p: float, c: float | None = None) -> float:
    """Closed-form ceiling p*sqrt(c) + c on detection for a recovery probability
    ``p``, where c = 1 - p is the mass of the other outcomes. Reports pass c
    from ``complements``, which keeps its digits when p is near 1."""
    c = 1.0 - p if c is None else c
    return p * math.sqrt(max(0.0, c)) + c


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


def chain_links(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(trace distance, convex sum) of each row's strategy, from its zero-padded
    outcome masses q and their ``complements`` c.

    The members phi_i are orthonormal and <phi_i|psi> = sqrt(q_i), so in their
    basis |psi><psi| - sum_i q_i |phi_i><phi_i| is w w^T - diag(q), w_i = sqrt(q_i).
    Its one positive eigenvalue, the trace distance, is the root lambda of
    sum_i q_i / (q_i + lambda) = 1, a rank-one-modified eigenproblem (Golub 1973;
    Bunch, Nielsen and Sorensen 1978). Written as g(lambda) =
    sum_i q_i (c_i - lambda) / (q_i + lambda) = 0, it keeps its digits near 0 and
    1; g falls from sum_i c_i >= 0 at 0 to at most 0 at 1, and is convex.
    Newton's method, g'(lambda) = -sum_i q_i / (q_i + lambda)^2, starts each row
    at s = 1 - sum_i q_i^2 (on or below the root by the chain) clipped to
    [least positive float, 1]; by convexity one step from either side lands
    left of the root, and the iterates climb to it. A row stops once its step
    is within 4 ulps, within 64 steps, and brackets its iterate by +-4 float
    bit patterns if g changes sign there (a lower end of 0 is taken as given);
    other rows take [0, 1]. Bisection halves the brackets' bit patterns (under
    2^62 in [0, 1]) down to adjacent floats. The distance is the upper end, or
    0 where the lower end is 0: a root below the least positive float. No row's
    bits depend on another's, and g is never evaluated at 0, where zero padding
    gives 0/0. The convex sum is sum_i q_i sqrt(c_i).
    """
    def g(lam: np.ndarray) -> np.ndarray:
        lam = lam[:, None]
        return (q * (c - lam) / (q + lam)).sum(axis=-1)

    tiny = np.nextafter(0.0, 1.0)  # the float with bit pattern 1
    one = np.ones(len(q)).view(np.int64)  # each row's bit pattern of 1.0
    lam = np.clip(1.0 - (q ** 2).sum(axis=-1), tiny, 1.0)
    moving = np.ones(len(q), dtype=bool)
    for _ in range(64):
        if not moving.any():
            break
        d = q + lam[:, None]
        nxt = np.clip(lam + g(lam) / (q / d / d).sum(axis=-1), tiny, 1.0)
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
    return np.where(lo == 0, 0.0, hi.view(np.float64)), (q * np.sqrt(c)).sum(axis=-1)


@dataclass(frozen=True)
class CheatReport:
    """Exact outcome of one cheating strategy.

    ``outcome_table`` rows are (outcome label, branch probability q_i, branch
    acceptance |<ref|phi_i>|^2). ``returned`` is the mixture handed back for
    verification, held in ``members`` as an ``Ensemble`` or, with a unitary, as
    (reference, columns, U, each column's outcome or None), U acting on the
    first len(U) columns. ``margin`` is the slack left under the closed-form
    bound. ``links`` is (a cached ``chain_links`` call, the report's row in
    it), made on first read by ``proof_chain``; a stack's reports share one.
    """

    p: float
    s: float
    bound: float
    outcome_table: tuple[tuple[Label, float, float], ...]
    members: Ensemble | tuple = field(repr=False, compare=False)
    p_bound: float
    links: tuple = field(repr=False, compare=False)

    @cached_property
    def returned(self) -> Ensemble:
        """Built on first read for a dense strategy, by the single-state route:
        ``apply_unitary_c`` with U, ``collapse_branches``, ``apply_unitary_c``
        with U^dagger, weighted by the table's q's."""
        if isinstance(self.members, Ensemble):
            return self.members
        reference, columns, u, outcomes = self.members
        basis = columns[:len(u)]
        partition = ProjPartition({c: o for c, o in zip(columns, outcomes) if o is not None})
        branches = collapse_branches(apply_unitary_c(reference, LocalUnitary(basis, u)), partition)
        undo = LocalUnitary(basis, u.conj().T)
        return Ensemble(tuple((q, apply_unitary_c(branches[outcome][1], undo))
                              for outcome, q, _ in self.outcome_table))

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


def _report(inst: SealedInstance, table, lones, rests, s, members, links) -> CheatReport:
    """A strategy's report. ``lones`` are its outcomes' lone active labels (None for
    several), ``rests`` its masses' ``complements``; the lones are distinct and
    ``decode`` is injective, so no message is pinpointed twice."""
    pinned = [(q, c) for (_, q, _), c, lone in zip(table, rests, lones)
              if inst.decode.get(lone) is not None]
    p = min(1.0, sum_in_order(q for q, _ in pinned))
    p_bound, c = max(pinned, default=(0.0, 1.0))
    p_bound = min(1.0, p_bound)
    return CheatReport(p, s, soundness_bound(p_bound, c), tuple(table), members, p_bound, links)


def _sparse_branches(inst: SealedInstance, partition: ProjPartition) -> CheatReport:
    """The report of the strategy with no unitary. The partition is diagonal, so each
    post-state is a rescaled piece of the reference: nothing needs undoing, and its
    C labels are the active ones."""
    reference = inst.reference
    branches = collapse_branches(reference, partition)
    outcomes = sorted(branches)
    returned = Ensemble(tuple(branches[outcome] for outcome in outcomes))
    table = [(outcome, q, squared_overlap(reference, post))
             for outcome, (q, post) in zip(outcomes, returned.members)]
    actives = (post.c_labels() for _, post in returned.members)
    lones = (next(iter(labels)) if len(labels) == 1 else None for labels in actives)
    qs = np.array([[q for _, q, _ in table]])
    cs = complements(qs)
    accept = project_accept_probability(reference, returned)
    return _report(inst, table, lones, cs[0].tolist(), 1.0 - accept, returned,
                   (cache(partial(chain_links, qs, cs)), 0))


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
) -> list[CheatReport]:
    """Rotate, measure, undo, for each unitary of a stack on one basis.

    ``matrices[t]`` is measured with ``partitions[t]`` (see ``_outcome_codes``).
    Every number of a report is a function of its outcome masses q, so no
    member is built. The strategy stays in the reference's |B| x |basis|
    block: rotate it once for the stack (psi @ U^T), rank all trials'
    outcomes at once (a cumulative count over the outcome codes the active
    columns use), and mark each trial's cells in one boolean indicator,
    in_cell[t, i, j] true when column j lies in outcome i's cell. q is the sum
    of the columns' masses under it, zero-padded to one entry per column, so
    every sum over a trial's q's has the bits it has for that trial alone. C
    labels outside the basis (riders) ride along under the identity with their
    reference mass, summed from the amplitudes ``c_block`` leaves outside the
    block, so no rider is laid out densely. Active labels are the columns
    holding some amplitude of at least ``PRUNE_TOL`` after the rotation. The
    q's pass ``check_weights``; acceptance i is q_i and s is 1 - sum q_i^2.
    The reports share one cached ``chain_links`` call.

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
    cs = complements(qs)
    detections = np.clip(1.0 - (qs ** 2).sum(axis=-1), 0.0, 1.0).tolist()
    labels = np.array(columns + (None,), dtype=object)  # None: no lone active label
    lones = labels[np.where(in_cell.sum(axis=-1) == 1, in_cell.argmax(axis=-1), -1)].tolist()
    outcomes = np.append(names, None)[codes]  # each column's outcome, None where uncovered
    named = iter(names[np.nonzero(used)[1]].tolist())  # trial by trial, in sorted order
    links = cache(partial(chain_links, qs, cs))
    reports = []
    for t, (m, probs, rests, lone, s) in enumerate(zip(
            counts.tolist(), qs.tolist(), cs.tolist(), lones, detections)):
        table = list(zip(itertools.islice(named, m), probs[:m], probs[:m]))
        reports.append(_report(inst, table, lone[:m], rests[:m], s,
                               (reference, columns, matrices[t], outcomes[t]), (links, t)))
    return reports


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
        basis = () if unitary is None else unitary.basis
        partition = ProjPartition.finest(inst.reference.c_labels().union(basis))
    if unitary is None:
        return _sparse_branches(inst, partition)
    (report,) = _rotated_branches(inst, unitary.basis, unitary.matrix[None], [partition])
    return report


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
    best_accept = sum_in_order(abs(a) ** 2 for a in block.values())
    scale = 1.0 / math.sqrt(best_accept)
    best_state = SparseState({k: a * scale for k, a in block.items()})
    return best_accept, best_state


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


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, from the running constant ``h``."""
    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal h
        xor, h = h, h * mult & _LOW32
        words = (words ^ np.uint32(xor)) * np.uint32(h)
        return words ^ (words >> np.uint32(16))
    return hashmix


def _pcg64_states(seeds: range) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.default_rng(seed)``'s PCG64 for each seed.

    ``SeedSequence``'s ``mix_entropy`` and ``generate_state(4, uint64)`` run as
    uint32 array operations on the seeds' 32-bit words, low first, then PCG64's
    seeding step: state = ((inc + s) * MULT + inc) mod 2^128, inc = 2 initseq + 1.
    A missing pool word hashes as a zero word does, so seeds below 2^128 share
    one pass on four words; longer ones take one pass per word count.
    """
    if seeds.start < 0:
        raise ValueError("expected non-negative integer")
    states: list[tuple[int, int]] = []
    start = seeds.start
    while start < seeds.stop:
        width = max(4, -(-start.bit_length() // 32))
        stop = min(seeds.stop, 1 << 32 * width)
        entropy = b"".join(seed.to_bytes(4 * width, "little") for seed in range(start, stop))
        words = list(np.frombuffer(entropy, dtype="<u4").reshape(-1, width).T)
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in words[:4]]
        # Each pool word mixes in every other pool word's hash, then each extra word's.
        for src, dst in [*itertools.permutations(range(4), 2),
                         *itertools.product(range(4, width), range(4))]:
            hashed = hashmix(pool[src] if src < 4 else words[src])
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
            pool[dst] = mixed ^ (mixed >> np.uint32(16))
        hashmix = _hasher(_INIT_B, _MULT_B)
        out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
        # generate_state's uint64 words join its uint32 words low half first;
        # PCG64 reads s from uint64 words 0 and 1, initseq from 2 and 3, high word first.
        s_hi, s_lo, i_hi, i_lo = ((lo | (hi << np.uint64(32))).tolist()
                                  for lo, hi in zip(out[::2], out[1::2]))
        for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
            inc = (c << 64 | d) << 1 & _LOW128 | 1
            states.append((((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _LOW128, inc))
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

    A trial makes one ``standard_normal`` fill and one ``random_raw`` call; its
    cell count and cells are ``_lemire`` across the trials on the raw words'
    32-bit halves, low half first (``next_uint32``'s order), where a range of
    one takes no word. A trial with a rejected word (chance below n^2 / 2^32)
    is drawn again by ``_random_cells``, word by word.
    """
    bitgen = rng.bit_generator
    normals = np.empty((len(states), 2, n, n))
    raw = np.empty((len(states), n // 2 + 1), dtype=np.uint64)  # n + 1 words or more

    def reseed_and_fill(t: int) -> None:
        bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                        "state": dict(zip(("state", "inc"), states[t]))}
        rng.standard_normal(out=normals[t])

    for t in range(len(states)):
        reseed_and_fill(t)
        raw[t] = bitgen.random_raw(raw.shape[1])
    words = np.stack((raw & np.uint64(_LOW32), raw >> np.uint64(32)), -1).reshape(len(raw), -1)
    count, count_kept = _lemire(words[:, 0], n)
    cells, kept = _lemire(words[:, 1:n + 1], count[:, None] + np.uint64(1))
    cells = cells.astype(np.int64)
    for t in np.flatnonzero(~(count_kept & kept.all(axis=-1))).tolist():
        reseed_and_fill(t)
        cells[t] = _random_cells(n, rng)
    return normals, cells


# Trials per chunk of a sweep: this many over |B| x |C| x |C|, at least one.
# A chunk holds each trial's Haar block (2 |C|^2 normals, then U), its rotation
# (|B| x |C| amplitudes) and its cell indicator with the masses under it (at
# most |C| x |C| each), so no array of a chunk passes 2^17 entries unless one
# trial does. A chunk holds 13 trials at |B| = |C| = 17 and 8192 at |B| = |C| = 2.
_CHUNK_AMPLITUDES = 1 << 16


def random_strategy_sweep(
    inst: SealedInstance, trials: int, rng_seed: int
) -> list[CheatReport]:
    """Stress the bound with random unitaries and random partitions.

    Trial t draws from ``default_rng(rng_seed + t)`` what ``random_unitary``
    and then ``random_partition`` draw, bit for bit, so sweeps are reproducible
    and each report equals ``strategy_report`` on that unitary and partition;
    no generator is built per trial (``_pcg64_states``, ``_draw_trials``). The
    trials run as stacks, chunked by ``_CHUNK_AMPLITUDES``: one QR, one
    unitarity check, one rotation and one (trials, |C|) array of cell numbers
    (no ``ProjPartition``) per chunk, and one ``chain_links`` call per chunk,
    made when ``proof_chain`` first reads one of its reports.

    Raises ValueError when ``rng_seed`` is negative or |B|*|C| exceeds
    ``DENSE_DIM_CAP``. No report or chain needs that guard; it fixes which
    rows ``bound-sweep`` prints, and so the rows its reference records.
    100 trials with their proof chains take 0.012 s at |B| = |C| = 17 and
    1.5 s at |B| = 2, |C| = 256, where the Haar QR dominates (medians of 30
    and 5 runs on a shared 2-vCPU VM, single-threaded BLAS).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    labels = sorted(inst.reference.c_labels())
    n_b, n = len(inst.reference.b_labels()), len(labels)
    if n_b * n > DENSE_DIM_CAP:
        raise ValueError(f"sweep joint dimension {n_b * n} exceeds cap {DENSE_DIM_CAP}")
    per_chunk = max(1, _CHUNK_AMPLITUDES // (n_b * n * n))
    states = _pcg64_states(range(rng_seed, rng_seed + trials))
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded per trial
    reports = []
    for first in range(0, trials, per_chunk):
        normals, cells = _draw_trials(rng, states[first:first + per_chunk], n)
        unitaries = haar_unitaries(normals)
        del normals  # not held through the rotation
        check_unitary(unitaries)
        reports.extend(_rotated_branches(inst, labels, unitaries, cells))
    return reports


@dataclass(frozen=True)
class ProofChain:
    """The four quantities whose chain of inequalities backs the bound.

    acceptance_gap <= trace_distance <= convex_sum <= closed_form, each link
    within ``tol``. Every quantity is computed exactly, so the default is
    ``EXACT_TOL``, the tolerance between two exact routes to one number.
    """

    acceptance_gap: float
    trace_distance: float
    convex_sum: float
    closed_form: float

    def holds(self, tol: float = EXACT_TOL) -> bool:
        return (
            self.acceptance_gap <= self.trace_distance + tol
            and self.trace_distance <= self.convex_sum + tol
            and self.convex_sum <= self.closed_form + tol
        )


def proof_chain(inst: SealedInstance, report: CheatReport) -> ProofChain:
    """Evaluate the inequality chain for one report.

    Every link is a function of the report's outcome masses, so no report is
    too large for its chain. The trace distance and the convex sum are the
    report's row of its cached ``chain_links`` call, made once however often
    it is read; the acceptance gap is ``s`` and the closed form ``bound``.
    """
    call, index = report.links
    distances, convex_sums = call()
    return ProofChain(report.s, float(distances[index]), float(convex_sums[index]), report.bound)
