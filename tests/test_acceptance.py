"""Acceptance suite: every headline quantity, checked at full tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed assertion marks the corresponding criterion FAIL.
"""

import math
import time

from conftest import max_abs_diff
from qseal.adversary import (
    basis_cheat,
    optimal_post_collapse_response,
    predicate_cheat,
    proof_chain,
    random_strategy_sweep,
    soundness_bound,
)
from qseal.oaep import (
    OaepContext,
    decode_preimage,
    encode,
    r_set,
    seal_oaep,
    tu_overlap,
    unseal_oaep,
    useless_query_bound,
)
from qseal.protocols import (
    seal_garbage,
    seal_multipicture,
    seal_naive,
    verify_return,
)
from qseal.states import Ensemble, SparseState

TOL = 1e-12


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def pictures(n):
    return [f"pic{i + 1}" for i in range(n)]


def test_criterion_01_naive_basis_detection():
    start = time.perf_counter()
    result = basis_cheat(seal_naive("M", garbage="0"))
    elapsed = time.perf_counter() - start
    ok = abs(result.s - 0.5) <= TOL and elapsed < 1.0
    report(1, ok, f"naive basis readout detected with s={result.s!r} in {elapsed:.3f}s")


def test_criterion_02_bound_value_at_one_half():
    value = soundness_bound(0.5)
    expected = (2.0 + math.sqrt(2.0)) / 4.0
    ok = abs(value - 0.8535533905932737) <= TOL and abs(value - expected) <= TOL
    report(2, ok, f"closed-form ceiling at p=1/2 is {value!r}")


def test_criterion_03_garbage_detection_closed_form():
    worst = 0.0
    s64 = None
    for n_g in (1, 2, 4, 16, 64):
        inst = seal_garbage("M", [f"g{i}" for i in range(n_g)])
        s = basis_cheat(inst).s
        worst = max(worst, abs(s - (0.75 - 1.0 / (4.0 * n_g))))
        if n_g == 64:
            s64 = s
    ok = worst <= TOL and s64 >= 0.746
    report(3, ok, f"garbage detection matches 3/4 - 1/(4n) (max dev {worst:.2e}, s(64)={s64:.6f})")


def test_criterion_04_multipicture_optimal_acceptance():
    worst = 0.0
    for n in (2, 4, 10, 100):
        inst = seal_multipicture(pictures(n))
        accept, _ = optimal_post_collapse_response(inst, "1")
        worst = max(worst, abs(accept - 1.0 / n), abs((1.0 - accept) - (n - 1) / n))
    ok = worst <= TOL
    report(4, ok, f"post-collapse acceptance is 1/n for n in 2,4,10,100 (max dev {worst:.2e})")


def test_criterion_05_constant_predicate_is_undetectable():
    inst = seal_multipicture(pictures(4))
    result = predicate_cheat(inst, {p: 1 for p in pictures(4)})
    weight, state = result.returned.members[0]
    drift = max_abs_diff(state, inst.reference)
    ok = abs(result.s) <= TOL and len(result.returned.members) == 1 and drift <= TOL
    report(5, ok, f"constant predicate: s={result.s!r}, state drift {drift:.2e}")


def test_criterion_06_theorem_property_sweep():
    start = time.perf_counter()
    plan = [
        (seal_naive("M", garbage="0"), 250, 100),
        (seal_garbage("M", ["g0", "g1"]), 150, 400),
        (seal_garbage("M", [f"g{i}" for i in range(4)]), 150, 800),
        (seal_multipicture(pictures(4)), 200, 1200),
        (seal_multipicture(pictures(6)), 150, 1600),
        (seal_multipicture(pictures(8)), 100, 2000),
    ]
    total = 0
    min_margin = float("inf")
    chains_ok = True
    for inst, trials, seed in plan:
        for rep in random_strategy_sweep(inst, trials, rng_seed=seed):
            total += 1
            min_margin = min(min_margin, rep.margin)
            if not proof_chain(inst, rep).holds(TOL):
                chains_ok = False
    elapsed = time.perf_counter() - start
    ok = total >= 1000 and min_margin >= -TOL and chains_ok and elapsed < 120.0
    report(
        6,
        ok,
        f"{total} random strategies, min margin {min_margin:.3e}, "
        f"chains hold, {elapsed:.1f}s",
    )


def test_criterion_07_oaep_completeness_and_round_trip():
    start = time.perf_counter()
    accepts = []
    for k0 in (1, 4, 8):
        ctx = OaepContext.create(k0=k0, n=8, with_human=False)
        inst = seal_oaep(0x5C, ctx)
        _, accept = verify_return(inst, Ensemble.pure(inst.reference), 0)
        accepts.append(accept)
    ctx = OaepContext.create(k0=8, n=8)
    y = 0x9D
    branches_ok = all(
        decode_preimage(ctx, ctx.human.invert(encode(y, r, ctx))) == (y, r)
        for r in range(256)
    )
    elapsed = time.perf_counter() - start
    ok = all(a == 1.0 for a in accepts) and branches_ok and elapsed < 10.0
    report(
        7,
        ok,
        f"honest acceptance {accepts} for k0=1,4,8; 256-branch round trip in {elapsed:.2f}s",
    )


def test_criterion_08_oaep_basis_cheat_detection():
    worst = 0.0
    for k0 in (4, 8, 12):
        ctx = OaepContext.create(k0=k0, n=8, with_human=False)
        result = basis_cheat(seal_oaep(0x2F, ctx))
        worst = max(worst, abs(result.s - (1.0 - 2.0**-k0)))
    ok = worst <= TOL
    report(8, ok, f"token readout detection is 1 - 2^-k0 for k0=4,8,12 (max dev {worst:.2e})")


def test_criterion_09_projector_overlap_grid():
    worst = 0.0
    divergences = {}
    for k0 in range(4, 11):
        ctx = OaepContext.create(k0=k0, n=8, with_human=False)
        inst = seal_oaep(0x13, ctx)
        for size in (0, 1, 4, 16):
            if size >= (1 << k0):
                continue
            excluded = set(range(size))
            overlap = tu_overlap(inst, excluded)
            closed = 1.0 - useless_query_bound(ctx, excluded)
            worst = max(worst, abs(overlap - closed))
            divergences[(k0, size)] = 1.0 - overlap
    halving_ok = True
    for size in (1, 4, 16):
        for k0 in range(4, 10):
            if (k0, size) not in divergences or (k0 + 1, size) not in divergences:
                continue
            a, b = divergences[(k0, size)], divergences[(k0 + 1, size)]
            if abs(b - a / 2.0) > TOL:
                halving_ok = False
    ok = worst <= TOL and halving_ok
    report(
        9,
        ok,
        f"state-vector overlap matches 1 - |R|/2^k0 on a 7x4 grid "
        f"(max dev {worst:.2e}); divergence halves per pad bit",
    )


def test_criterion_10_footnote_counterexample():
    y = 0x4E
    ctx = OaepContext.create(k0=8, n=8)
    inst = seal_oaep(y, ctx)
    recovered, r = unseal_oaep(inst, ctx, rng_seed=9)
    branch = SparseState({(format(r, "08b"), encode(y, r, ctx)): 1.0})
    _, accept = verify_return(inst, Ensemble.pure(branch), 0)
    useful = r_set(ctx, y)
    ok = recovered == y and abs(accept - 2.0**-8) <= TOL and useful == {r}
    report(
        10,
        ok,
        f"classical branch accepted with probability {accept!r} while the "
        f"query set {sorted(useful)} stays useful",
    )
