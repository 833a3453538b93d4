import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _previous_reports,
    bisection_links,
    chain_excess,
    dense_trace_distance,
    enumerate_basis_readout,
    exact_sum,
    identity_unitary,
    max_abs_diff,
    normal_block,
    previous_collapse_branches,
    previous_inner_product,
    previous_rotated_masses,
    previous_sparse_report,
    random_state,
    reference_random_partition,
    uniform_state,
)
from qseal import adversary, harness
from qseal.adversary import (
    CheatReport,
    basis_cheat,
    optimal_post_collapse_response,
    predicate_cheat,
    predicate_partition,
    proof_chain,
    random_partition,
    random_strategy_sweep,
    soundness_bound,
    strategy_report,
)
from qseal.oaep import OaepContext, seal_oaep
from qseal.protocols import (
    GARBAGE,
    MULTIPICTURE,
    SealedInstance,
    seal_garbage,
    seal_multipicture,
    seal_naive,
)
from qseal.states import (
    DENSE_DIM_CAP,
    EXACT_TOL,
    PRUNE_TOL,
    TRIALS_CAP,
    Ensemble,
    LocalUnitary,
    ProjPartition,
    SparseState,
    collapse_branches,
    project_accept_probability,
    random_unitary,
    squared_overlap,
    trace_distance_pure,
    trace_distance_pure_vs_ensemble,
)

BOUND_AT_HALF = 0.8535533905932737  # (2 + sqrt 2) / 4


def pictures(n):
    return [f"pic{i + 1}" for i in range(n)]


LABELS = st.text(min_size=1, max_size=6)


@st.composite
def sealed_instances(draw):
    """A naive seal, a garbage seal with 1-40 labels or a multipicture seal with
    2-22 pictures, on generated label text; up to garbage size 21 and every
    picture count, |B|*|C| stays within DENSE_DIM_CAP for random trials."""
    kind = draw(st.sampled_from(["naive", "garbage", "multipicture"]))
    if kind == "multipicture":
        return seal_multipicture(draw(st.lists(LABELS, min_size=2, max_size=22, unique=True)))
    message = draw(LABELS)
    garbage = draw(st.lists(LABELS.filter(lambda g: g != message), min_size=1,
                            max_size=1 if kind == "naive" else 40, unique=True))
    return seal_naive(message, garbage[0]) if kind == "naive" else seal_garbage(message, garbage)


def rotated_branches(inst, basis, stack, partitions):
    """``_rotated_branches`` on a stack of unitaries on ``basis``, each report
    holding its strategy as ``strategy_report`` would: (reference,
    ``LocalUnitary`` of its matrix, its partition)."""
    strategies = [(inst.reference, LocalUnitary(basis, m), partition)
                  for m, partition in zip(stack, partitions)]
    return adversary._rotated_branches(inst, basis, stack, partitions, strategies)


def chain_calls(monkeypatch):
    """The row count of each ``chain_links`` call made from now on: one call per
    ``_rotated_branches`` call, so one per sweep chunk."""
    calls = []
    links = adversary.chain_links

    def counted(q, c):
        calls.append(len(q))
        return links(q, c)

    monkeypatch.setattr(adversary, "chain_links", counted)
    return calls


class TestSoundnessBound:
    def test_value_at_one_half(self):
        assert soundness_bound(0.5) == pytest.approx(BOUND_AT_HALF, abs=1e-15)
        assert soundness_bound(0.5) == pytest.approx(
            (2.0 + math.sqrt(2.0)) / 4.0, abs=1e-15
        )

    def test_endpoints(self):
        assert soundness_bound(0.0) == 1.0
        assert soundness_bound(1.0) == 0.0


class TestGenericCheat:
    # The generic cheat runs the honest unseal, a basis readout of C,
    # coherently and uncomputes it: it is basis_cheat.
    def test_naive(self):
        report = basis_cheat(seal_naive("M", garbage="0"))
        assert report.p == pytest.approx(0.5, abs=1e-12)
        assert report.s == pytest.approx(0.5, abs=1e-12)
        assert report.bound == pytest.approx(BOUND_AT_HALF, abs=1e-12)
        assert report.margin > 0.35

    def test_garbage_four(self):
        inst = seal_garbage("M", [f"g{i}" for i in range(4)])
        report = basis_cheat(inst)
        assert report.p == pytest.approx(0.5, abs=1e-12)
        assert report.s == pytest.approx(0.6875, abs=1e-12)

    def test_garbage_matches_enumeration_oracle(self):
        inst = seal_garbage("M", [f"g{i}" for i in range(7)])
        oracle = enumerate_basis_readout(inst.reference.amps)
        expected_accept = sum(p * a for p, a in oracle.values())
        report = basis_cheat(inst)
        assert report.s == pytest.approx(1.0 - expected_accept, abs=1e-12)
        table = {outcome: (q, acc) for outcome, q, acc in report.outcome_table}
        for c_label, (prob, acceptance) in oracle.items():
            assert table[c_label][0] == pytest.approx(prob, abs=1e-12)
            assert table[c_label][1] == pytest.approx(acceptance, abs=1e-12)

    def test_multipicture_recovers_always_and_gets_caught(self):
        report = basis_cheat(seal_multipicture(pictures(4)))
        assert report.p == pytest.approx(1.0, abs=1e-12)
        assert report.s == pytest.approx(0.75, abs=1e-12)
        assert report.p_bound == pytest.approx(0.25, abs=1e-12)
        assert report.margin >= -1e-12

    def test_outcome_probabilities_sum_to_one(self):
        report = basis_cheat(seal_garbage("M", ["g0", "g1", "g2"]))
        assert sum(q for _, q, _ in report.outcome_table) == pytest.approx(
            1.0, abs=1e-9
        )


class TestBasisCheat:
    def test_naive_detection(self):
        assert basis_cheat(seal_naive("M", "0")).s == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_multipicture_detection(self, n):
        report = basis_cheat(seal_multipicture(pictures(n)))
        assert report.s == pytest.approx(1.0 - 1.0 / n, abs=1e-12)
        assert report.p == pytest.approx(1.0, abs=1e-12)

    def test_branch_overlap_is_branch_probability(self):
        # For measure-and-uncompute strategies each branch's acceptance
        # equals its probability, which is what drives the bound.
        report = basis_cheat(seal_garbage("M", ["g0", "g1", "g2"]))
        for _, q, acceptance in report.outcome_table:
            assert acceptance == pytest.approx(q, abs=1e-12)


class TestPredicateCheat:
    def test_constant_predicate_is_invisible(self):
        inst = seal_multipicture(pictures(4))
        g = {p: 1 for p in pictures(4)}
        report = predicate_cheat(inst, g)
        assert report.s == pytest.approx(0.0, abs=1e-12)
        assert len(report.returned.members) == 1
        weight, state = report.returned.members[0]
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert max_abs_diff(state, inst.reference) < 1e-12

    def test_isolating_one_picture(self):
        inst = seal_multipicture(pictures(4))
        g = {"pic1": 1, "pic2": 0, "pic3": 0, "pic4": 0}
        report = predicate_cheat(inst, g)
        assert report.p == pytest.approx(0.25, abs=1e-12)
        assert report.s == pytest.approx(0.375, abs=1e-12)

    def test_even_split(self):
        inst = seal_multipicture(pictures(4))
        g = {"pic1": 1, "pic2": 1, "pic3": 0, "pic4": 0}
        report = predicate_cheat(inst, g)
        assert report.p == 0.0
        assert report.s == pytest.approx(0.5, abs=1e-12)

    def test_isolating_the_message_on_naive(self):
        inst = seal_naive("M", garbage="0")
        report = predicate_cheat(inst, {"M": 1, "0": 0})
        assert report.p == pytest.approx(0.5, abs=1e-12)
        assert report.s == pytest.approx(0.5, abs=1e-12)
        assert report.margin >= -1e-12

    @pytest.mark.parametrize(
        "one", [1.0, True, np.int64(1), np.float64(1.0)], ids=["float", "bool", "numpy-int", "numpy-float"])
    def test_every_value_equal_to_one_names_outcome_g1(self, one):
        inst = seal_garbage("M", ["a", "b", "c"])
        want = predicate_cheat(inst, {"M": 1, "a": 1, "b": 1, "c": 0})
        assert [row[0] for row in want.outcome_table] == ["g=0", "g=1"]
        for g in ({"M": 1, "a": one, "b": one, "c": 0}, {"M": one, "a": 1, "b": one, "c": one - one}):
            report = predicate_cheat(inst, g)
            assert report.to_dict() == want.to_dict()
            assert report == want

    def test_mixed_values_equal_to_one_make_two_outcomes(self):
        # Named after each value, these would split into g=0, g=1, g=1.0 and g=True (s = 2/3).
        inst = seal_garbage("M", ["a", "b", "c"])
        report = predicate_cheat(inst, {"M": 1, "a": 1.0, "b": True, "c": 0})
        assert report.to_dict() == predicate_cheat(inst, {"M": 1, "a": 1, "b": 1, "c": 0}).to_dict()
        assert report.s == pytest.approx(0.2777777777777778, abs=1e-12)

    def test_partial_predicate_rejected(self):
        inst = seal_multipicture(pictures(4))
        with pytest.raises(ValueError, match="predicate undefined on labels"):
            predicate_cheat(inst, {"pic1": 1})

    def test_non_binary_values_rejected(self):
        inst = seal_naive("M", garbage="0")
        with pytest.raises(ValueError, match="predicate values must be 0 or 1"):
            predicate_cheat(inst, {"M": 2, "0": 0})


class TestOptimalPostCollapse:
    @pytest.mark.parametrize("n, expected", [(2, 0.5), (10, 0.1)])
    def test_best_acceptance_is_branch_mass(self, n, expected):
        inst = seal_multipicture(pictures(n))
        accept, state = optimal_post_collapse_response(inst, "1")
        assert accept == pytest.approx(expected, abs=1e-12)
        assert set(state.amps) == {("1", "pic1")}

    def test_branch_past_norm_one_is_pruned_as_input_is(self):
        # A reference norm past 1, within NORM_TOL, scales its branch down, which
        # takes the PRUNE_TOL amplitude below the tolerance: the response drops
        # it, as the state built from the scaled map by ``SparseState`` does.
        big = complex(math.sqrt(1.0 + 9e-10))
        reference = SparseState({("1", "x"): big, ("1", "t"): complex(PRUNE_TOL)})
        accept, state = optimal_post_collapse_response(SealedInstance(MULTIPICTURE, reference, {}, {}), "1")
        scale = 1.0 / math.sqrt(accept)
        assert scale < 1.0 and PRUNE_TOL * scale < PRUNE_TOL
        assert _state_bits(state) == _state_bits(SparseState({("1", "x"): big * scale}))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_best_acceptance_is_the_correctly_rounded_branch_mass(self, seed):
        # A hand-built reference with about 33 amplitudes per index label.
        reference = random_state(seed, b_pool=["1", "2", "3"],
                                 c_pool=[f"c{i}" for i in range(40)], support=100)
        inst = SealedInstance(MULTIPICTURE, reference, {}, {})
        for index in sorted(reference.b_labels()):
            accept, state = optimal_post_collapse_response(inst, index)
            assert accept == exact_sum(
                abs(a) ** 2 for (b, _), a in reference.amps.items() if b == index)
            # The block scaled by 1 / sqrt(accept): adopted at a scale of at least 1, else validated.
            scale = 1.0 / math.sqrt(accept)
            scaled = {key: a * scale for key, a in reference.amps.items() if key[0] == index}
            want = SparseState._adopt(scaled) if scale >= 1.0 else SparseState(scaled)
            assert _state_bits(state) == _state_bits(want)

    def test_orthogonal_branch_scores_zero(self):
        inst = seal_multipicture(pictures(4))
        wrong = SparseState({("1", "pic2"): 1.0})
        assert project_accept_probability(inst.reference, Ensemble.pure(wrong)) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="not multipicture"):
            optimal_post_collapse_response(seal_naive("M", "0"), "0")
        with pytest.raises(ValueError, match="no branch with index label '9'"):
            optimal_post_collapse_response(seal_multipicture(pictures(3)), "9")


class TestRandomStrategySweep:
    def test_identity_strategy_equals_basis_cheat(self):
        inst = seal_garbage("M", ["g0", "g1"])
        direct = basis_cheat(inst)
        degenerate = strategy_report(inst, None, None)
        assert degenerate.p == direct.p
        assert degenerate.s == direct.s
        assert degenerate.bound == direct.bound
        assert degenerate.outcome_table == direct.outcome_table

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_strategy_sweep(seal_naive("M", garbage="0"), 3, rng_seed=-1)

    def test_import_leaves_numpy_random_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, {}; print('numpy.random' in sys.modules)"
        if subprocess.run([sys.executable, "-c", probe.format("numpy")], env=env,
                          capture_output=True, text=True, check=True).stdout.strip() == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        loaded = subprocess.run([sys.executable, "-c", probe.format("qseal")], env=env,
                                capture_output=True, text=True, check=True).stdout.strip()
        assert loaded == "False"

    def test_sweep_is_deterministic(self):
        inst = seal_naive("M", garbage="0")
        a = random_strategy_sweep(inst, 10, rng_seed=3)
        b = random_strategy_sweep(inst, 10, rng_seed=3)
        assert [(r.p, r.s, r.bound) for r in a] == [(r.p, r.s, r.bound) for r in b]

    def test_no_bound_violations_across_protocols(self):
        instances = [
            seal_naive("M", garbage="0"),
            seal_garbage("M", ["g0", "g1", "g2"]),
            seal_multipicture(pictures(4)),
        ]
        for inst in instances:
            for report in random_strategy_sweep(inst, 60, rng_seed=0):
                assert report.margin >= -1e-12

    def test_margin_slack_is_reported(self):
        inst = seal_naive("M", garbage="0")
        margins = [r.margin for r in random_strategy_sweep(inst, 50, rng_seed=1)]
        assert max(margins) >= 0.0

    def test_rejects_oversized_instances(self):
        inst = seal_multipicture(pictures(23))  # 23 x 23 joint labels
        with pytest.raises(ValueError, match="sweep joint dimension 529 exceeds cap 512"):
            random_strategy_sweep(inst, 1, rng_seed=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            random_strategy_sweep(seal_naive("M", "0"), 0, rng_seed=0)

    @staticmethod
    def rectangular_instance(n_b, n_c):
        """|B| = n_b and |C| = n_c: key i pairs b{i mod n_b} with c{i mod n_c},
        for i below max(n_b, n_c)."""
        reference = uniform_state((f"b{i % n_b}", f"c{i % n_c}") for i in range(max(n_b, n_c)))
        decode = {f"c{i}": None for i in range(n_c)}
        decode["c0"] = "M"
        return SealedInstance(GARBAGE, reference, decode, {})

    def test_guard_admits_joint_dimension_at_the_cap(self):
        inst = self.rectangular_instance(2, 256)  # |B| * |C| = 512
        (report,) = random_strategy_sweep(inst, 1, rng_seed=0)
        assert report.margin >= -1e-12
        assert proof_chain(inst, report).holds()

    def test_guard_rejects_joint_dimension_past_the_cap(self):
        inst = self.rectangular_instance(3, 171)  # |B| * |C| = 513
        with pytest.raises(ValueError, match="sweep joint dimension 513 exceeds cap"):
            random_strategy_sweep(inst, 1, rng_seed=0)



class TestStackedSweep:
    """The sweep's stacks change no bit: each report is ``strategy_report`` on
    the trial's own draws, and its stored distance is ``proof_chain``'s."""

    @staticmethod
    def assert_trials_are_single_strategies(inst, trials, rng_seed, monkeypatch):
        """The sweep's reports, each checked against its strategy alone, and the
        trial count of each of its chunks (one ``chain_links`` call each)."""
        labels = sorted(inst.reference.c_labels())
        calls = chain_calls(monkeypatch)
        reports = random_strategy_sweep(inst, trials, rng_seed)
        chunks = calls.copy()
        assert len(reports) == trials
        for t, report in enumerate(reports):
            rng = np.random.default_rng(rng_seed + t)
            u, partition = random_unitary(labels, rng), random_partition(labels, rng)
            single = strategy_report(inst, u, partition)
            assert report.outcome_table == single.outcome_table
            assert (report.p, report.s, report.bound) == (single.p, single.s, single.bound)
            # The chain holds the trace distance: stack and single agree bit for bit.
            assert proof_chain(inst, report) == proof_chain(inst, single)
            # The strategy holds the trial's seed; TestRebuiltUnitary checks its replay.
            assert report.strategy[1] == rng_seed + t
        return reports, chunks

    @staticmethod
    def per_chunk(inst):
        n_b, n_c = len(inst.reference.b_labels()), len(inst.reference.c_labels())
        return adversary._trials_per_chunk(n_b, n_c)

    @pytest.mark.parametrize(
        "inst, budget",
        [(seal_multipicture(pictures(8)), adversary._CHUNK_AMPLITUDES),
         # 4096 trials a chunk at the sweep's budget, past TRIALS_CAP; 64 at this one.
         (seal_garbage("M", ["g0", "g1", "g2"]), 1 << 10)],
        ids=["multipicture-8", "garbage-3"])
    def test_trials_across_a_chunk_boundary(self, inst, budget, monkeypatch):
        monkeypatch.setattr(adversary, "_CHUNK_AMPLITUDES", budget)
        per_chunk = self.per_chunk(inst)
        _, chunks = self.assert_trials_are_single_strategies(
            inst, per_chunk + 3, rng_seed=7, monkeypatch=monkeypatch)
        assert chunks == [per_chunk, 3]

    def test_cell_names_sort_as_text_across_a_chunk_boundary(self, monkeypatch):
        # 17 labels draw up to 17 cells, and "cell10" ... "cell16" sort before "cell2".
        inst = seal_garbage("M", [f"g{i}" for i in range(16)])
        per_chunk = self.per_chunk(inst)
        reports, chunks = self.assert_trials_are_single_strategies(
            inst, per_chunk + 3, rng_seed=7, monkeypatch=monkeypatch)
        assert chunks == [per_chunk, 3]
        outcomes = [[row[0] for row in report.outcome_table] for report in reports]
        assert all(names == sorted(names) for names in outcomes)
        assert any("cell2" in names and any(len(o) == 6 and o.startswith("cell1")
                                            for o in names[:names.index("cell2")])
                   for names in outcomes)

    def test_one_trial_per_chunk(self, monkeypatch):
        inst = seal_multipicture(pictures(5))
        monkeypatch.setattr(adversary, "_CHUNK_AMPLITUDES", 1)  # below one trial: one per chunk
        _, chunks = self.assert_trials_are_single_strategies(inst, 12, rng_seed=3,
                                                             monkeypatch=monkeypatch)
        assert chunks == [1] * 12

    def test_non_unitary_slice_raises_the_local_unitary_message(self, monkeypatch):
        inst = seal_multipicture(pictures(4))
        draw = adversary.haar_unitaries

        def one_bad_slice(normals):
            stack = draw(normals)
            stack[len(stack) // 2] *= 1.001
            return stack

        monkeypatch.setattr(adversary, "haar_unitaries", one_bad_slice)
        labels = tuple(sorted(inst.reference.c_labels()))
        rngs = [np.random.default_rng(t) for t in range(5)]
        bad = one_bad_slice(normal_block(rngs, len(labels)))[2]
        with pytest.raises(ValueError) as single:
            LocalUnitary(labels, bad)
        with pytest.raises(ValueError) as batch:
            random_strategy_sweep(inst, 5, rng_seed=0)
        assert str(batch.value) == str(single.value)
        assert str(batch.value).startswith("matrix is not unitary (defect 2.00")

    def test_non_normalized_slice_raises_the_single_strategy_message(self):
        # A unitary scaled past NORM_TOL, set on a LocalUnitary after its
        # check, leaves the outcome masses summing to the square of the scale.
        inst = seal_multipicture(pictures(4))
        labels = tuple(sorted(inst.reference.c_labels()))
        stack = adversary.haar_unitaries(
            normal_block([np.random.default_rng(t) for t in range(4)], len(labels)))
        stack[1] *= 1.001
        u = random_unitary(labels, 0)
        object.__setattr__(u, "matrix", stack[1])
        with pytest.raises(ValueError) as single:
            strategy_report(inst, u, None)
        with pytest.raises(ValueError) as batch:  # raised before any report takes a strategy
            adversary._rotated_branches(inst, labels, stack, [ProjPartition.finest(labels)] * 4, [None] * 4)
        message = str(batch.value)
        assert message == str(single.value)
        assert message.startswith("ensemble weights sum to 1.002")


class TestCellRows:
    """A sweep hands its partitions to ``_rotated_branches`` as rows of cell numbers."""

    def test_cell_rows_equal_their_partitions_with_an_inactive_column(self, monkeypatch):
        # The Hadamard on c0, c1 sends b0's two equal amplitudes wholly to c0, so
        # c1 holds nothing after it: a cell holding only c1 is no outcome.
        reference = uniform_state([("b0", "c0"), ("b0", "c1"), ("b1", "c2")])
        basis = ["c0", "c1", "c2"]
        root = math.sqrt(2.0)
        hadamard = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, root]]) / root
        rngs = [np.random.default_rng(t) for t in range(4)]
        drawn = adversary.haar_unitaries(normal_block(rngs, 3))
        stack = np.concatenate((np.repeat(hadamard[None], 4, axis=0), drawn))
        rng = np.random.default_rng(0)
        cells = np.array([[0, 1, 0], [1, 2, 0], [2, 1, 0], [0, 0, 0]]
                         + [adversary._random_cells(3, rng) for _ in range(4)])
        partitions = [ProjPartition({c: f"cell{k}" for c, k in zip(basis, row)})
                      for row in cells.tolist()]
        inst = SealedInstance(GARBAGE, reference, {c: c.upper() for c in basis}, {})
        calls = chain_calls(monkeypatch)
        strategies = [(reference, LocalUnitary(basis, m), partition)
                      for m, partition in zip(stack, partitions)]
        by_row = adversary._rotated_branches(inst, basis, stack, cells, strategies)
        by_partition = adversary._rotated_branches(inst, basis, stack, partitions, strategies)
        assert [[o for o, _, _ in report.outcome_table] for report in by_row[:4]] == [
            ["cell0"], ["cell0", "cell1"], ["cell0", "cell2"], ["cell0"]]
        assert calls == [8, 8]
        for row, partition in zip(by_row, by_partition):
            # Reports compare p, s, bound, the table and p_bound, which reads the lone labels.
            assert row == partition
            assert proof_chain(inst, row) == proof_chain(inst, partition)
            assert _report_bits(row) == _report_bits(partition)

    def test_sweep_builds_no_partition(self, monkeypatch):
        inst = seal_garbage("M", [f"g{i}" for i in range(11)])
        expected = random_strategy_sweep(inst, 30, rng_seed=2)

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep builds no ProjPartition")

        monkeypatch.setattr(adversary, "random_partition", refuse)
        monkeypatch.setattr(adversary, "ProjPartition", refuse)
        assert random_strategy_sweep(inst, 30, rng_seed=2) == expected

    @pytest.mark.parametrize("n", [1, 2, 11, 17, 64])
    def test_random_partition_draws_as_the_label_by_label_sampler(self, n):
        labels = [f"c{i}" for i in reversed(range(n))]
        for seed in range(32):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_partition(labels, rng) == reference_random_partition(
                labels, reference_rng)
            assert rng.random() == reference_rng.random()


def default_rng_state(seed):
    """The whole ``bit_generator.state`` of numpy's own ``default_rng(seed)``."""
    return np.random.default_rng(seed).bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStreamEquivalence:
    """A sweep seeds and draws its trials without ``default_rng``, and gets its bits.

    The emulation copies numpy internals (``SeedSequence``'s hash, PCG64's
    seeding step and ``Generator.integers``' rule), so these tests also run
    against the oldest numpy ``pyproject.toml`` allows. The hash wraps uint32
    arithmetic on purpose, which numpy warns of only on scalars: a warning here
    means a hash round left its arrays, so it fails the test."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                      2**128 - 1, 2**128, 2**200])
    def test_states_at_word_boundaries(self, seed):
        assert adversary._pcg64_states(range(seed, seed + 1)) == [default_rng_state(seed)]

    def test_a_range_across_word_counts(self):
        # Four words, then five: two hashing passes in one call.
        seeds = range(2**128 - 3, 2**128 + 3)
        assert adversary._pcg64_states(seeds) == [default_rng_state(s) for s in seeds]

    @pytest.mark.parametrize("seeds", [range(2**160 - 3, 2**160 + 3), range(3 * 2**190, 3 * 2**190 + 50)],
                             ids=["five-then-six-words", "fifty-six-word-seeds"])
    def test_extra_word_rounds_on_many_seeds(self, seeds):
        # A pass hashes each extra word beyond the pool's four in one round over
        # all its seeds, so each seed's words must stay in its own column.
        assert adversary._pcg64_states(seeds) == [default_rng_state(s) for s in seeds]

    @given(seed=st.integers(0, 2**140 - 1))
    @settings(max_examples=200, deadline=None)
    def test_states_equal_default_rng(self, seed):
        assert adversary._pcg64_states(range(seed, seed + 1)) == [default_rng_state(seed)]

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 256, 512])
    def test_normals_and_cells_equal_default_rng_draws(self, n):
        seeds = range(40, 40 + (24 if n <= 64 else 3))
        rng = np.random.Generator(np.random.PCG64(0))
        normals, cells = adversary._draw_trials(rng, adversary._pcg64_states(seeds), n)
        assert normals.shape == (len(seeds), 2, n, n) and cells.shape == (len(seeds), n)
        for seed, block, row in zip(seeds, normals, cells):
            reference = np.random.default_rng(seed)
            assert np.array_equal(block, reference.standard_normal((2, n, n)))
            assert np.array_equal(row, adversary._random_cells(n, reference))

    @pytest.mark.parametrize("k", [2**31 + 1, 3])
    def test_lemire_rule_equals_integers(self, k):
        # k = 2^31 + 1 rejects about half its words, so the accepted draws in
        # order, low half before high half, must skip exactly numpy's rejects.
        bitgen = np.random.PCG64(11)
        reference = np.random.Generator(np.random.PCG64(11)).integers(0, k, size=200)
        raw = bitgen.random_raw(300)
        words = np.stack((raw & np.uint64(2**32 - 1), raw >> np.uint64(32)), axis=-1).ravel()
        draws, kept = adversary._lemire(words, k)
        if k == 3:
            assert kept.all()
        else:
            assert 200 < kept.sum() < 400
        assert np.array_equal(draws[kept][:200], reference)

    def test_lemire_threshold_is_inclusive(self):
        # k = 3: the threshold (2^32 - 3) mod 3 is 1. 0xAAAAAAAB * 3 = 2 * 2^32 + 1
        # leaves exactly 1 and is kept (draw 2); a zero word leaves 0 and is rejected.
        draws, kept = adversary._lemire(np.array([0xAAAAAAAB, 0], dtype=np.uint64), 3)
        assert draws.tolist() == [2, 0] and kept.tolist() == [True, False]

    def test_rejected_trials_are_redrawn_exactly(self, monkeypatch):
        # A chunk's natural rejections are rarer than n^2 / 2^32 per trial, so
        # reject every word of every other trial: each is redrawn by _random_cells.
        inst = seal_garbage("M", [f"g{i}" for i in range(11)])
        expected = random_strategy_sweep(inst, 30, rng_seed=9)
        lemire = adversary._lemire

        def reject_odd_trials(words, k):
            draws, kept = lemire(words, k)
            kept[1::2] = False
            return draws * 0, kept

        monkeypatch.setattr(adversary, "_lemire", reject_odd_trials)
        redrawn = random_strategy_sweep(inst, 30, rng_seed=9)
        assert redrawn[1::2] == expected[1::2]
        assert redrawn[::2] != expected[::2]


class TestChainsPerChunk:
    """A sweep builds its reports' proof chains with them, one ``chain_links``
    call per chunk; reading a chain makes no call."""

    def test_proof_chains_make_one_call_per_chunk(self, monkeypatch):
        # 100 trials on multipicture-8 fit one chunk, so the chains of one stack
        # of the same draws are the sweep's.
        inst = seal_multipicture(pictures(8))
        labels = sorted(inst.reference.c_labels())
        rngs = [np.random.default_rng(t) for t in range(100)]
        stack = adversary.haar_unitaries(normal_block(rngs, len(labels)))
        partitions = [random_partition(labels, rng) for rng in rngs]
        calls = chain_calls(monkeypatch)
        stacked = rotated_branches(inst, labels, stack, partitions)
        assert calls == [100]
        eager = [proof_chain(inst, report) for report in stacked]
        calls.clear()
        reports = random_strategy_sweep(inst, len(rngs), rng_seed=0)
        assert calls == [100]
        chains = [proof_chain(inst, report) for report in reports]
        assert chains == eager
        assert calls == [100]
        # 30 trials per chunk: four chunks, four calls, the same chains.
        monkeypatch.setattr(adversary, "_CHUNK_AMPLITUDES", 30 * 8 * 8)
        assert adversary._trials_per_chunk(8, 8) == 30
        chunked = random_strategy_sweep(inst, len(rngs), rng_seed=0)
        assert calls == [100, 30, 30, 30, 10]
        assert [proof_chain(inst, report) for report in chunked] == chains
        assert calls == [100, 30, 30, 30, 10]


class TestChunkBudget:
    """A sweep's chunk holds ``_trials_per_chunk`` trials, so no array of a chunk
    passes 2^17 entries unless one trial's does, and a full chunk fills its budget."""

    @pytest.mark.parametrize("n_b, n", [(2, 2), (17, 17), (22, 22), (2, 256), (256, 2)])
    def test_no_chunk_array_passes_the_budget(self, n_b, n, monkeypatch):
        inst = TestRandomStrategySweep.rectangular_instance(n_b, n)
        assert (len(inst.reference.b_labels()), len(inst.reference.c_labels())) == (n_b, n)
        chunks = []  # per chunk: (trials, the shapes of its arrays)
        draw, rotate = adversary.haar_unitaries, adversary._rotated_branches

        def recorded_draw(normals):
            stack = draw(normals)
            chunks.append((len(normals), [normals.shape, stack.shape]))
            return stack

        def recorded_rotate(inst, basis, matrices, cells, strategies):
            # psi @ U^T rotates the |B| x |C| block of every trial at once.
            chunks[-1][1].extend([(len(matrices), n_b, n), cells.shape])
            return rotate(inst, basis, matrices, cells, strategies)

        monkeypatch.setattr(adversary, "haar_unitaries", recorded_draw)
        monkeypatch.setattr(adversary, "_rotated_branches", recorded_rotate)
        per_chunk = adversary._trials_per_chunk(n_b, n)
        trials = min(per_chunk + 1, TRIALS_CAP)
        assert len(random_strategy_sweep(inst, trials, rng_seed=0)) == trials
        sizes = [size for size, _ in chunks]
        assert sizes == ([trials] if per_chunk >= TRIALS_CAP else [per_chunk, 1])
        for size, shapes in chunks:
            assert all(math.prod(shape) <= 2**17 or size == 1 for shape in shapes)
        if per_chunk < TRIALS_CAP:  # a full chunk: its largest array reaches the budget
            assert max(map(math.prod, chunks[0][1])) >= adversary._CHUNK_AMPLITUDES

    def test_bound_sweep_seeds_once_and_draws_once_per_c_size(self, monkeypatch):
        calls = {"_pcg64_states": [], "_draw_trials": [], "haar_unitaries": [],
                 "_rotated_branches": []}
        for name, record in calls.items():
            def recorded(*args, _fn=getattr(adversary, name), _record=record):
                _record.append(args)
                return _fn(*args)
            monkeypatch.setattr(adversary, name, recorded)
        harness.run_bound_sweep(harness.ExperimentConfig(trials=100))
        assert len(calls["_pcg64_states"]) == 1
        # Every default instance but garbage-64 (|B| |C| = 4225) is swept; naive,
        # garbage-1 and multipicture-2 share |C| = 2, so 8 instances take 6 draws.
        assert [n for _, _, n in calls["_draw_trials"]] == [2, 3, 5, 17, 4, 10]
        assert len(calls["haar_unitaries"]) == 6
        rotated = [len(inst.reference.c_labels()) for inst, *_ in calls["_rotated_branches"]]
        assert rotated == [2, 2, 2, 3, 5, 17, 4, 10]


class TestSweepsAcrossInstances:
    """``random_strategy_sweeps`` gives each instance the reports, trial by trial,
    that ``random_strategy_sweep`` gives it alone, though instances of one |C|
    share each chunk's draw and take their group's smallest chunk."""

    def test_each_instance_equals_its_own_sweep(self, monkeypatch):
        rect = TestRandomStrategySweep.rectangular_instance
        # |C| = 2 at |B| = 2, 256 and naive's, with |C| = 3 between: the |C| = 2
        # group runs chunks of 128 trials (|B| = 256), its members alone 16384.
        insts = [rect(2, 2), rect(3, 3), rect(256, 2), seal_naive("M", garbage="0")]
        assert adversary._trials_per_chunk(256, 2) == 128
        trials, rng_seed = 130, 5
        draws = []
        draw = adversary._draw_trials
        monkeypatch.setattr(adversary, "_draw_trials",
                            lambda rng, states, n: draws.append((n, len(states))) or draw(rng, states, n))
        yielded = list(adversary.random_strategy_sweeps(insts, trials, rng_seed))
        assert draws == [(2, 128), (2, 2), (3, 130)]
        assert [(i, first) for i, first, _ in yielded] == [
            (0, 0), (2, 0), (3, 0), (0, 128), (2, 128), (3, 128), (1, 0)]
        for i, inst in enumerate(insts):
            chunks = [(first, reports) for k, first, reports in yielded if k == i]
            numbered = [(first + t, report) for first, reports in chunks
                        for t, report in enumerate(reports)]
            alone = random_strategy_sweep(inst, trials, rng_seed)
            assert [t for t, _ in numbered] == list(range(trials))
            assert [report for _, report in numbered] == alone
            for (t, report), single in zip(numbered, alone):
                assert report.strategy == single.strategy
                assert report.strategy[1] == rng_seed + t

    def test_validates_every_instance_before_seeding(self, monkeypatch):
        seeded = []
        monkeypatch.setattr(adversary, "_pcg64_states", seeded.append)
        fits, past = seal_naive("M", garbage="0"), seal_multipicture(pictures(23))
        with pytest.raises(ValueError, match="sweep joint dimension 529 exceeds cap 512"):
            next(adversary.random_strategy_sweeps([fits, past], 3, rng_seed=0))
        with pytest.raises(ValueError, match=f"trials must be from 1 to {TRIALS_CAP}, got 0"):
            next(adversary.random_strategy_sweeps([fits, past], 0, rng_seed=0))
        assert seeded == []


class TestStackWeightCheck:
    """``_rotated_branches`` tests every trial's outcome total in one array pass
    and, on a miss, raises ``check_weights``' message for the first failing trial."""

    @pytest.mark.parametrize("scales", [{2: 1.001}, {1: 1.5, 3: 1.001}],
                             ids=["one-corrupted", "first-of-two"])
    def test_names_the_first_corrupted_trials_total(self, scales):
        inst = seal_multipicture(pictures(4))
        labels = tuple(sorted(inst.reference.c_labels()))
        stack = adversary.haar_unitaries(
            normal_block([np.random.default_rng(t) for t in range(5)], len(labels)))
        for t, scale in scales.items():
            stack[t] *= scale
        partitions = [ProjPartition.finest(labels)] * len(stack)
        first = min(scales)
        # Each call raises before any report takes a strategy.
        with pytest.raises(ValueError) as alone:
            adversary._rotated_branches(inst, labels, stack[first][None], partitions[:1], [None])
        with pytest.raises(ValueError) as batch:
            adversary._rotated_branches(inst, labels, stack, partitions, [None] * len(stack))
        assert str(batch.value) == str(alone.value)
        message = str(batch.value)
        total = float(message.removeprefix("ensemble weights sum to ").removesuffix(", expected 1"))
        assert total == pytest.approx(scales[first] ** 2)


class TestRebuiltUnitary:
    """A sweep's report holds its trial's seed, and the strategy that ``returned``
    replays from it is the sweep's, bit for bit: its U the slice of the sweep's
    stack and its partition the trial's cell row, after a rejected Lemire word
    too, since the redraw of the cells refills the same normals. The replay rests
    on ``default_rng`` and a stacked QR giving each slice the bits it gets alone,
    so this also runs on the oldest numpy allowed."""

    @pytest.mark.parametrize("rejected", [False, True], ids=["drawn", "redrawn"])
    @pytest.mark.parametrize("n", [3, 17, 64])
    def test_returned_equals_the_stacked_slice(self, n, rejected, monkeypatch):
        inst = TestRandomStrategySweep.rectangular_instance(2, n)
        stacks, cell_rows = [], []
        draw, draw_trials, lemire = adversary.haar_unitaries, adversary._draw_trials, adversary._lemire

        def recorded_draw(normals):
            stacks.append(draw(normals))
            return stacks[-1]

        def recorded_cells(rng, states, n):
            normals, cells = draw_trials(rng, states, n)
            cell_rows.append(cells)
            return normals, cells

        def reject_odd_trials(words, k):
            draws, kept = lemire(words, k)
            kept[1::2] = False
            return draws, kept

        monkeypatch.setattr(adversary, "haar_unitaries", recorded_draw)
        monkeypatch.setattr(adversary, "_draw_trials", recorded_cells)
        if rejected:
            monkeypatch.setattr(adversary, "_lemire", reject_odd_trials)
        trials = 20  # two chunks at n = 64
        reports = random_strategy_sweep(inst, trials, rng_seed=5)
        stack, cells = np.concatenate(stacks), np.concatenate(cell_rows)
        assert len(stacks) == (2 if n == 64 else 1) and len(stack) == len(cells) == trials
        labels = sorted(inst.reference.c_labels())
        for t, report in enumerate(reports):
            reference, seed, partition = report.strategy
            assert reference is inst.reference and partition is None
            assert seed == 5 + t and isinstance(seed, int)
            rebuilt = random_unitary(labels, seed)
            assert rebuilt.basis == tuple(labels)
            assert rebuilt.matrix.tobytes() == stack[t].tobytes()
            drawn = ProjPartition({c: f"cell{k}" for c, k in zip(labels, cells[t].tolist())})
            from_slice = dataclasses.replace(
                report, strategy=(reference, LocalUnitary(labels, stack[t]), drawn))
            assert [(q.hex(), _state_bits(post)) for q, post in report.returned.members] == [
                (q.hex(), _state_bits(post)) for q, post in from_slice.returned.members]


class TestSweepMemory:
    """A sweep's reports hold seeds, not unitaries, so its peak does not grow with trials."""

    def test_peak_is_flat_in_trials_at_the_widest_block(self):
        # |B| = 2, |C| = 256: one trial a chunk, each U 1 MiB. Holding every U
        # put the 60-trial peak about 50 MiB above the 10-trial one.
        inst = TestRandomStrategySweep.rectangular_instance(2, 256)
        random_strategy_sweep(inst, 1, rng_seed=0)  # imports and caches before tracing
        peaks = []
        for trials in (10, 60):
            tracemalloc.start()
            try:
                reports = random_strategy_sweep(inst, trials, rng_seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(reports) == trials
            del reports
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 10 * 2**20


def dense_strategy(reference, basis, matrix, outcome_of):
    """Oracle: rotate, measure and undo on dense arrays over every C label.

    The unitary is widened to all C labels (identity off ``basis``); C is
    ordered by sorted label, not basis first. ``outcome_of=None`` is the
    finest partition of the labels that hold amplitude after the rotation.
    Returns {outcome: (q, acceptance, {(b, c): amplitude})}.
    """
    b_labels = sorted({b for b, _ in reference.amps})
    c_labels = sorted({c for _, c in reference.amps} | set(basis))
    b_at = {b: i for i, b in enumerate(b_labels)}
    c_at = {c: i for i, c in enumerate(c_labels)}
    psi = np.zeros((len(b_labels), len(c_labels)), dtype=complex)
    for (b, c), a in reference.amps.items():
        psi[b_at[b], c_at[c]] = a
    w = np.eye(len(c_labels), dtype=complex)
    at = [c_at[c] for c in basis]
    w[np.ix_(at, at)] = matrix
    rotated = psi @ w.T
    held = [c for c in c_labels if np.abs(rotated[:, c_at[c]]).max() >= 1e-15]
    if outcome_of is None:
        outcome_of = {c: c for c in held}
    out = {}
    for outcome in sorted({outcome_of[c] for c in held}):
        keep = np.zeros(len(c_labels))
        keep[[c_at[c] for c in held if outcome_of[c] == outcome]] = 1.0
        branch = rotated * keep
        q = float(np.sum(np.abs(branch) ** 2))
        post = branch @ w.conj() / math.sqrt(q)
        acceptance = abs(np.vdot(psi, post)) ** 2
        amps = {(b, c): post[b_at[b], c_at[c]] for b in b_labels for c in c_labels}
        out[outcome] = (q, acceptance, amps)
    return out


class TestDenseBlockOracle:
    """``strategy_report`` with a unitary against ``dense_strategy``, to 1e-12."""

    @staticmethod
    def assert_matches(report, oracle):
        assert [row[0] for row in report.outcome_table] == sorted(oracle)
        assert len(report.returned.members) == len(oracle)
        for (outcome, q, acceptance), (prob, member) in zip(
            report.outcome_table, report.returned.members
        ):
            want_q, want_acceptance, want_amps = oracle[outcome]
            assert q == prob
            assert abs(q - want_q) <= 1e-12
            assert abs(acceptance - want_acceptance) <= 1e-12
            assert set(member.amps) <= set(want_amps)
            for key, want in want_amps.items():
                assert abs(member.amps.get(key, 0.0) - want) <= 1e-12

    @pytest.mark.parametrize("cells", ["aabc", "abcd", "aaaa"])
    def test_identity_unitary_recovers_as_the_sparse_path(self, cells):
        # Only a cell holding one active label pinpoints a picture.
        inst = seal_multipicture(pictures(4))
        labels = sorted(inst.reference.c_labels())
        partition = ProjPartition(dict(zip(labels, cells)))
        dense = strategy_report(inst, identity_unitary(labels), partition)
        sparse = strategy_report(inst, None, partition)
        assert dense.p == pytest.approx(sparse.p, abs=1e-12)
        assert dense.p_bound == pytest.approx(sparse.p_bound, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("finest", [True, False], ids=["finest", "random-partition"])
    def test_ancilla_label_outside_the_support(self, seed, finest):
        inst = seal_garbage("M", ["g0", "g1"])
        basis = sorted(inst.reference.c_labels()) + ["work"]
        rng = np.random.default_rng(seed)
        u = random_unitary(basis, rng)
        partition = None if finest else random_partition(basis, rng)
        report = strategy_report(inst, u, partition)
        outcome_of = None if finest else partition.outcome_of
        self.assert_matches(report, dense_strategy(inst.reference, u.basis, u.matrix, outcome_of))
        if finest:
            assert "work" in {row[0] for row in report.outcome_table}

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("finest", [True, False], ids=["finest", "random-partition"])
    def test_reference_label_outside_the_basis_rides_along(self, seed, finest):
        inst = seal_garbage("M", ["g0", "g1", "g2", "g3"])
        labels = sorted(inst.reference.c_labels())
        rider, basis = labels[0], labels[1:]
        rng = np.random.default_rng(seed)
        u = random_unitary(basis, rng)
        partition = None if finest else random_partition(labels, rng)
        report = strategy_report(inst, u, partition)
        outcome_of = None if finest else partition.outcome_of
        self.assert_matches(report, dense_strategy(inst.reference, u.basis, u.matrix, outcome_of))
        if finest:
            # The rider is its own outcome: the branch that keeps it untouched.
            (row,) = [row for row in report.outcome_table if row[0] == rider]
            assert abs(row[1] - abs(inst.reference.amps[(rider, rider)]) ** 2) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_strategies_on_multipicture(self, seed):
        inst = seal_multipicture(pictures(5))
        labels = sorted(inst.reference.c_labels())
        (report,) = random_strategy_sweep(inst, 1, rng_seed=seed)
        rng = np.random.default_rng(seed)
        u = random_unitary(labels, rng)
        partition = random_partition(labels, rng)
        self.assert_matches(
            report, dense_strategy(inst.reference, u.basis, u.matrix, partition.outcome_of)
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("finest", [True, False], ids=["finest", "random-partition"])
    def test_two_label_unitary_on_a_wide_reference(self, seed, finest):
        # 62 of the 64 C labels ride along: their masses are read, not multiplied.
        inst = TestRandomStrategySweep.rectangular_instance(4, 64)
        labels = sorted(inst.reference.c_labels())
        rng = np.random.default_rng(seed)
        u = random_unitary([str(c) for c in rng.choice(labels, size=2, replace=False)], rng)
        partition = None if finest else random_partition(labels, rng)
        report = strategy_report(inst, u, partition)
        outcome_of = None if finest else partition.outcome_of
        self.assert_matches(report, dense_strategy(inst.reference, u.basis, u.matrix, outcome_of))
        assert report.strategy[1] is u and u.matrix.shape == (2, 2)

    def test_stacked_trials_with_ride_along_columns(self, monkeypatch):
        # g0, g1, g2 and an ancilla form the basis, so M and g3 ride along. The two
        # three-cell partitions put the riders in different cells; the six trials
        # run as one stack with one chain call.
        inst = seal_garbage("M", ["g0", "g1", "g2", "g3"])
        labels = sorted(inst.reference.c_labels()) + ["work"]
        basis = ["g0", "g1", "g2", "work"]
        rng = np.random.default_rng(5)
        rngs = [np.random.default_rng(t) for t in range(6)]
        stack = adversary.haar_unitaries(normal_block(rngs, 4))
        partitions = [ProjPartition.finest(labels)] * 2 + [ProjPartition(dict(zip(labels, cells)))
                                                           for cells in ("aabbcc", "caabbc")]
        partitions += [random_partition(labels, rng) for _ in range(2)]
        calls = chain_calls(monkeypatch)
        reports = rotated_branches(inst, basis, stack, partitions)
        assert calls == [6]
        for t, (report, matrix, partition) in enumerate(zip(reports, stack, partitions)):
            self.assert_matches(report, dense_strategy(inst.reference, basis, matrix,
                                                       partition.outcome_of))
            (single,) = rotated_branches(inst, basis, stack[t:t + 1], [partition])
            assert report == single
            assert proof_chain(inst, report) == proof_chain(inst, single)

    def test_partition_missing_a_rotated_into_label_raises(self):
        inst = seal_naive("M", garbage="0")
        basis = sorted(inst.reference.c_labels()) + ["work"]
        u = random_unitary(basis, 0)
        assert "work" in {row[0] for row in strategy_report(inst, u, None).outcome_table}
        covers_support = ProjPartition.finest(inst.reference.c_labels())
        with pytest.raises(ValueError, match="C label 'work' is not covered by the partition"):
            strategy_report(inst, u, covers_support)


def pinpointed_messages(inst, basis, matrix, outcome_of):
    """Oracle: {outcome: message} of the outcomes whose cell holds one active
    label that decodes to a message. Active labels hold amplitude of at least
    1e-15 after the rotation (identity off ``basis``)."""
    b_at = {b: i for i, b in enumerate(sorted(inst.reference.b_labels()))}
    c_at = {c: j for j, c in enumerate(basis)}
    psi = np.zeros((len(b_at), len(basis)), dtype=complex)
    for (b, c), a in inst.reference.amps.items():
        if c in c_at:
            psi[b_at[b], c_at[c]] = a
    rotated = psi @ np.asarray(matrix).T
    active = {c for c in basis if np.abs(rotated[:, c_at[c]]).max() >= 1e-15}
    cells = {}
    for c in active | (inst.reference.c_labels() - set(basis)):
        cells.setdefault(outcome_of[c], []).append(c)
    messages = {outcome: inst.decode.get(labels[0])
                for outcome, labels in cells.items() if len(labels) == 1}
    return {outcome: m for outcome, m in messages.items() if m is not None}


class TestPinpointedMessages:
    """No two outcomes of a report pinpoint the same message, so p is the sum of
    the pinpointing rows' q's, correctly rounded."""

    @staticmethod
    def assert_distinct(inst, report, basis=(), matrix=np.eye(0), outcome_of=None):
        if outcome_of is None:
            outcome_of = ProjPartition.finest(inst.reference.c_labels() | set(basis)).outcome_of
        messages = pinpointed_messages(inst, basis, matrix, outcome_of)
        assert len(set(messages.values())) == len(messages)
        pinpointing = [q for outcome, q, _ in report.outcome_table if outcome in messages]
        assert report.p == min(1.0, exact_sum(pinpointing))

    @pytest.mark.parametrize("inst", [pytest.param(inst, id=name) for name, inst in
                                      harness._sweep_instances(harness.ExperimentConfig())])
    def test_bound_sweep_instances(self, inst):
        self.assert_distinct(inst, basis_cheat(inst))
        split = harness._split_predicate(inst)
        self.assert_distinct(inst, predicate_cheat(inst, split),
                             outcome_of={label: f"g={v}" for label, v in split.items()})
        labels = sorted(inst.reference.c_labels())
        if len(inst.reference.b_labels()) * len(labels) > DENSE_DIM_CAP:
            return  # a sweep refuses it, as bound-sweep does
        for t, report in enumerate(random_strategy_sweep(inst, 50, rng_seed=0)):
            rng = np.random.default_rng(t)
            u = random_unitary(labels, rng)
            partition = random_partition(labels, rng)
            self.assert_distinct(inst, report, u.basis, u.matrix, partition.outcome_of)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("finest", [True, False], ids=["finest", "random-partition"])
    def test_ride_along_strategy(self, seed, finest):
        inst = seal_garbage("M", ["g0", "g1", "g2", "g3"])
        labels = sorted(inst.reference.c_labels())
        rng = np.random.default_rng(seed)
        u = random_unitary(labels[1:], rng)
        partition = None if finest else random_partition(labels, rng)
        report = strategy_report(inst, u, partition)
        self.assert_distinct(inst, report, u.basis, u.matrix,
                             None if finest else partition.outcome_of)

    def test_oaep_basis_cheat(self):
        inst = seal_oaep(5, OaepContext.create(k0=6, n=8, with_human=False))
        report = basis_cheat(inst)
        self.assert_distinct(inst, report)
        assert report.p == 0.0


class TestDenseEvaluation:
    """A strategy with a unitary keeps its members dense until ``returned`` is read."""

    @pytest.mark.parametrize("seed", range(3))
    def test_lazily_built_members_match_the_dense_oracle(self, seed):
        inst = seal_garbage("M", ["g0", "g1", "g2"])
        labels = sorted(inst.reference.c_labels())
        (report,) = random_strategy_sweep(inst, 1, rng_seed=seed)
        assert proof_chain(inst, report).holds()
        assert "returned" not in vars(report)
        rng = np.random.default_rng(seed)
        u = random_unitary(labels, rng)
        partition = random_partition(labels, rng)
        TestDenseBlockOracle.assert_matches(
            report, dense_strategy(inst.reference, u.basis, u.matrix, partition.outcome_of)
        )
        assert vars(report)["returned"] is report.returned

    def test_dense_chain_equals_the_chain_of_the_built_members(self):
        for inst in (seal_naive("M", "0"), seal_garbage("M", ["g0", "g1"]),
                     seal_multipicture(pictures(7))):
            for report in random_strategy_sweep(inst, 15, rng_seed=4):
                dense = proof_chain(inst, report).trace_distance
                sparse = trace_distance_pure_vs_ensemble(inst.reference, report.returned)
                assert abs(dense - sparse) <= 1e-12

    def test_members_keep_only_the_keys_they_can_hold(self):
        # A unitary on two of 32 OAEP tokens plus an ancilla: every built member
        # lives on the 3 basis columns (32 rows each) and the reference's other
        # 30 keys, not on the whole 32 x 33 block.
        inst = seal_oaep(7, OaepContext.create(k0=5, n=8, with_human=False))
        labels = sorted(inst.reference.c_labels())
        u = random_unitary(labels[:2] + ["work"], 3)
        report = strategy_report(inst, u, None)
        assert "returned" not in vars(report)
        held = {(b, c) for b in inst.reference.b_labels() for c in u.basis}
        held |= {key for key in inst.reference.amps if key[1] not in u.basis}
        assert len(held) == 32 * 3 + 30
        assert {key for _, member in report.returned.members for key in member.amps} <= held
        TestDenseBlockOracle.assert_matches(
            report, dense_strategy(inst.reference, u.basis, u.matrix, None)
        )
        assert proof_chain(inst, report).trace_distance == pytest.approx(
            dense_trace_distance(inst.reference, report.returned), abs=1e-12
        )

    @pytest.mark.parametrize("k0", [9, 12])
    def test_large_reference_builds_only_the_keys_it_keeps(self, k0):
        # A unitary on two of 2^k0 OAEP tokens: the report keeps the 2 x 2
        # unitary it was given and the finest partition, and no key or member until
        # ``returned`` is read. Under the default finest partition every token is
        # its own outcome; the masses scattered into (trial, outcome) slots
        # peaked at 0.2 and 1.7 MiB (tracemalloc) at k0 = 9 and 12. A float
        # (outcomes x columns) indicator of the masses took them to 2.5 and
        # 145 MiB. At k0 = 9, building V, the 512 x 2 basis keys and the 510
        # others as one (keys, members) array, took the peak to 30.5 MiB; laying
        # the riders out in the 512 x 512 block, to 6.1 MiB.
        inst = seal_oaep(0x5A, OaepContext.create(k0=k0, n=8, with_human=False))
        labels = sorted(inst.reference.c_labels())
        u = random_unitary(labels[:2], 3)
        tracemalloc.start()
        try:
            report = strategy_report(inst, u, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        reference, unitary, partition = report.strategy
        assert reference is inst.reference and unitary is u and u.matrix.shape == (2, 2)
        assert partition.outcome_of == {c: c for c in labels}
        assert peak < 8 * 2**20
        expected = {(b, c) for b in inst.reference.b_labels() for c in labels[:2]}
        expected |= {key for key in inst.reference.amps if key[1] not in labels[:2]}
        assert {key for _, member in report.returned.members for key in member.amps} <= expected

    def test_riders_are_summed_from_their_amplitudes(self):
        # A unitary on two of 4096 OAEP tokens, measured with two cells: the
        # 4094 riders' masses come from their amplitudes, not from a 4096 x 4096
        # block, which took the tracemalloc peak to 384 MiB (1.3 MiB without).
        inst = seal_oaep(0x5A, OaepContext.create(k0=12, n=8, with_human=False))
        labels = sorted(inst.reference.c_labels())
        u = random_unitary(labels[:2], 3)
        partition = ProjPartition({c: f"half{i % 2}" for i, c in enumerate(labels)})
        tracemalloc.start()
        try:
            report = strategy_report(inst, u, partition)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert [row[0] for row in report.outcome_table] == ["half0", "half1"]
        assert abs(report.s - 0.5) <= EXACT_TOL and report.p == 0.0

    @staticmethod
    def ancilla_strategy(n_b, n_c):
        """|B| = n_b, |C| = n_c and one ancilla label: a block of n_b * (n_c + 1) keys."""
        inst = TestRandomStrategySweep.rectangular_instance(n_b, n_c)
        u = random_unitary(sorted(inst.reference.c_labels()) + ["work"], 0)
        return inst, strategy_report(inst, u, None)

    def test_block_at_the_chain_cap(self):
        inst, report = self.ancilla_strategy(2, 255)
        assert proof_chain(inst, report).holds()

    def test_block_past_the_chain_cap(self):
        # The chain reads the masses, so 513 keys hold it; the state-route
        # oracle that keeps the cap refuses them, and numpy's eigensolver agrees.
        inst, report = self.ancilla_strategy(3, 170)
        chain = proof_chain(inst, report)
        assert chain.holds()
        assert chain.trace_distance == pytest.approx(
            dense_trace_distance(inst.reference, report.returned), abs=1e-12)
        with pytest.raises(ValueError, match="joint basis has dimension 513, cap is 512"):
            trace_distance_pure_vs_ensemble(inst.reference, report.returned)

    @pytest.mark.parametrize("n_b", [1, 3, 10])
    def test_chain_holds_where_the_closed_form_is_zero(self, n_b):
        # Every strategy here leaves all the mass on the message label, so
        # p_bound is 1 (up to round-off in q) and the closed form 0. An
        # acceptance of 1 - 2^-52 would put 1.5e-8 into the convex sum.
        reference = uniform_state((f"b{i}", "M") for i in range(n_b))
        inst = SealedInstance(GARBAGE, reference, {"M": "M"}, {})
        closed_forms = []
        for seed in range(40):
            phase = np.exp(2j * np.pi * np.random.default_rng(seed).random())
            permutation = np.zeros((3, 3), dtype=complex)
            permutation[0, 0], permutation[1, 2], permutation[2, 1] = phase, 1.0, 1.0
            for u in (LocalUnitary(("M",), np.array([[phase]])),
                      LocalUnitary(("M", "w1", "w2"), permutation)):
                report = strategy_report(inst, u, None)
                chain = proof_chain(inst, report)
                assert chain.holds(), chain
                closed_forms.append(chain.bound)
        assert 0.0 in closed_forms


class TestProofChain:
    @pytest.mark.parametrize(
        "inst",
        [
            seal_naive("M", garbage="0"),
            seal_garbage("M", ["g0", "g1", "g2"]),
            seal_multipicture(pictures(4)),
        ],
        ids=["naive", "garbage", "multipicture"],
    )
    def test_chain_holds_for_deterministic_attacks(self, inst):
        report = basis_cheat(inst)
        assert proof_chain(inst, report).holds()

    def test_report_holds_the_links_of_its_own_masses(self):
        # Each report stores chain_links' distance and convex sum of its outcome
        # masses bit for bit, and proof_chain hands back the report itself.
        for inst in (seal_naive("M", "0"), seal_garbage("M", ["g0", "g1", "g2"]),
                     seal_multipicture(pictures(6))):
            labels = sorted(inst.reference.c_labels())
            split = {label: int(i < len(labels) // 2) for i, label in enumerate(labels)}
            for report in [basis_cheat(inst), predicate_cheat(inst, split),
                           *random_strategy_sweep(inst, 20, rng_seed=9)]:
                qs = np.array([[q for _, q, _ in report.outcome_table]])
                links = adversary.chain_links(qs, adversary.complements(qs))
                stored = (report.s, report.trace_distance, report.convex_sum)
                assert [x.hex() for x in stored] == [float(link[0]).hex() for link in links]
                assert proof_chain(inst, report) is report

    @pytest.mark.parametrize("link, moved", [
        ("trace_distance", lambda r: r.s - 2 * EXACT_TOL),  # below s
        ("trace_distance", lambda r: r.convex_sum + 2 * EXACT_TOL),  # above the convex sum
        ("convex_sum", lambda r: r.bound + 2 * EXACT_TOL),  # above the bound
    ], ids=["distance-below-s", "distance-above-convex", "convex-above-bound"])
    def test_a_link_moved_past_tol_breaks_the_chain(self, link, moved):
        report = basis_cheat(seal_garbage("M", ["g0", "g1"]))
        assert report.holds()
        broken = dataclasses.replace(report, **{link: moved(report)})
        assert not broken.holds()
        assert broken.holds(3 * EXACT_TOL)

    def test_chain_middle_matches_numpy_oracle(self):
        garbage = seal_garbage("M", ["g0", "g1"])
        multi = seal_multipicture(pictures(8))
        cases = [(garbage, basis_cheat(garbage))]
        cases += [(multi, r) for r in random_strategy_sweep(multi, 40, rng_seed=11)]
        for inst, report in cases:
            chain = proof_chain(inst, report)
            assert chain.trace_distance == pytest.approx(
                dense_trace_distance(inst.reference, report.returned), abs=1e-12
            )

    @given(
        inst=st.sampled_from(
            [
                seal_naive("M", garbage="0"),
                seal_garbage("M", ["g0", "g1", "g2", "g3"]),
                seal_multipicture(pictures(6)),
            ]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_measure_and_uncompute_identity(self, inst, seed):
        # The branches are orthonormal and the reference is sum_i sqrt(q_i)
        # branch_i, so in that basis the difference is sqrt(q) sqrt(q)^T - diag(q)
        # and the acceptance is sum_i q_i^2: both follow from the q's alone.
        (report,) = random_strategy_sweep(inst, 1, rng_seed=seed)
        q = np.array([prob for _, prob, _ in report.outcome_table])
        root = np.sqrt(q)
        closed = 0.5 * np.abs(np.linalg.eigvalsh(np.outer(root, root) - np.diag(q))).sum()
        chain = proof_chain(inst, report)
        assert chain.trace_distance == pytest.approx(closed, abs=1e-12)
        assert report.s == pytest.approx(1.0 - float(np.sum(q**2)), abs=1e-12)

    def test_links_read_from_the_report_equal_the_overlap_formulas(self):
        # The report's trace distance and convex sum come from the outcome
        # masses, its bound from p_bound. The masses and the table are checked
        # against the overlaps of the built members, a separate path, and the
        # convex sum against each member's pure-state distance sqrt(1 - overlap)
        # weighed by its mass. Where an overlap is within a few ulps of 1 (a
        # one-cell partition), that square root is off by up to
        # sqrt(2^-50) = 2^-25, so the random rows allow it.
        for inst in (seal_garbage("M", ["g0", "g1", "g2"]), seal_multipicture(pictures(6))):
            sparse = basis_cheat(inst)
            for report in [sparse, *random_strategy_sweep(inst, 20, rng_seed=3)]:
                chain = proof_chain(inst, report)
                assert abs(report.bound - soundness_bound(report.p_bound)) <= 1e-12
                overlaps = [squared_overlap(inst.reference, member)
                            for _, member in report.returned.members]
                by_overlaps = exact_sum(
                    q * trace_distance_pure(inst.reference, member)
                    for q, member in report.returned.members)
                tol = 1e-12 if report is sparse else 2.0**-25
                assert abs(chain.convex_sum - by_overlaps) <= tol
                for (_, q, acceptance), (weight, _), overlap in zip(
                    report.outcome_table, report.returned.members, overlaps, strict=True
                ):
                    assert q == weight
                    assert abs(acceptance - overlap) <= 1e-12

    @staticmethod
    def near_one_references():
        """Hand-built references whose basis cheat leaves one mass within 1e-12 of 1."""
        for eps in (1e-12, 1e-14, 1e-15, 1e-17):
            reference = SparseState({("M", "M"): math.sqrt(1.0 - eps), ("g", "g"): math.sqrt(eps)})
            inst = SealedInstance(GARBAGE, reference, {"M": "M", "g": None}, {})
            yield pytest.param(inst, eps, id=f"eps-{eps:g}")
        for n_b in (10, 14, 21, 25, 26, 27):
            reference = uniform_state((f"b{i}", "M") for i in range(n_b))
            inst = SealedInstance(GARBAGE, reference, {"M": "M"}, {})
            yield pytest.param(inst, None, id=f"one-label-{n_b}")

    @pytest.mark.parametrize("inst, eps", list(near_one_references()))
    def test_near_one_reference_holds_its_chain(self, inst, eps):
        # The message's outcome holds nearly all the mass, so 1 - q_M keeps none
        # of the digits of the other outcomes' mass: the complement is their sum.
        report = basis_cheat(inst)
        chain = proof_chain(inst, report)
        assert chain.holds(), (chain_excess(chain), chain)
        if eps == 1e-17:
            assert abs(report.bound - (math.sqrt(eps) * (1.0 - eps) + eps)) <= 1e-12
            assert report.bound > 1e-9

    @given(inst=sealed_instances(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    @example(inst=seal_garbage("M", [f"g{i}" for i in range(21)]), seed=0)
    @example(inst=seal_garbage("M", [f"g{i}" for i in range(40)]), seed=0)
    @example(inst=seal_multipicture(pictures(22)), seed=8191)
    def test_chain_holds_at_exact_tol_on_sealed_instances(self, inst, seed):
        labels = sorted(inst.reference.c_labels())
        split = {label: int(i < len(labels) // 2) for i, label in enumerate(labels)}
        reports = [basis_cheat(inst), predicate_cheat(inst, split)]
        if len(inst.reference.b_labels()) * len(labels) <= DENSE_DIM_CAP:
            reports += random_strategy_sweep(inst, 5, rng_seed=seed)
        for report in reports:
            chain = proof_chain(inst, report)
            assert chain.holds(EXACT_TOL), (chain_excess(chain), chain)
            assert report.margin >= -EXACT_TOL

    def test_chain_holds_under_random_strategies(self):
        inst = seal_multipicture(pictures(4))
        for report in random_strategy_sweep(inst, 25, rng_seed=5):
            assert proof_chain(inst, report).holds()

    def test_naive_distance_reaches_soundness(self):
        inst = seal_naive("M", garbage="0")
        chain = proof_chain(inst, basis_cheat(inst))
        assert chain.trace_distance >= 0.5 - 1e-10


class TestDetectionFromMasses:
    """s is sum_i q_i c_i of the outcome masses (``chain_links``), against the
    verification route: ``returned`` replays the report's strategy (a sweep
    trial's from its seed) and ``project_accept_probability`` projects it onto
    the reference. That route shares no code with the engines' masses, cell
    rows or emulated draws, so it catches a wrong mass that ``check_report``
    passes. The replay of a sweep trial rests on ``Generator.integers``
    drawing what ``_lemire`` draws, so this also runs on the oldest numpy allowed."""

    @staticmethod
    def miss(inst, report):
        """|1 - acceptance - s| of the report's replayed mixture."""
        return abs(1.0 - project_accept_probability(inst.reference, report.returned) - report.s)

    @classmethod
    def assert_s_is_one_minus_acceptance(cls, inst, report):
        assert cls.miss(inst, report) <= EXACT_TOL, report.s

    @staticmethod
    def bound_sweep_reports(monkeypatch):
        """(instance, report) of each report the default bound-sweep at 20 trials
        checks with ``check_report``, named ones first, each report once."""
        reports, check = {}, harness.check_report

        def recording_check(report, instance, attack):
            reports.setdefault(id(report), (instance, report))
            check(report, instance, attack)

        monkeypatch.setattr(harness, "check_report", recording_check)
        cfg = harness.ExperimentConfig(trials=20)
        harness.run_bound_sweep(cfg)
        instances = dict(harness._sweep_instances(cfg))
        return [(instances[name], report) for name, report in reports.values()]

    def test_bound_sweep_reports(self, monkeypatch):
        reports = self.bound_sweep_reports(monkeypatch)
        named, swept = reports[:18], reports[18:]  # basis and predicate-split on nine instances
        assert len(swept) == 20 * 8  # garbage-64 is past DENSE_DIM_CAP
        assert all(report.strategy[1] is None for _, report in named)  # sparse: no unitary
        assert all(type(report.strategy[1]) is int for _, report in swept)  # a trial's seed
        for inst, report in reports:
            self.assert_s_is_one_minus_acceptance(inst, report)

    def test_a_moved_cell_row_passes_check_report_but_misses_s(self, monkeypatch):
        # Rolling each trial's cell row by one moves its q's to another partition's,
        # still masses that sum to 1, so every report passes check_report. The
        # replay draws the trial's partition from its seed, not from the engine's
        # cell rows, so its acceptance leaves s; a replay that read those rows
        # would move with them and miss by ulps.
        draw = adversary._draw_trials

        def rolled(rng, states, n):
            normals, cells = draw(rng, states, n)
            return normals, np.roll(cells, 1, axis=-1)

        monkeypatch.setattr(adversary, "_draw_trials", rolled)
        reports = self.bound_sweep_reports(monkeypatch)
        assert len(reports) == 18 + 20 * 8
        assert max(self.miss(inst, report) for inst, report in reports[18:]) > 0.1

    def test_a_shifted_cell_row_fails_its_replay_by_name(self, monkeypatch):
        # Shifting each cell number by one mod n can name an outcome the trial's
        # partition lacks ("cell3" where it drew three cells), and a report whose
        # outcomes differ from its replay's must say which, as a ValueError.
        inst, n, seed = seal_garbage("M", ["g0", "g1", "g2"]), 4, 9  # trial 19 draws all 4 cells
        draw = adversary._draw_trials

        def shifted(rng, states, width):
            normals, cells = draw(rng, states, width)
            return normals, (cells + 1) % width

        monkeypatch.setattr(adversary, "_draw_trials", shifted)
        reports = random_strategy_sweep(inst, 20, rng_seed=seed)
        labels = sorted(inst.reference.c_labels())
        assert len(labels) == n
        missed = []
        for t, report in enumerate(reports):
            harness.check_report(report, "garbage-3", "random")
            rng = np.random.default_rng(seed + t)
            random_unitary(labels, rng)
            replayed = set(random_partition(labels, rng).outcome_of.values())
            extra = [outcome for outcome, _, _ in report.outcome_table if outcome not in replayed]
            if extra:
                with pytest.raises(ValueError, match=repr(extra[0])):
                    report.returned
                missed.append(extra[0])
            else:  # the same outcomes, so the replay runs
                assert len(report.returned.members) == len(report.outcome_table)
        assert "'cell3'" in map(repr, missed) and len(missed) < len(reports)

    @pytest.mark.parametrize("k0", [4, 8, 12])
    def test_oaep_basis_cheats(self, k0):
        inst = seal_oaep(0x5A, OaepContext.create(k0=k0, n=8, with_human=False))
        self.assert_s_is_one_minus_acceptance(inst, basis_cheat(inst))

    @pytest.mark.parametrize("inst", [seal_garbage("M", ["g0", "g1", "g2"]),
                                      seal_multipicture(pictures(6))],
                             ids=["garbage-3", "multipicture-6"])
    def test_random_trials(self, inst):
        for report in random_strategy_sweep(inst, 20, rng_seed=3):
            self.assert_s_is_one_minus_acceptance(inst, report)

    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-15, 1e-17])
    def test_near_pure_reference_keeps_the_small_masses_digits(self, eps):
        # 1 - sum q^2 cancels here (to 0 at eps = 1e-17); each q_i c_i keeps eps's digits.
        reference = SparseState({("M", "M"): math.sqrt(1.0 - eps), ("g", "g"): math.sqrt(eps)})
        report = basis_cheat(SealedInstance(GARBAGE, reference, {"M": "M", "g": None}, {}))
        exact = 2.0 * eps * (1.0 - eps)
        assert abs(report.s - exact) <= 4e-16 * exact


def mass_chain(q):
    """The report, proof chain included, that a dense strategy of outcome masses
    q has, its largest mass pinpointing the message: ``chain_links``' three
    links and the bound, with no outcome table or strategy record."""
    qs = np.array([q], dtype=float)
    cs = adversary.complements(qs)
    (gap,), (distance,), (convex,) = adversary.chain_links(qs, cs)
    best = int(qs[0].argmax())
    closed_form = soundness_bound(qs[0, best], cs[0, best])
    p = float(qs[0, best])
    return CheatReport(p, float(gap), float(closed_form), (), None, p, float(distance), float(convex))


@st.composite
def probability_vectors(draw):
    weights = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=24)
                   .filter(lambda w: sum(w) > 0.0))
    return (np.array(weights) / math.fsum(weights)).tolist()


class TestMassChain:
    """The chain read from outcome masses, against oracles that share none of its code."""

    @given(q=probability_vectors())
    @settings(max_examples=200, deadline=None)
    @example(q=[1.0 - 1e-12, 1e-12])
    @example(q=[1.0 - 1e-15, 1e-15])
    @example(q=[1.0 - 1e-17, 1e-17])
    @example(q=[1.0 - 2e-17, 1e-17, 1e-17])
    @example(q=[0.5000000000000001, 0.5000000000000002])
    @example(q=[1.0])
    def test_chain_holds_and_the_root_is_the_positive_eigenvalue(self, q):
        # In the members' basis the difference is w w^T - diag(q), w_i = sqrt(q_i).
        chain = mass_chain(q)
        assert chain.holds(EXACT_TOL), (chain_excess(chain), chain)
        w = np.sqrt(q)
        closed = 0.5 * np.abs(np.linalg.eigvalsh(np.outer(w, w) - np.diag(q))).sum()
        assert abs(chain.trace_distance - closed) <= 1e-12

    def test_equal_masses_at_the_support_cap(self):
        chain = mass_chain([2.0**-16] * 2**16)
        assert chain.holds(EXACT_TOL)
        assert chain.trace_distance == 1.0 - 2.0**-16

    @pytest.mark.parametrize("q", [
        [0.5, 0.5], [0.7, 0.2, 0.1], [0.25] * 4, [0.9, 0.1], [1.0],
        [1.0 - 1e-12, 1e-12], [1.0 - 1e-15, 1e-15], [1.0 - 1e-17, 1e-17],
        *(np.random.default_rng(k).dirichlet(np.full(k, 0.05)).tolist() for k in (2, 3, 6, 9)),
    ], ids=lambda q: f"{len(q)}-masses-max-{max(q):.17g}")
    def test_root_and_convex_sum_equal_40_digit_values(self, q):
        # mpmath's symmetric eigensolver on w w^T - diag(q) at 40 digits, with the
        # float masses taken as exact; c_i is the exact sum of the other masses.
        import mpmath

        with mpmath.workdps(40):
            exact = [mpmath.mpf(x) for x in q]
            w = [mpmath.sqrt(x) for x in exact]
            diff = mpmath.matrix(len(q))
            for i in range(len(q)):
                for j in range(len(q)):
                    diff[i, j] = w[i] * w[j] - (exact[i] if i == j else 0)
            root = mpmath.fsum(abs(e) for e in mpmath.eigsy(diff, eigvals_only=True)) / 2
            convex = mpmath.fsum(x * mpmath.sqrt(mpmath.fsum(exact) - x) for x in exact)
            chain = mass_chain(q)
            assert abs(chain.trace_distance - root) <= 2.0**-50 * root
            assert abs(chain.convex_sum - convex) <= 2.0**-50 * convex


def g_at(q, c, lam):
    """g(lambda) = sum_i q_i (c_i - lambda) / (q_i + lambda) of each row, as
    ``chain_links`` evaluates it."""
    lam = np.asarray(lam, dtype=float)[:, None]
    return (q * (c - lam) / (q + lam)).sum(axis=-1)


@st.composite
def mass_rows(draw):
    """2 to 64 outcome masses, drawn between 1e-17 and 1 and normalised, then up
    to 8 zeros of padding."""
    weights = [10.0 ** e for e in draw(st.lists(st.floats(-17.0, 0.0), min_size=2, max_size=64))]
    total = math.fsum(weights)
    return [w / total for w in weights] + [0.0] * draw(st.integers(0, 8))


def stack(rows):
    """(masses, complements) of rows zero-padded to one width, as a stack has them."""
    qs = np.zeros((len(rows), max(map(len, rows))))
    for i, row in enumerate(rows):
        qs[i, :len(row)] = row
    return qs, adversary.complements(qs)


# The strategies of acceptance criterion 6: (instance, trials, rng_seed).
CRITERION_6_PLAN = (
    (seal_naive("M", garbage="0"), 250, 100),
    (seal_garbage("M", ["g0", "g1"]), 150, 400),
    (seal_garbage("M", [f"g{i}" for i in range(4)]), 150, 800),
    (seal_multipicture(pictures(4)), 200, 1200),
    (seal_multipicture(pictures(6)), 150, 1600),
    (seal_multipicture(pictures(8)), 100, 2000),
)

# Roots below the least positive float, then near-pure rows, where s = 1 - sum q^2
# cancels. Started at s alone, Newton took 24, 34 and 55 steps on the first three
# near-pure rows, and the last hit the 64-step cap and fell back to bisection.
DEGENERATE_ROWS = ([1.0, 0.0], [1.0], [0.0, 1.0, 0.0], [1.0 - 1e-12, 1e-12],
                   [1.0 - 1e-17, 1e-17], [1.0, 1e-30], [1.0, 1e-40])


class TestNewtonRoot:
    """``chain_links``' Newton-started root against ``bisection_links``, the
    62-step bisection it replaced."""

    @staticmethod
    def recorded_calls(monkeypatch):
        """Each ``chain_links`` call's (masses, complements, result), as made."""
        calls = []
        links = adversary.chain_links

        def recorded(q, c):
            calls.append((q, c, links(q, c)))
            return calls[-1][2]

        monkeypatch.setattr(adversary, "chain_links", recorded)
        return calls

    @staticmethod
    def assert_equal_bits(calls):
        for q, c, (_, distances, convex_sums) in calls:
            want, want_convex = bisection_links(q, c)
            assert distances.tobytes() == want.tobytes()
            assert convex_sums.tobytes() == want_convex.tobytes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_bound_sweep_rows_equal_the_oracle(self, monkeypatch, seed):
        calls = self.recorded_calls(monkeypatch)
        rows = harness.run_bound_sweep(harness.ExperimentConfig(seed=seed, trials=100))
        # Every report's row is checked once; generic and basis share a report.
        shared = sum(row.attack == "generic" for row in rows)
        assert sum(len(q) for q, _, _ in calls) == len(rows) - shared
        self.assert_equal_bits(calls)

    def test_criterion_6_plan_equals_the_oracle(self, monkeypatch):
        calls = self.recorded_calls(monkeypatch)
        for inst, trials, seed in CRITERION_6_PLAN:
            for report in random_strategy_sweep(inst, trials, rng_seed=seed):
                proof_chain(inst, report)
        assert sum(len(q) for q, _, _ in calls) == 1000
        self.assert_equal_bits(calls)

    @given(q=mass_rows())
    @settings(max_examples=300, deadline=None)
    @example(q=[1.0, 0.0])
    @example(q=[1.0 - 1e-17, 1e-17])
    @example(q=[1.0 - 1e-12, 1e-12, 0.0, 0.0])
    @example(q=[2.0**-16] * 2**16)
    def test_a_checked_sign_change_within_4_ulps_of_the_oracle(self, q):
        qs, cs = stack([q])
        _, (distance,), _ = adversary.chain_links(qs, cs)
        (want,), _ = bisection_links(qs, cs)
        assert abs(int(distance.view(np.int64)) - int(want.view(np.int64))) <= 4  # ulps
        if distance == 0.0:
            assert g_at(qs, cs, [np.nextafter(0.0, 1.0)]) <= 0.0
        else:
            assert 0.0 < distance <= 1.0
            assert g_at(qs, cs, [distance]) <= 0.0 < g_at(qs, cs, [np.nextafter(distance, 0.0)])

    @pytest.mark.parametrize("q", DEGENERATE_ROWS[3:], ids=str)
    def test_near_pure_rows_take_few_newton_steps(self, monkeypatch, q):
        # Newton starts at sqrt(q_max c_max), the root of the two-outcome merge,
        # and each step computes the stopping test's np.spacing once.
        qs, cs = stack([q])
        (want,), _ = bisection_links(qs, cs)
        steps, spacing = [], np.spacing
        monkeypatch.setattr(np, "spacing", lambda lam: steps.append(lam) or spacing(lam))
        _, (distance,), _ = adversary.chain_links(qs, cs)
        assert 1 <= len(steps) <= 4
        assert distance.tobytes() == want.tobytes()

    def test_rows_that_hit_the_cap_fall_back_to_the_oracle(self, monkeypatch):
        # No known row reaches the 64-step cap, so no step may count as small here.
        qs, cs = stack([*DEGENERATE_ROWS, [0.7, 0.2, 0.1], [0.25] * 4])
        want, _ = bisection_links(qs, cs)
        monkeypatch.setattr(np, "spacing", lambda lam: np.full_like(lam, -1.0))
        _, distances, _ = adversary.chain_links(qs, cs)
        assert distances.tobytes() == want.tobytes()

    def test_each_row_of_a_mixed_stack_gets_its_bits_alone(self):
        rng = np.random.default_rng(11)
        ordinary = [rng.dirichlet(np.full(k, 0.3)).tolist() for k in (2, 5, 9, 17, 40)]
        rows = [*ordinary[:2], *DEGENERATE_ROWS, *ordinary[2:], [0.25] * 4]
        qs, cs = stack(rows)
        together = adversary.chain_links(qs, cs)
        for t in range(len(rows)):
            alone = adversary.chain_links(qs[t:t + 1], cs[t:t + 1])
            assert [x[t:t + 1].tobytes() for x in together] == [x.tobytes() for x in alone]
        want, _ = bisection_links(qs, cs)
        assert together[1].tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_padded_and_degenerate_rows_raise_no_warning(self):
        qs, cs = stack([*DEGENERATE_ROWS, [0.5, 0.5], [2.0**-16] * 2**16])
        _, distances, _ = adversary.chain_links(qs, cs)
        assert distances[0] == distances[1] == 0.0 and distances[2] == 0.0
        assert distances[-1] == 1.0 - 2.0**-16


class TestReportSerialization:
    def test_dict_fields(self):
        report = basis_cheat(seal_naive("M", garbage="0"))
        data = report.to_dict()
        assert set(data) == {"p", "s", "bound", "margin", "outcome_table"}
        assert data["margin"] == pytest.approx(data["bound"] - data["s"], abs=1e-15)
        assert len(data["outcome_table"]) == 2


class TestReportContract:
    """``CheatReport``'s own ``__init__`` keeps the frozen dataclass's contract."""

    FIELDS = (0.5, 0.25, 0.75, (("cell0", 0.5, 0.5), ("cell1", 0.5, 0.5)), ("ref", 7, None),
              0.5, 0.375, 0.5)

    def test_fields_by_position_and_by_name(self):
        names = [f.name for f in dataclasses.fields(CheatReport)]
        by_position = CheatReport(*self.FIELDS)
        by_name = CheatReport(**dict(zip(names, self.FIELDS)))
        assert [getattr(by_position, name) for name in names] == list(self.FIELDS)
        assert [getattr(by_name, name) for name in names] == list(self.FIELDS)
        assert mass_chain([0.5, 0.5]).outcome_table == ()  # mass_chain's positional use

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CheatReport)])
    def test_fields_are_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(CheatReport(*self.FIELDS), name, 0.0)

    def test_replace_keeps_the_strategy(self):
        report = random_strategy_sweep(seal_garbage("M", ["g0", "g1"]), 1, rng_seed=4)[0]
        moved = dataclasses.replace(report, s=report.s + 1e-9)
        assert moved.s == report.s + 1e-9 and moved.strategy is report.strategy
        assert moved.outcome_table is report.outcome_table and moved != report

    def test_strategy_is_out_of_eq_hash_and_repr(self):
        report = CheatReport(*self.FIELDS)
        other = CheatReport(*self.FIELDS[:4], None, *self.FIELDS[5:])
        compared = self.FIELDS[:4] + self.FIELDS[5:]
        assert report == other and hash(report) == hash(other) == hash(compared)
        assert repr(report) == repr(other) == (
            "CheatReport(p=0.5, s=0.25, bound=0.75, outcome_table=(('cell0', 0.5, 0.5), "
            "('cell1', 0.5, 0.5)), p_bound=0.5, trace_distance=0.375, convex_sum=0.5)")
        assert report != CheatReport(*self.FIELDS[:1], 0.125, *self.FIELDS[2:])

    def test_returned_is_built_once(self):
        report = random_strategy_sweep(seal_garbage("M", ["g0", "g1"]), 1, rng_seed=4)[0]
        assert "returned" not in vars(report)
        first = report.returned
        assert vars(report)["returned"] is first and report.returned is first


def _state_bits(state):
    """Every amplitude's key and bit pattern, in the map's order."""
    return [(key, a.real.hex(), a.imag.hex()) for key, a in state.amps.items()]


def _report_bits(report):
    table = [(outcome, q.hex(), acceptance.hex()) for outcome, q, acceptance in report.outcome_table]
    numbers = (report.p, report.s, report.bound, report.p_bound, report.trace_distance,
               report.convex_sum)
    # The conftest oracle holds its eager mixture in ``strategy``.
    mixture = report.strategy if isinstance(report.strategy, Ensemble) else report.returned
    returned = [(q.hex(), _state_bits(post)) for q, post in mixture.members]
    return table, [x.hex() for x in numbers], returned


def _custom(amps, decode):
    return SealedInstance(GARBAGE, SparseState(amps), decode, {})


def _sparse_route_cases():
    half = 1.0 / math.sqrt(2.0)
    multi6 = seal_multipicture(pictures(6))
    split = ProjPartition({p: "g=1" if p in ("pic1", "pic3", "pic4") else "g=0" for p in pictures(6)})
    generic = np.random.default_rng(5).normal(size=(8, 2)) @ [1.0, 1j]
    generic /= np.linalg.norm(generic)
    oaep10 = seal_oaep(0x155, OaepContext.create(k0=10, n=16, with_human=False))
    tokens = sorted(oaep10.reference.c_labels())
    halves = ProjPartition({c: "g=1" if i < len(tokens) // 2 else "g=0" for i, c in enumerate(tokens)})
    # C labels m, n, m in the state's order: m's second amplitude follows n's,
    # so the outcome holding both labels has no lone label after its second key.
    two_labels = _custom({("x", "m"): complex(0.5), ("y", "n"): complex(0.5j),
                          ("z", "m"): complex(-0.5), ("g", "g"): complex(0.5)},
                         {"m": "M", "n": "N", "g": None})
    # C labels m, m, n in the state's order: the merged cell switches label only at
    # its third key, so a scan stopping after two keys would pin it.
    third_key = _custom({("x", "m"): complex(0.5), ("y", "m"): complex(0.5j),
                         ("z", "n"): complex(-0.5), ("g", "g"): complex(0.5)},
                        {"m": "M", "n": "N", "g": None})
    three_b = _custom({("x", "m"): complex(0.5), ("y", "m"): complex(0.5j),
                       ("z", "m"): complex(-0.5), ("g", "g"): complex(0.5)}, {"m": "M", "g": None})
    reverse_sorted = _custom({("a", "cz1"): complex(0.4), ("b", "cy"): complex(0.5j),
                              ("c", "cz2"): complex(-0.3), ("d", "cx"): complex(0.2),
                              ("e", "cw"): complex(0.6), ("f", "cx"): complex(0.0, -math.sqrt(0.1))},
                             {"cz1": "Z1", "cz2": "Z2", "cy": "Y", "cx": "X", "cw": None})
    return {
        "naive": (seal_naive("M", garbage="0"), None),
        "garbage-4": (seal_garbage("M", [f"g{i}" for i in range(4)]), None),
        "multipicture-6": (multi6, None),
        "oaep-4": (seal_oaep(0x11, OaepContext.create(k0=4, n=8, with_human=False)), None),
        "oaep-8": (seal_oaep(0x2A, OaepContext.create(k0=8, n=8, with_human=False)), None),
        "split-predicate": (multi6, split),
        # Two B labels on one C label make a two-amplitude outcome; each
        # amplitude has a -0.0 part, two of them imaginary.
        "negative-zero": (_custom({("m", "m"): complex(0.6, -0.0), ("a", "g"): complex(-0.0, -0.6),
                                   ("b", "g"): complex(-0.5, -0.0),
                                   ("c", "h"): complex(-0.0, math.sqrt(0.03))},
                                  {"m": "m", "g": None, "h": None}), None),
        "at-prune-tol": (_custom({("m", "m"): complex(half), ("g", "g"): complex(half),
                                  ("t", "t"): complex(PRUNE_TOL)},
                                 {"m": "m", "g": None, "t": None}), None),
        # Lone amplitudes with both parts nonzero, where |a|^2 and re^2 + im^2 can differ.
        "complex-lone": (_custom({(f"b{i}", f"c{i}"): complex(a) for i, a in enumerate(generic)},
                                 {"c0": "M0", "c1": "M1"}), None),
        # A norm past 1 (within NORM_TOL) on one C label that also holds PRUNE_TOL:
        # the post-state's scale is below 1 and takes that amplitude under the tolerance.
        "norm-past-one": (_custom({("x", "m"): complex(math.sqrt(1.0 + 9e-10)),
                                   ("t", "m"): complex(PRUNE_TOL)}, {"m": "m"}), None),
        "oaep-12": (seal_oaep(0xABC, OaepContext.create(k0=12, n=16, with_human=False)), None),
        "oaep-10-halves": (oaep10, halves),
        # Outcome m holds two B labels on the one C label m, which decodes: pinned.
        "two-b-one-c": (two_labels, None),
        # Outcome "mn" holds the C labels m and n, both decoding: not pinned.
        "two-c": (two_labels, ProjPartition({"m": "mn", "n": "mn", "g": "g"})),
        # Outcome mn holds the C labels m, m, n in that order: not pinned.
        "m-m-n": (third_key, ProjPartition({"m": "mn", "n": "mn", "g": "g"})),
        # Outcome m holds three B labels on the one C label m, which decodes: pinned.
        "three-b-one-c": (three_b, None),
        # Outcomes first appear as z, y, x, w, the reverse of sorted order: z holds
        # two C labels and x two B labels on one, y and w one amplitude each.
        "reverse-sorted-outcomes": (reverse_sorted, ProjPartition(
            {"cz1": "z", "cz2": "z", "cy": "y", "cx": "x", "cw": "w"})),
    }


class TestSparseRouteBits:
    """The sparse route gives every bit its previous version gave
    (``conftest.previous_sparse_report``), sign of zero included."""

    @pytest.mark.parametrize("name", list(_sparse_route_cases()))
    def test_branches_and_report_match_the_previous_route(self, name):
        inst, partition = _sparse_route_cases()[name]
        reference = inst.reference
        partition = partition or ProjPartition.finest(reference.c_labels())
        got, want = collapse_branches(reference, partition), previous_collapse_branches(reference, partition)
        assert list(got) == list(want)
        for outcome, (q, post) in got.items():
            assert q.hex() == want[outcome][0].hex()
            assert _state_bits(post) == _state_bits(want[outcome][1])
            assert post.norm_sq.hex() == previous_inner_product(post, post).real.hex()
        assert reference.norm_sq.hex() == previous_inner_product(reference, reference).real.hex()
        report, previous = strategy_report(inst, None, partition), previous_sparse_report(inst, partition)
        assert _report_bits(report) == _report_bits(previous)
        assert report.to_dict() == previous.to_dict()

    def test_uncovered_label_is_named_at_the_same_first_key(self):
        # C labels u and v are both uncovered; u's first key comes after m's.
        inst = _custom({("a", "m"): complex(0.5), ("b", "u"): complex(0.5),
                        ("c", "v"): complex(0.5), ("d", "u"): complex(0.5)}, {"m": "M"})
        partition = ProjPartition({"m": "m"})
        message = "^C label 'u' is not covered by the partition$"
        for route in (collapse_branches, previous_collapse_branches):
            with pytest.raises(ValueError, match=message):
                route(inst.reference, partition)
        with pytest.raises(ValueError, match=message):
            strategy_report(inst, None, partition)

    def test_sparse_route_builds_no_mixture(self, monkeypatch):
        oaep = seal_oaep(0x2A, OaepContext.create(k0=8, n=8, with_human=False))
        multi6, split = _sparse_route_cases()["split-predicate"]
        predicate = {label: int(outcome == "g=1") for label, outcome in split.outcome_of.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("the sparse route builds no Ensemble")

        monkeypatch.setattr(adversary, "Ensemble", refuse)
        reports = [basis_cheat(oaep), basis_cheat(multi6), predicate_cheat(multi6, predicate)]
        for report in reports:
            assert "returned" not in vars(report)
            assert report.strategy[1] is None
        monkeypatch.undo()
        want = [previous_sparse_report(oaep, ProjPartition.finest(oaep.reference.c_labels())),
                previous_sparse_report(multi6, ProjPartition.finest(multi6.reference.c_labels())),
                previous_sparse_report(multi6, split)]
        assert [_report_bits(r) for r in reports] == [_report_bits(r) for r in want]

    def test_oaep_states_are_adopted_not_validated(self, monkeypatch):
        # The seal and both sparse cheats build only maps whose amplitudes are
        # known to meet the rule, so none goes through the validating constructor.
        def refuse(*args, **kwargs):
            raise AssertionError("qseal's own maps are adopted, not validated again")

        monkeypatch.setattr(SparseState, "__init__", refuse)
        oaep = seal_oaep(0x2A, OaepContext.create(k0=8, n=8, with_human=False))
        g = {c: int(i % 3 == 0) for i, c in enumerate(dict.fromkeys(c for _, c in oaep.reference.amps))}
        reports = [basis_cheat(oaep), predicate_cheat(oaep, g)]
        monkeypatch.undo()
        want = [previous_sparse_report(oaep, ProjPartition.finest(g)),
                previous_sparse_report(oaep, ProjPartition({c: f"g={v}" for c, v in g.items()}))]
        assert [_report_bits(r) for r in reports] == [_report_bits(r) for r in want]

    def test_cases_cover_what_they_name(self):
        cases = _sparse_route_cases()
        inst, split = cases["split-predicate"]
        assert {len(post.amps) for _, post in collapse_branches(inst.reference, split).values()} == {3}
        inst, halves = cases["oaep-10-halves"]
        sizes = [len(post.amps) for _, post in collapse_branches(inst.reference, halves).values()]
        assert sizes == [512, 512]
        assert len(cases["oaep-12"][0].reference.amps) == 4096
        lone = cases["complex-lone"][0].reference.amps.values()
        assert any(abs(a) ** 2 != a.real * a.real + a.imag * a.imag for a in lone)
        two_b = basis_cheat(cases["two-b-one-c"][0])
        assert [row[0] for row in two_b.outcome_table] == ["g", "m", "n"]
        assert two_b.p == 0.75 and two_b.p_bound == 0.5  # m (two B labels) and n pinned
        inst, merged = cases["two-c"]
        two_c = strategy_report(inst, None, merged)
        assert [row[:2] for row in two_c.outcome_table] == [("g", 0.25), ("mn", 0.75)]
        assert two_c.p == 0.0 and two_c.p_bound == 0.0  # mn has two C labels
        inst, merged = cases["m-m-n"]
        branches = collapse_branches(inst.reference, merged)
        assert [c for _, c in branches["mn"][1].amps] == ["m", "m", "n"]
        m_m_n = strategy_report(inst, None, merged)
        assert [row[:2] for row in m_m_n.outcome_table] == [("g", 0.25), ("mn", 0.75)]
        assert m_m_n.p == 0.0 and m_m_n.p_bound == 0.0  # mn's third key is on n
        three = basis_cheat(cases["three-b-one-c"][0])
        assert [row[:2] for row in three.outcome_table] == [("g", 0.25), ("m", 0.75)]
        assert three.p == 0.75 and three.p_bound == 0.75  # m (three B labels) pinned
        zeros = [x for a in cases["negative-zero"][0].reference.amps.values() for x in (a.real, a.imag)]
        assert sum(math.copysign(1.0, x) < 0 and x == 0.0 for x in zeros) == 4
        tiny = cases["at-prune-tol"][0].reference.amps[("t", "t")]
        assert tiny == PRUNE_TOL
        past_one = cases["norm-past-one"][0].reference
        assert past_one.norm_sq > 1.0 and past_one.amps[("t", "m")] == PRUNE_TOL
        ((q, post),) = collapse_branches(past_one, ProjPartition.finest(["m"])).values()
        assert PRUNE_TOL * (1.0 / math.sqrt(q)) < PRUNE_TOL and list(post.amps) == [("x", "m")]
        inst, reverse = cases["reverse-sorted-outcomes"]
        branches = collapse_branches(inst.reference, reverse)
        assert [(o, len(post.amps)) for o, (_, post) in branches.items()] == [
            ("z", 2), ("y", 1), ("x", 2), ("w", 1)]
        report = strategy_report(inst, None, reverse)
        assert [row[0] for row in report.outcome_table] == ["w", "x", "y", "z"]
        assert report.p == branches["x"][0] + branches["y"][0]  # z has two C labels, w is garbage


def _halves(labels, first):
    """The predicate taking ``first`` on the first half of ``labels``, 1 - ``first`` on the rest."""
    return {c: first if i < len(labels) // 2 else 1 - first for i, c in enumerate(labels)}


class TestSparseRouteMemory:
    """The sparse route builds a post-state, scores it and drops it before the next
    is built, so it holds one post-state at a time, not all of them as
    ``collapse_branches`` does."""

    @pytest.mark.parametrize("attack", ["basis", "halves", "mirrored-halves"])
    def test_no_earlier_post_state_is_alive_when_one_is_scored(self, monkeypatch, attack):
        oaep = seal_oaep(0x2A, OaepContext.create(k0=8, n=8, with_human=False))
        labels = [*dict.fromkeys(c for _, c in oaep.reference.amps)]
        scored, overlap = [], adversary.squared_overlap

        def watched(reference, post):
            alive = sum(ref() is not None for ref in scored)
            scored.append(weakref.ref(post))
            assert alive == 0
            return overlap(reference, post)

        monkeypatch.setattr(adversary, "squared_overlap", watched)
        collecting = gc.isenabled()
        gc.disable()  # only references keep a post-state alive
        try:
            if attack == "basis":
                report = basis_cheat(oaep)
            else:
                report = predicate_cheat(oaep, _halves(labels, int(attack == "halves")))
        finally:
            if collecting:
                gc.enable()
        assert len(scored) == len(report.outcome_table) == (256 if attack == "basis" else 2)

    def test_a_bucket_map_goes_with_its_post_state(self, monkeypatch):
        # Halves of a k0 = 12 seal: two buckets of 2048 amplitudes, each the map
        # of its post-state. The walk drops the first bucket once reached, so
        # when the second post-state is scored the first's map is gone: traced
        # memory falls by about 70 KiB, where a walk holding every bucket to its
        # end rises by about 66 KiB.
        oaep = seal_oaep(0x2A, OaepContext.create(k0=12, n=16, with_human=False))
        labels = [*dict.fromkeys(c for _, c in oaep.reference.amps)]
        held, overlap = [], adversary.squared_overlap

        def watched(reference, post):
            held.append(tracemalloc.get_traced_memory()[0])
            return overlap(reference, post)

        monkeypatch.setattr(adversary, "squared_overlap", watched)
        tracemalloc.start()
        try:
            predicate_cheat(oaep, {c: int(i < len(labels) // 2) for i, c in enumerate(labels)})
        finally:
            tracemalloc.stop()
        first, second = held
        assert second < first

    @pytest.mark.parametrize("first", [1, 0], ids=["g=1-first", "g=0-first"])
    def test_a_bucket_map_goes_in_either_order(self, monkeypatch, first):
        # The walk takes outcomes in sorted order, g=0 then g=1: the reverse of
        # their first appearance when the first half is g=1, the same when it is g=0.
        oaep = seal_oaep(0x2A, OaepContext.create(k0=12, n=16, with_human=False))
        labels = [*dict.fromkeys(c for _, c in oaep.reference.amps)]
        g = _halves(labels, first)
        partition = predicate_partition(oaep, g)
        assert list(collapse_branches(oaep.reference, partition)) == [f"g={first}", f"g={1 - first}"]
        held, overlap = [], adversary.squared_overlap

        def watched(reference, post):
            in_first_half = next(iter(post.amps))[1] in labels[:len(labels) // 2]
            held.append((tracemalloc.get_traced_memory()[0], in_first_half))
            return overlap(reference, post)

        monkeypatch.setattr(adversary, "squared_overlap", watched)
        tracemalloc.start()
        try:
            report = predicate_cheat(oaep, g)
        finally:
            tracemalloc.stop()
        (first_held, first_is_first_half), (second_held, _) = held
        assert [row[0] for row in report.outcome_table] == ["g=0", "g=1"]
        assert first_is_first_half == (first == 0)
        assert second_held < first_held

    def test_lone_outcomes_build_no_bucket_map(self):
        # At k0 = 12 every token is its own outcome. The basis cheat peaked at
        # 1.65 MiB (tracemalloc) while the walk gave each outcome a one-entry
        # bucket map; with a lone outcome's (key, amplitude) pair it peaks at
        # 1.06-1.18 MiB. The seal's map is built on its first read, and it is the
        # seal's, not the walk's, so it is read before tracing starts.
        oaep = seal_oaep(0x2A, OaepContext.create(k0=12, n=16, with_human=False))
        oaep.reference.amps
        tracemalloc.start()
        try:
            report = basis_cheat(oaep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.outcome_table) == 4096
        assert peak < 1.4 * 2**20


class TestOneOverlapPerBranch:
    """The sparse route scores each branch with one ``squared_overlap`` call, through
    ``adversary``'s module global, of the reference and the branch's post-state: on a
    k0 = 4 seal, 16 calls for the basis cheat (one amplitude a post-state) and 2 for
    a halves predicate, the counts the benchmark's tracer test pins."""

    @pytest.mark.parametrize("attack, calls, post_size", [("basis", 16, 1), ("halves", 2, 8)])
    def test_one_call_per_branch(self, monkeypatch, attack, calls, post_size):
        oaep = seal_oaep(0x11, OaepContext.create(k0=4, n=8, with_human=False))
        labels = [*dict.fromkeys(c for _, c in oaep.reference.amps)]
        seen, overlap = [], adversary.squared_overlap

        def counted(reference, post):
            seen.append((reference is oaep.reference, len(reference.amps), len(post.amps)))
            return overlap(reference, post)

        monkeypatch.setattr(adversary, "squared_overlap", counted)
        report = basis_cheat(oaep) if attack == "basis" else predicate_cheat(oaep, _halves(labels, 1))
        assert seen == [(True, 16, post_size)] * calls
        assert len(report.outcome_table) == calls


# The outcomes a report's p and p_bound read: its lone active label decodes to a
# message (pinned), decodes to nothing (absent from ``decode``, or mapped to
# None), or it has several active labels.
OUTCOME_KINDS = ("pinned", "absent", "garbage", "several")


@st.composite
def report_stacks(draw):
    """Rows of 1 to 9 (mass, kind) outcomes, each row's masses normalised and
    then scaled by 1, 1 + 2^-52 or 1 + 2^-50, so a row's pinned masses can pass
    1 by round-off; masses come from a few values, so ties are common."""
    weights = st.one_of(st.sampled_from([1.0, 0.5, 2.0]), st.floats(1e-17, 1.0))
    rows = draw(st.lists(st.lists(st.tuples(weights, st.sampled_from(OUTCOME_KINDS)),
                                  min_size=1, max_size=9), min_size=1, max_size=5))
    scaled = []
    for row in rows:
        total, scale = math.fsum(w for w, _ in row), draw(st.sampled_from([1.0, 1 + 2**-52, 1 + 2**-50]))
        scaled.append([(w / total * scale, kind) for w, kind in row])
    return scaled


def stack_inputs(rows, padding):
    """(instance, zero-padded masses, pinned mask, tables, lone labels, strategies) of
    a stack whose strategy t has the (mass, kind) outcomes ``rows[t]``, padded
    with ``padding`` zero columns past the widest row."""
    qs = np.zeros((len(rows), max(map(len, rows)) + padding))
    pinned = np.zeros(qs.shape, dtype=bool)
    decode, tables, lones = {}, [], []
    for t, row in enumerate(rows):
        labels = [f"c{t}.{i}" for i in range(len(row))]
        for i, (q, kind) in enumerate(row):
            qs[t, i], pinned[t, i] = q, kind == "pinned"
            if kind in ("pinned", "garbage"):
                decode[labels[i]] = f"m{t}.{i}" if kind == "pinned" else None
        tables.append(tuple((f"cell{i}", q, q) for i, (q, _) in enumerate(row)))
        lones.append([None if kind == "several" else label for label, (_, kind) in zip(labels, row)])
    inst = SealedInstance(GARBAGE, SparseState({("m", "m"): 1.0}), decode, {})
    return inst, qs, pinned, tables, lones, [object() for _ in rows]


def _number_bits(report):
    """The bit patterns of every number of a report, chain links included, and its table."""
    numbers = (report.p, report.s, report.bound, report.p_bound, report.trace_distance,
               report.convex_sum)
    return [x.hex() for x in numbers], report.outcome_table


def mixed_stack():
    """(instance, basis, unitaries, partitions) of a rotated stack: a, b and the
    rider c decode to messages, d to None, and e and f are absent from decode,
    so the partitions pin 0 to 3 outcomes of 1 to 6."""
    rng = np.random.default_rng(3)
    labels = "abcdef"
    amps = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    amps /= np.linalg.norm(amps)
    reference = SparseState({(b, c): complex(a) for b, row in zip("xy", amps)
                             for c, a in zip(labels, row)})
    inst = SealedInstance(GARBAGE, reference, {"a": "A", "b": "B", "c": "C", "d": None}, {})
    cells = ["abcdef", "aaaaaa", "abbbbb", "abcbdd", "dddefg", "aabbcc"]
    partitions = [ProjPartition(dict(zip(labels, row))) for row in cells]
    partitions += [random_partition(labels, rng) for _ in range(2)]
    stack = adversary.haar_unitaries(
        normal_block([np.random.default_rng(t) for t in range(len(partitions))], 4))
    return inst, ["a", "b", "d", "e"], stack, partitions


class TestStackReports:
    """``_reports``' array passes over a stack give every bit the per-report
    Python (``conftest._previous_reports``) gave, and each report of a stack
    the bits it gets alone. Masked maxima, ``np.where`` and row sums carry the
    exactness argument, so these also run against the oldest numpy allowed."""

    @given(rows=report_stacks(), padding=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    @example(rows=[
        [(0.5, "absent"), (0.25, "garbage"), (0.25, "several")],  # nothing pinned
        [(1 + 2**-52, "pinned")],  # one pinned mass past 1
        [(0.5 + 2**-53, "pinned"), (0.5 + 2**-53, "pinned")],  # two tied, summing past 1
        [(0.25, "pinned")] * 4,  # four tied, summed by math.fsum
        [(0.5, "several"), (0.25, "pinned"), (0.125, "pinned"), (0.125, "pinned")],
    ], padding=2)
    def test_equals_the_per_report_pass(self, rows, padding):
        inst, qs, pinned, tables, lones, strategies = stack_inputs(rows, padding)
        got = adversary._reports(qs, pinned, tables, strategies)
        want = _previous_reports(inst, qs, tables, lones, strategies)
        assert [_number_bits(r) for r in got] == [_number_bits(r) for r in want]
        assert all(r.strategy is m for r, m in zip(got, strategies))

    def test_named_bound_sweep_strategies_equal_the_previous_route(self, monkeypatch):
        # Every named strategy is sparse, and all run as one stacked call. The
        # multipicture basis cheats pin every outcome, all of one mass: a tie
        # across the row.
        calls, stacked = [], harness.sparse_reports

        def recorded(strategies):
            reports = stacked(strategies)
            calls.append((strategies, reports))
            return reports

        monkeypatch.setattr(harness, "sparse_reports", recorded)
        harness.run_bound_sweep(harness.ExperimentConfig(trials=0))
        ((strategies, reports),) = calls
        assert len(strategies) == len(reports) == 18  # basis and predicate-split on nine instances
        ties = 0
        for (inst, partition), report in zip(strategies, reports):
            assert _report_bits(report) == _report_bits(previous_sparse_report(inst, partition))
            masses = [q for _, q, _ in report.outcome_table]
            pins_all = report.p == min(1.0, exact_sum(masses))
            ties += len(masses) >= 2 and len(set(masses)) == 1 and pins_all
        assert ties == 4  # the three multipicture basis cheats, and multipicture-2's split

    def test_each_sparse_report_of_a_stack_equals_its_strategy_alone(self):
        # Cases of equal and of different outcome counts, stacked in one call.
        strategies = [(inst, partition or ProjPartition.finest(inst.reference.c_labels()))
                      for inst, partition in _sparse_route_cases().values()]
        strategies += strategies[::-1]
        reports = adversary.sparse_reports(strategies)
        widths = [len(report.outcome_table) for report in reports]
        assert len(set(widths)) < len(widths) and len(set(widths)) >= 4
        for (inst, partition), report in zip(strategies, reports):
            (alone,) = adversary.sparse_reports([(inst, partition)])
            assert _report_bits(report) == _report_bits(alone)
            assert report.strategy[1:] == alone.strategy[1:] == (None, partition)

    def test_each_report_of_a_mixed_stack_equals_its_strategy_alone(self):
        inst, basis, stack, partitions = mixed_stack()
        reports = rotated_branches(inst, basis, stack, partitions)
        pins = [len(pinpointed_messages(inst, basis, matrix, partition.outcome_of))
                for matrix, partition in zip(stack, partitions)]
        assert {0, 1, 2, 3} <= set(pins)
        assert len({len(report.outcome_table) for report in reports}) >= 4
        for t, (report, partition) in enumerate(zip(reports, partitions)):
            (alone,) = rotated_branches(inst, basis, stack[t:t + 1], [partition])
            assert _report_bits(report) == _report_bits(alone)


def sweep_stack(n: int, seeds: range) -> tuple[np.ndarray, np.ndarray]:
    """The unitaries and cell rows a sweep draws for the trials whose generators
    are ``default_rng(seed)``, seed in ``seeds``: ``random_unitary``'s normal
    fill, then ``_random_cells``, from each generator in turn."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    unitaries = adversary.haar_unitaries(normal_block(rngs, n))
    return unitaries, np.stack([adversary._random_cells(n, rng) for rng in rngs])


class TestRotatedMassBits:
    """The rotated engine's scatter against the indicator it replaced
    (``conftest.previous_rotated_masses``): the pinned mask is the same, and the
    q's are the same bits below 8 columns, where numpy's pairwise sum runs left
    to right, and within 4 ulps at 8 or more. At every size each q is its
    outcome's active column masses added left to right in column order. These
    rest on ``np.bincount`` adding a slot's weights in input order and on
    ``np.ravel_multi_index``, so they also run against the oldest numpy allowed."""

    @staticmethod
    def assert_masses(inst, basis, matrices, partitions) -> bool:
        """Check one stack; True when its q's moved from the indicator's bits."""
        seen, reports = [], adversary._reports

        def recorded(qs, pinned, tables, strategies):
            seen.append((qs, pinned))
            return reports(qs, pinned, tables, strategies)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversary, "_reports", recorded)
            # Only the masses are read, so no report needs its strategy.
            adversary._rotated_branches(inst, basis, matrices, partitions, [None] * len(matrices))
        ((qs, pinned),) = seen
        old_qs, old_pinned, mass, held, codes = previous_rotated_masses(
            inst, basis, matrices, partitions)
        assert np.array_equal(pinned, old_pinned)
        moved = qs.tobytes() != old_qs.tobytes()
        assert not (moved and qs.shape[1] < 8)
        assert (np.abs(qs - old_qs) <= 4 * np.spacing(np.maximum(qs, old_qs))).all()
        for q, row_mass, row_held, row_codes in zip(qs.tolist(), mass.tolist(),
                                                    held.tolist(), codes.tolist()):
            sums: dict[int, float] = {}
            for m, active, code in zip(row_mass, row_held, row_codes):
                if active:
                    sums[code] = sums[code] + m if code in sums else m
            want = [sums[code] for code in sorted(sums)]
            assert q == want + [0.0] * (len(q) - len(want))
        return moved

    @pytest.mark.parametrize("seed", [0, 5, 8191])
    def test_named_sweep_instances(self, seed):
        # garbage-64 is past the sweep's DENSE_DIM_CAP guard; the engine has none.
        moved = {}
        for name, inst in harness._sweep_instances(harness.ExperimentConfig()):
            labels = sorted(inst.reference.c_labels())
            unitaries, cells = sweep_stack(len(labels), range(seed, seed + 100))
            moved[name] = self.assert_masses(inst, labels, unitaries, cells)
        assert len(moved) == 9 and moved["garbage-16"]
        assert not any(moved[name] for name in ("naive", "garbage-1", "garbage-2",
                                                 "garbage-4", "multipicture-2",
                                                 "multipicture-4"))

    def test_riders(self):
        # Under 8 columns: the mixed stack's riders c and f, pinning 0 to 3
        # outcomes. At 16: 13 OAEP riders sharing three cells with 3 rotated tokens.
        assert not self.assert_masses(*mixed_stack())
        inst = seal_oaep(0x5A, OaepContext.create(k0=4, n=8, with_human=False))
        labels = sorted(inst.reference.c_labels())
        basis = labels[5:8]
        unitaries, _ = sweep_stack(3, range(8))
        partitions = [ProjPartition({c: f"third{i % 3}" for i, c in enumerate(labels)}),
                      ProjPartition.finest(labels)] * 4
        self.assert_masses(inst, basis, unitaries, partitions)


def identity_margin(report):
    """The margin the identity gives from a report's outcome masses, in 40-digit
    mpmath: q_b (sqrt(c) - c) + sum_{i != b} q_i^2, c = sum_{i != b} q_i, b the
    outcome whose mass is p_bound (equal masses give equal values), and
    sum_i q_i^2 when p_bound is 0 (nothing pinned)."""
    import mpmath

    with mpmath.workdps(40):
        q = [mpmath.mpf(mass) for _, mass, _ in report.outcome_table]
        if report.p_bound == 0.0:
            return mpmath.fsum(x * x for x in q)
        b = min(range(len(q)), key=lambda i: abs(q[i] - report.p_bound))
        rest = q[:b] + q[b + 1:]
        c = mpmath.fsum(rest)
        return q[b] * (mpmath.sqrt(c) - c) + mpmath.fsum(x * x for x in rest)


class TestMarginIdentity:
    """Every margin is a function of the outcome masses alone (``adversary``'s
    docstring), so no mass can make it negative: the identity holds on named,
    random, stack and OAEP reports."""

    @staticmethod
    def assert_identity(reports):
        misses = [abs(report.margin - identity_margin(report)) for report in reports]
        assert max(misses) <= EXACT_TOL, max(misses)
        return sum(report.p_bound == 0.0 for report in reports)

    @pytest.mark.parametrize("seed", [0, 8191])
    def test_bound_sweep_reports(self, monkeypatch, seed):
        reports, check = [], harness.check_report

        def recording_check(report, instance, attack):
            reports.append(report)
            check(report, instance, attack)

        monkeypatch.setattr(harness, "check_report", recording_check)
        harness.run_bound_sweep(harness.ExperimentConfig(seed=seed, trials=100))
        assert len(reports) == 27 + 100 * 8  # garbage-64 is past DENSE_DIM_CAP
        assert 0 < self.assert_identity(reports) < len(reports)  # some pin nothing, most something

    def test_mixed_rotated_stack(self):
        inst, basis, stack, partitions = mixed_stack()
        self.assert_identity(rotated_branches(inst, basis, stack, partitions))

    @pytest.mark.parametrize("k0", [4, 8, 12])
    def test_oaep_basis_cheats(self, k0):
        inst = seal_oaep(0x5A, OaepContext.create(k0=k0, n=8, with_human=False))
        self.assert_identity([basis_cheat(inst)])
