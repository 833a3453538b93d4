import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bisection_links,
    chain_excess,
    dense_trace_distance,
    enumerate_basis_readout,
    identity_unitary,
    left_to_right_sum,
    max_abs_diff,
    normal_block,
    reference_random_partition,
    uniform_state,
)
from qseal import adversary, harness
from qseal.adversary import (
    ProofChain,
    basis_cheat,
    optimal_post_collapse_response,
    predicate_cheat,
    proof_chain,
    random_partition,
    random_strategy_sweep,
    soundness_bound,
    strategy_report,
)
from qseal.cli import main
from qseal.oaep import OaepContext, seal_oaep
from qseal.protocols import GARBAGE, SealedInstance, seal_garbage, seal_multipicture, seal_naive
from qseal.states import (
    DENSE_DIM_CAP,
    EXACT_TOL,
    Ensemble,
    LocalUnitary,
    ProjPartition,
    SparseState,
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


def distance_groups(reports):
    """The reports' indices grouped by the cached ``chain_links`` call they share
    (one per stack, so one per sweep chunk), each at its row in the call's
    result, groups in order of first appearance."""
    groups = {}
    for t, report in enumerate(reports):
        call, index = report.links
        group = groups.setdefault(id(call), [])
        assert index == len(group)
        group.append(t)
    return list(groups.values())


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

    def test_orthogonal_branch_scores_zero(self):
        from qseal.states import project_accept_probability

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
        """|B| = n_b and |C| = n_c: C label c{i} sits under B label b{i mod n_b}."""
        reference = uniform_state((f"b{i % n_b}", f"c{i}") for i in range(n_c))
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
    def assert_trials_are_single_strategies(inst, trials, rng_seed):
        labels = sorted(inst.reference.c_labels())
        reports = random_strategy_sweep(inst, trials, rng_seed)
        assert len(reports) == trials
        for t, report in enumerate(reports):
            rng = np.random.default_rng(rng_seed + t)
            u, partition = random_unitary(labels, rng), random_partition(labels, rng)
            single = strategy_report(inst, u, partition)
            assert report.outcome_table == single.outcome_table
            assert (report.p, report.s, report.bound) == (single.p, single.s, single.bound)
            # The chain holds the trace distance: stack and single agree bit for bit.
            assert proof_chain(inst, report) == proof_chain(inst, single)
            assert np.array_equal(report.members[2], single.members[2])
        return reports

    @staticmethod
    def per_chunk(inst):
        n_b, n_c = len(inst.reference.b_labels()), len(inst.reference.c_labels())
        return adversary._CHUNK_AMPLITUDES // (n_b * n_c * n_c)

    @pytest.mark.parametrize(
        "inst", [seal_multipicture(pictures(8)), seal_garbage("M", ["g0", "g1", "g2"])],
        ids=["multipicture-8", "garbage-3"])
    def test_trials_across_a_chunk_boundary(self, inst):
        self.assert_trials_are_single_strategies(inst, self.per_chunk(inst) + 3, rng_seed=7)

    def test_cell_names_sort_as_text_across_a_chunk_boundary(self):
        # 17 labels draw up to 17 cells, and "cell10" ... "cell16" sort before "cell2".
        inst = seal_garbage("M", [f"g{i}" for i in range(16)])
        assert self.per_chunk(inst) == 13
        reports = self.assert_trials_are_single_strategies(inst, 16, rng_seed=7)
        outcomes = [[row[0] for row in report.outcome_table] for report in reports]
        assert all(names == sorted(names) for names in outcomes)
        assert any("cell2" in names and any(len(o) == 6 and o.startswith("cell1")
                                            for o in names[:names.index("cell2")])
                   for names in outcomes)

    def test_one_trial_per_chunk(self, monkeypatch):
        inst = seal_multipicture(pictures(5))
        monkeypatch.setattr(adversary, "_CHUNK_AMPLITUDES", 1)  # below one trial: one per chunk
        self.assert_trials_are_single_strategies(inst, 12, rng_seed=3)

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
        with pytest.raises(ValueError) as batch:
            adversary._rotated_branches(inst, labels, stack, [ProjPartition.finest(labels)] * 4)
        message = str(batch.value)
        assert message == str(single.value)
        assert message.startswith("ensemble weights sum to 1.002")


class TestCellRows:
    """A sweep hands its partitions to ``_rotated_branches`` as rows of cell numbers."""

    def test_cell_rows_equal_their_partitions_with_an_inactive_column(self):
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
        by_row = adversary._rotated_branches(inst, basis, stack, cells)
        by_partition = adversary._rotated_branches(inst, basis, stack, partitions)
        assert [[o for o, _, _ in report.outcome_table] for report in by_row[:4]] == [
            ["cell0"], ["cell0", "cell1"], ["cell0", "cell2"], ["cell0"]]
        assert distance_groups(by_row) == distance_groups(by_partition) == [list(range(8))]
        for row, partition in zip(by_row, by_partition):
            # Reports compare p, s, bound, the table and p_bound, which reads the lone labels.
            assert row == partition
            assert proof_chain(inst, row) == proof_chain(inst, partition)
            assert row.members[1] == partition.members[1]
            assert list(row.members[3]) == list(partition.members[3])
            assert row.returned == partition.returned

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
    """(state, inc) of numpy's own ``default_rng(seed)``."""
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


class TestStreamEquivalence:
    """A sweep seeds and draws its trials without ``default_rng``, and gets its bits.

    The emulation copies numpy internals (``SeedSequence``'s hash, PCG64's
    seeding step and ``Generator.integers``' rule), so these tests also run
    against the oldest numpy ``pyproject.toml`` allows."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                      2**128 - 1, 2**128, 2**200])
    def test_states_at_word_boundaries(self, seed):
        assert adversary._pcg64_states(range(seed, seed + 1)) == [default_rng_state(seed)]

    def test_a_range_across_word_counts(self):
        # Four words, then five: two hashing passes in one call.
        seeds = range(2**128 - 3, 2**128 + 3)
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


class TestLazyDistance:
    """A sweep's trace distances are computed when a proof chain first reads one,
    with one ``chain_links`` call per chunk."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        links = adversary.chain_links

        def counted(q, c):
            calls.append(len(q))
            return links(q, c)

        monkeypatch.setattr(adversary, "chain_links", counted)
        return calls

    def test_cheat_random_computes_no_distance(self, monkeypatch, tmp_path):
        calls = self.count_calls(monkeypatch)
        instance, out = tmp_path / "multi.json", tmp_path / "cheat.json"
        assert main(["--out", str(instance), "seal", "--protocol", "multipicture",
                     "--pictures", ",".join(pictures(8))]) == 0
        assert main(["--seed", "0", "--out", str(out), "cheat", "--instance", str(instance),
                     "--attack", "random", "--trials", "300"]) == 0
        assert len(json.loads(out.read_text())) == 300
        assert calls == []

    def test_proof_chains_make_one_call_per_chunk(self, monkeypatch):
        # 100 trials on multipicture-8 fit one chunk, so the chains of one stack
        # of the same draws are the sweep's.
        inst = seal_multipicture(pictures(8))
        labels = sorted(inst.reference.c_labels())
        rngs = [np.random.default_rng(t) for t in range(100)]
        stack = adversary.haar_unitaries(normal_block(rngs, len(labels)))
        partitions = [random_partition(labels, rng) for rng in rngs]
        stacked = adversary._rotated_branches(inst, labels, stack, partitions)
        assert distance_groups(stacked) == [list(range(100))]
        eager = [proof_chain(inst, report) for report in stacked]
        calls = self.count_calls(monkeypatch)
        reports = random_strategy_sweep(inst, len(rngs), rng_seed=0)
        assert calls == []
        chains = [proof_chain(inst, report) for report in reports]
        assert calls == [100]
        assert chains == eager
        assert [proof_chain(inst, report) for report in reports] == chains
        assert calls == [100]
        # 30 trials per chunk: four chunks, four calls, the same chains.
        monkeypatch.setattr(adversary, "_CHUNK_AMPLITUDES", 30 * 8 * 8 * 8)
        chunked = random_strategy_sweep(inst, len(rngs), rng_seed=0)
        assert [len(group) for group in distance_groups(chunked)] == [30, 30, 30, 10]
        assert [proof_chain(inst, report) for report in chunked] == chains
        assert calls == [100, 30, 30, 30, 10]


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
        _, columns, matrix, _ = report.members
        assert columns[:2] == u.basis and len(columns) == 64 and matrix.shape == (2, 2)

    def test_stacked_trials_with_ride_along_columns(self):
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
        reports = adversary._rotated_branches(inst, basis, stack, partitions)
        assert distance_groups(reports) == [list(range(6))]
        for t, (report, matrix, partition) in enumerate(zip(reports, stack, partitions)):
            self.assert_matches(report, dense_strategy(inst.reference, basis, matrix,
                                                       partition.outcome_of))
            (single,) = adversary._rotated_branches(inst, basis, stack[t:t + 1], [partition])
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
    the pinpointing rows' q's, added left to right in table order."""

    @staticmethod
    def assert_distinct(inst, report, basis=(), matrix=np.eye(0), outcome_of=None):
        if outcome_of is None:
            outcome_of = ProjPartition.finest(inst.reference.c_labels() | set(basis)).outcome_of
        messages = pinpointed_messages(inst, basis, matrix, outcome_of)
        assert len(set(messages.values())) == len(messages)
        pinpointing = [q for outcome, q, _ in report.outcome_table if outcome in messages]
        assert report.p == min(1.0, left_to_right_sum(pinpointing))

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

    def test_large_reference_builds_only_the_keys_it_keeps(self):
        # A unitary on two of 512 OAEP tokens: the report keeps the 2 x 2 unitary
        # and each column's outcome, and no key or member until ``returned`` is
        # read. The tracemalloc peak measured 2.5 MiB, mostly the masses under
        # the 512 x 512 cell indicator (2 MiB). Building V, the 512 x 2 basis
        # keys and the 510 others as one (keys, members) array, took it to
        # 30.5 MiB; laying the riders out in the 512 x 512 block, to 6.1 MiB.
        inst = seal_oaep(0x5A, OaepContext.create(k0=9, n=8, with_human=False))
        labels = sorted(inst.reference.c_labels())
        u = random_unitary(labels[:2], 3)
        tracemalloc.start()
        try:
            report = strategy_report(inst, u, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, columns, matrix, outcomes = report.members
        assert columns[:2] == tuple(labels[:2]) and sorted(columns) == labels
        assert matrix.shape == (2, 2) and list(outcomes) == list(columns)
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
                closed_forms.append(chain.closed_form)
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
        chain = proof_chain(inst, report)
        assert chain.holds()
        assert chain.acceptance_gap == pytest.approx(report.s, abs=1e-12)

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
        # The acceptance gap and the closed form are read off the report; the
        # trace distance and the convex sum come from the outcome masses. The
        # masses and the table are checked against the overlaps of the built
        # members, a separate path, and the convex sum against each member's
        # pure-state distance sqrt(1 - overlap) weighed by its mass. Where an
        # overlap is within a few ulps of 1 (a one-cell partition), that square
        # root is off by up to sqrt(2^-50) = 2^-25, so the random rows allow it.
        for inst in (seal_garbage("M", ["g0", "g1", "g2"]), seal_multipicture(pictures(6))):
            sparse = basis_cheat(inst)
            for report in [sparse, *random_strategy_sweep(inst, 20, rng_seed=3)]:
                chain = proof_chain(inst, report)
                assert chain.acceptance_gap == report.s
                assert chain.closed_form == report.bound
                assert abs(report.bound - soundness_bound(report.p_bound)) <= 1e-12
                overlaps = [squared_overlap(inst.reference, member)
                            for _, member in report.returned.members]
                by_overlaps = left_to_right_sum(
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


def mass_chain(q):
    """The proof chain a dense report of outcome masses q has, its largest
    mass pinpointing the message: s = 1 - sum q^2, ``chain_links`` and the bound."""
    qs = np.array([q], dtype=float)
    cs = adversary.complements(qs)
    (distance,), (convex,) = adversary.chain_links(qs, cs)
    best = int(qs[0].argmax())
    gap = min(1.0, max(0.0, 1.0 - float((qs ** 2).sum())))
    closed_form = soundness_bound(qs[0, best], cs[0, best])
    return ProofChain(gap, float(distance), float(convex), closed_form)


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

# Rows the Newton start serves badly or not at all: a root below the least
# positive float, two near-pure rows that climb for 24 and 34 Newton steps from
# a start that lost its digits, and one that hits the 64-step cap and falls back
# to bisection over [0, 1].
DEGENERATE_ROWS = ([1.0, 0.0], [1.0], [0.0, 1.0, 0.0], [1.0 - 1e-12, 1e-12],
                   [1.0 - 1e-17, 1e-17], [1.0, 1e-40])


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
        for q, c, (distances, convex_sums) in calls:
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
        (distance,), _ = adversary.chain_links(qs, cs)
        (want,), _ = bisection_links(qs, cs)
        assert abs(int(distance.view(np.int64)) - int(want.view(np.int64))) <= 4  # ulps
        if distance == 0.0:
            assert g_at(qs, cs, [np.nextafter(0.0, 1.0)]) <= 0.0
        else:
            assert 0.0 < distance <= 1.0
            assert g_at(qs, cs, [distance]) <= 0.0 < g_at(qs, cs, [np.nextafter(distance, 0.0)])

    def test_each_row_of_a_mixed_stack_gets_its_bits_alone(self):
        rng = np.random.default_rng(11)
        ordinary = [rng.dirichlet(np.full(k, 0.3)).tolist() for k in (2, 5, 9, 17, 40)]
        rows = [*ordinary[:2], *DEGENERATE_ROWS, *ordinary[2:], [0.25] * 4]
        qs, cs = stack(rows)
        distances, convex_sums = adversary.chain_links(qs, cs)
        for t in range(len(rows)):
            alone, alone_convex = adversary.chain_links(qs[t:t + 1], cs[t:t + 1])
            assert distances[t:t + 1].tobytes() == alone.tobytes()
            assert convex_sums[t:t + 1].tobytes() == alone_convex.tobytes()
        want, _ = bisection_links(qs, cs)
        assert distances.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_padded_and_degenerate_rows_raise_no_warning(self):
        qs, cs = stack([*DEGENERATE_ROWS, [0.5, 0.5], [2.0**-16] * 2**16])
        distances, _ = adversary.chain_links(qs, cs)
        assert distances[0] == distances[1] == 0.0 and distances[2] == 0.0
        assert distances[-1] == 1.0 - 2.0**-16


class TestReportSerialization:
    def test_dict_fields(self):
        report = basis_cheat(seal_naive("M", garbage="0"))
        data = report.to_dict()
        assert set(data) == {"p", "s", "bound", "margin", "outcome_table"}
        assert data["margin"] == pytest.approx(data["bound"] - data["s"], abs=1e-15)
        assert len(data["outcome_table"]) == 2
