import dataclasses
import itertools
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    b_weights,
    dense_trace_distance,
    exact_sum,
    gram_schmidt_unitary,
    identity_unitary,
    max_abs_diff,
    normal_block,
    oracle_readout,
    random_ensemble,
    random_state,
    uniform_state,
)
from qseal import states
from qseal.protocols import seal_naive
from qseal.states import (
    DENSE_DIM_CAP,
    PRUNE_TOL,
    SUPPORT_CAP,
    Ensemble,
    LocalUnitary,
    ProjPartition,
    SparseState,
    apply_unitary_c,
    check_unitary,
    collapse_branches,
    ensemble_from_dict,
    haar_unitaries,
    inner_product,
    project_accept_probability,
    random_unitary,
    sample_readout,
    span_trace_distance,
    squared_overlap,
    state_from_dict,
    state_to_dict,
    trace_distance_pure,
    trace_distance_pure_vs_ensemble,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

BELL = SparseState({("0", "0"): INV_SQRT2, ("m", "m"): INV_SQRT2})
SINGLE = SparseState({("m", "m"): 1.0})


class TestConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            SparseState({("a", "a"): 0.5})

    def test_prunes_tiny_amplitudes(self):
        s = SparseState({("a", "a"): 1.0, ("b", "b"): 1e-16})
        assert set(s.amps) == {("a", "a")}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitude(self, bad):
        # A NaN is never >= PRUNE_TOL, so a check after the prune would miss it.
        with pytest.raises(ValueError, match="not normalized"):
            SparseState({("a", "a"): 1.0, ("b", "b"): bad})

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_nan_fails_beside_a_pruned_amplitude(self, first):
        # Whichever amplitude min() meets first, the NaN is kept and fails the norm.
        items = [(("a", "a"), 1 + 0j), (("b", "b"), complex(math.nan, 0.0)), (("c", "c"), 1e-16 + 0j)]
        with pytest.raises(ValueError, match="sum of squared moduli is nan"):
            SparseState(dict(items[first:] + items[:first]))

    @pytest.mark.parametrize("amps", [
        {("a", "a"): 0.6, ("b", "b"): 0.8},
        {("a", "a"): 0.6 + 0j, ("t", "t"): 1e-16 + 0j, ("b", "b"): 0.8j},
        {("a", "a"): complex(0.6, -0.0), ("b", "b"): complex(-0.0, 0.8)},
    ], ids=["floats", "pruned", "negative-zeros"])
    def test_norm_is_inner_product_of_the_kept_amplitudes(self, amps):
        state = SparseState(amps)
        assert state.norm_sq.hex() == inner_product(state, state).real.hex()

    @pytest.mark.parametrize(
        "amps, message",
        [
            ({("a", "a"): 1.0 + 0j, ("b", "b"): complex(math.nan, 0.0)}, "nan"),
            ({("a", "a"): complex(1.2e154), ("b", "b"): complex(1.2e154)}, "inf"),
            ({("a", "a"): complex(1e200)}, "inf"),
            ({("a", "a"): complex(1.7e308, 1.7e308)}, "inf"),
            ({("a", "a"): 1e200}, "inf"),
        ],
        ids=["nan", "overflowing-squares", "overflowing-square", "overflowing-modulus", "float"],
    )
    def test_norm_error_names_the_sum(self, amps, message):
        with pytest.raises(ValueError) as caught:
            SparseState(amps)
        assert str(caught.value) == f"state is not normalized: sum of squared moduli is {message}"

    def test_keeps_its_own_copy(self):
        amps = {("a", "a"): complex(INV_SQRT2), ("b", "b"): complex(INV_SQRT2)}
        state = SparseState(amps)
        amps[("a", "a")] = 0j
        amps[("c", "c")] = 1 + 0j
        del amps[("b", "b")]
        assert state.amps == {("a", "a"): complex(INV_SQRT2), ("b", "b"): complex(INV_SQRT2)}
        assert state.amps is not amps

    def test_amplitudes_stored_as_exact_complex(self):
        class Amplitude(complex):
            pass

        for value in (1.0, 1, Amplitude(1.0), 1 + 0j):
            for amps in ({("a", "a"): value}, {("a", "a"): value, ("b", "b"): 0j}):
                state = SparseState(amps)
                assert list(state.amps) == [("a", "a")]
                assert type(state.amps[("a", "a")]) is complex
                assert state.amps[("a", "a")] == 1.0
        mixed = SparseState({("a", "a"): INV_SQRT2 + 0j, ("b", "b"): Amplitude(INV_SQRT2)})
        assert {type(a) for a in mixed.amps.values()} == {complex}

    @pytest.mark.parametrize("box", [complex, float], ids=["complex", "float"])
    def test_prune_tolerance_is_inclusive(self, box):
        big = ("a", "a")
        for tiny, kept in ((PRUNE_TOL, True), (math.nextafter(PRUNE_TOL, 0.0), False)):
            state = SparseState({big: box(1.0), ("b", "b"): box(tiny)})
            assert (("b", "b") in state.amps) is kept
            assert state.amps[big] == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ensemble_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((bad, SINGLE), (1.0, BELL)))

    def test_ensemble_weights_are_stored_as_floats(self):
        for weights in ((1,), (np.float64(0.25), 0.75), (0.5, 0.5)):
            sigma = Ensemble(tuple((w, SINGLE) for w in weights))
            assert [type(q) for q, _ in sigma.members] == [float] * len(weights)
            assert [q for q, _ in sigma.members] == list(weights)
            assert all(state is SINGLE for _, state in sigma.members)

    def test_ensemble_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.5, SINGLE),))

    def test_ensemble_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble(((-0.25, SINGLE), (1.25, BELL)))

    # NaN fails every comparison, so it must not slip past the defect check.
    @pytest.mark.parametrize("basis, matrix, message", [
        (("a", "b"), [[1.0, 1.0], [0.0, 1.0]], "not unitary"),
        (("a", "b"), [[math.nan, 0.0], [0.0, 1.0]], "not unitary"),
        (("a", "b", "c"), np.eye(2), r"matrix shape \(2, 2\) does not match basis size 3"),
        (("a", "a"), np.eye(2), "basis labels must be distinct"),
    ], ids=["not-unitary", "nan", "shape-mismatch", "duplicate-basis"])
    def test_unitary_must_be_unitary(self, basis, matrix, message):
        with pytest.raises(ValueError, match=message):
            LocalUnitary(basis, np.array(matrix))


# Nonzero parts keep a modulus well above PRUNE_TOL after normalizing 8 amplitudes.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))
_AT_PRUNE_TOL = [complex(PRUNE_TOL, -0.0), complex(-0.0, PRUNE_TOL), complex(-PRUNE_TOL, 0.0)]


@st.composite
def adoptable_maps(draw):
    """Normalized maps of exact complex amplitudes of modulus at least ``PRUNE_TOL``,
    with -0.0 parts, and at times one amplitude exactly at ``PRUNE_TOL``."""
    parts = draw(st.lists(st.tuples(_PARTS, _PARTS).filter(any), min_size=1, max_size=8))
    norm = math.sqrt(math.fsum(re * re + im * im for re, im in parts))
    items = [((f"b{i % 3}", f"c{i // 2}"), complex(re / norm, im / norm)) for i, (re, im) in enumerate(parts)]
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), (("t", "t"), draw(st.sampled_from(_AT_PRUNE_TOL))))
    return dict(items)


class TestAdopt:
    """``SparseState._adopt`` keeps the very map it is given and builds the state
    ``SparseState`` builds from it, on maps that meet its precondition."""

    @given(amps=adoptable_maps())
    @settings(max_examples=200, deadline=None)
    def test_adopt_builds_what_the_constructor_builds(self, amps):
        want = SparseState(amps)
        adopted = dict(amps)
        state = SparseState._adopt(adopted)
        assert state.amps is adopted
        assert _bits(state) == _bits(want)
        assert state.norm_sq.hex() == want.norm_sq.hex()

    @pytest.mark.parametrize("amps, total", [
        ({("a", "a"): complex(0.5)}, "0.25"),
        ({("a", "a"): complex(0.6), ("b", "b"): complex(0.0, 0.9)}, "1.17"),
        ({("a", "a"): 1 + 0j, ("b", "b"): complex(math.nan, 0.0)}, "nan"),
    ], ids=["short", "long", "nan"])
    def test_adopt_raises_the_norm_message(self, amps, total):
        message = f"state is not normalized: sum of squared moduli is {total}"
        for build in (SparseState, SparseState._adopt):
            with pytest.raises(ValueError) as caught:
                build(dict(amps))
            assert str(caught.value) == message


class TestStateContract:
    """``SparseState`` stores its two fields in the instance dict, amps first, and
    keeps the frozen dataclass's contract on both constructors."""

    AMPS = {("a", "x"): complex(0.6), ("b", "y"): complex(0.0, 0.8)}

    def built(self):
        return [SparseState(self.AMPS), SparseState._adopt(dict(self.AMPS))]

    @pytest.mark.parametrize("name", ["amps", "norm_sq"])
    def test_fields_are_frozen(self, name):
        for state in self.built():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, {})
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(state, name)

    def test_fields_in_the_instance_dict(self):
        for state in self.built():
            assert list(vars(state)) == ["amps", "norm_sq"]
            assert vars(state)["amps"] == self.AMPS and vars(state)["norm_sq"] == state.norm_sq

    def test_eq_and_repr_leave_out_norm_sq(self):
        state, adopted = self.built()
        vars(adopted)["norm_sq"] = 0.5  # a norm no constructor keeps
        assert state == adopted and state.norm_sq != adopted.norm_sq
        assert repr(state) == repr(adopted) == "SparseState(amps={('a', 'x'): (0.6+0j), ('b', 'y'): 0.8j})"
        assert state != SparseState({("a", "x"): complex(0.8), ("b", "y"): complex(0.0, 0.6)})

    def test_deferred_map_is_built_on_first_read(self):
        calls = []

        def build():
            calls.append(1)
            return dict(self.AMPS)

        with pytest.raises(ValueError, match="sum of squared moduli is 0.5"):
            SparseState._deferred(build, 0.5)  # the norm is checked before any read
        state = SparseState._deferred(build, 1.0)
        assert calls == [] and state.norm_sq == 1.0
        with pytest.raises(AttributeError):
            state.missing
        assert calls == [] and "amps" not in vars(state)
        assert state.amps is state.amps and calls == [1]
        assert state == SparseState(self.AMPS) and repr(state) == repr(SparseState(self.AMPS))
        for name in ("amps", "norm_sq"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, {})

    def test_racing_first_reads_keep_one_map(self):
        state = SparseState._deferred(lambda: (time.sleep(0.01), dict(self.AMPS))[1], 1.0)
        barrier, seen = threading.Barrier(8), []

        def read():
            barrier.wait(timeout=10)
            seen.append(state.amps)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(amps is state.amps for amps in seen)

    def test_replace_the_reference_of_an_instance(self):
        inst = seal_naive("M", garbage="0")
        amps = {("M", "0"): complex(INV_SQRT2), ("0", "M"): complex(INV_SQRT2)}
        swapped = dataclasses.replace(inst, reference=SparseState(amps))
        assert swapped.reference.amps == amps and list(vars(swapped.reference)) == ["amps", "norm_sq"]
        assert swapped.decode == inst.decode and inst.reference.amps != amps


def _bits(state):
    """Every amplitude's key and bit pattern, in the map's order."""
    return [(key, a.real.hex(), a.imag.hex()) for key, a in state.amps.items()]


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        assert inner_product(BELL, BELL) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_give_zero(self):
        other = SparseState({("q", "q"): 1.0})
        assert inner_product(BELL, other) == 0

    def test_partial_overlap(self):
        assert inner_product(BELL, SINGLE) == pytest.approx(INV_SQRT2, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_magnitude_at_most_one(self, seed):
        a = random_state(seed)
        b = random_state(seed + 1)
        assert abs(inner_product(a, b)) <= 1 + 1e-9


class TestTraceDistancePure:
    def test_identical_states(self):
        assert trace_distance_pure(BELL, BELL) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states(self):
        other = SparseState({("q", "q"): 1.0})
        assert trace_distance_pure(BELL, other) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        assert trace_distance_pure(BELL, SINGLE) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )


class TestTraceDistanceEnsemble:
    def test_pure_ensemble_of_self(self):
        assert trace_distance_pure_vs_ensemble(BELL, Ensemble.pure(BELL)) < 1e-10

    def test_two_state_mixture_by_hand(self):
        # rho - sigma over {x, y} is [[1/2, 0], [0, -1/2]]: eigenvalues +-1/2.
        x = SparseState({("b", "x"): 1.0})
        y = SparseState({("b", "y"): 1.0})
        sigma = Ensemble(((0.5, x), (0.5, y)))
        assert trace_distance_pure_vs_ensemble(x, sigma) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_naive_readout_mixture_reaches_its_soundness(self):
        branches = collapse_branches(BELL, ProjPartition.finest(["0", "m"]))
        sigma = Ensemble(tuple((p, s) for p, s in branches.values()))
        d = trace_distance_pure_vs_ensemble(BELL, sigma)
        accept = project_accept_probability(BELL, sigma)
        assert d >= (1 - accept) - 1e-10
        assert d == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("support", [DENSE_DIM_CAP, DENSE_DIM_CAP + 1])
    def test_dimension_cap(self, support):
        # A basis readout keeps the joint support at exactly ``support`` keys.
        b_pool = [f"b{i}" for i in range(27)]
        c_pool = [f"c{i}" for i in range(19)]
        big = random_state(3, b_pool=b_pool, c_pool=c_pool, support=support)
        branches = collapse_branches(big, ProjPartition.finest(big.c_labels()))
        sigma = Ensemble(tuple(branches.values()))
        if support > DENSE_DIM_CAP:
            with pytest.raises(ValueError, match=f"joint basis has dimension {support}, cap is 512"):
                trace_distance_pure_vs_ensemble(big, sigma)
        else:
            assert trace_distance_pure_vs_ensemble(big, sigma) == pytest.approx(
                dense_trace_distance(big, sigma), abs=1e-12
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_numpy_oracle(self, seed):
        psi = random_state(seed)
        sigma = random_ensemble(seed + 17)
        mine = trace_distance_pure_vs_ensemble(psi, sigma)
        assert mine == pytest.approx(dense_trace_distance(psi, sigma), abs=1e-8)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_consistent_with_pure_formula(self, seed):
        a = random_state(seed)
        b = random_state(seed + 1)
        assert trace_distance_pure(a, b) == pytest.approx(
            trace_distance_pure_vs_ensemble(a, Ensemble.pure(b)), abs=1e-8
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_bounds_acceptance_gap(self, seed):
        psi = random_state(seed)
        sigma = random_ensemble(seed + 29)
        gap = 1.0 - project_accept_probability(psi, sigma)
        assert gap <= trace_distance_pure_vs_ensemble(psi, sigma) + 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_convexity(self, seed):
        psi = random_state(seed)
        sigma = random_ensemble(seed + 41)
        convex = sum(q * trace_distance_pure(psi, m) for q, m in sigma.members)
        assert trace_distance_pure_vs_ensemble(psi, sigma) <= convex + 1e-8



class TestSpanTraceDistance:
    """``span_trace_distance`` on one V against the dense difference's eigenvalues."""

    @staticmethod
    def members(seed, rows, m):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(rows, m + 1)) + 1j * rng.normal(size=(rows, m + 1))
        v /= np.linalg.norm(v, axis=0)
        return v, rng.dirichlet(np.ones(m))

    @pytest.mark.parametrize("rows, m", [(2, 1), (9, 4), (64, 8), (DENSE_DIM_CAP, 17)])
    def test_equals_half_the_nuclear_norm(self, rows, m):
        v, q = self.members(rows * 31 + m, rows, m)
        difference = (v * np.concatenate(([1.0], -q))) @ v.conj().T
        distance = span_trace_distance(v, list(q))
        assert isinstance(distance, float)
        assert distance == pytest.approx(
            0.5 * np.abs(np.linalg.eigvalsh(difference)).sum(), abs=1e-12)

    def test_cap_holds_past_the_last_row(self):
        v, q = self.members(0, DENSE_DIM_CAP + 1, 2)
        with pytest.raises(ValueError, match="joint basis has dimension 513, cap is 512"):
            span_trace_distance(v, q)


class TestApplyUnitary:
    def test_identity_is_noop(self):
        u = identity_unitary(["0", "m"])
        out = apply_unitary_c(BELL, u)
        assert max_abs_diff(out, BELL) < 1e-12

    def test_swap_relabels(self):
        swap = LocalUnitary(("0", "m"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = apply_unitary_c(BELL, swap)
        assert out.amps[("0", "m")] == pytest.approx(INV_SQRT2)
        assert out.amps[("m", "0")] == pytest.approx(INV_SQRT2)
        assert sum(abs(a) ** 2 for a in out.amps.values()) == pytest.approx(1.0, abs=1e-9)

    def test_hadamard_on_single_term(self):
        # Column for input "x" sends it to ("x" + "y") / sqrt(2).
        h = LocalUnitary(
            ("x", "y"), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        )
        out = apply_unitary_c(SparseState({("b", "x"): 1.0}), h)
        assert out.amps[("b", "x")] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert out.amps[("b", "y")] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_labels_outside_basis_ride_along(self):
        u = identity_unitary(["elsewhere"])
        assert max_abs_diff(apply_unitary_c(BELL, u), BELL) < 1e-12

    def test_labels_outside_basis_stay_sparse(self):
        # 4096 diagonal terms and a swap of two C labels: only the swapped
        # terms move, and no |B| x |C| array is built over the rest.
        n = 4096
        state = uniform_state((f"b{i}", f"c{i}") for i in range(n))
        swap = LocalUnitary(("c0", "c1"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = apply_unitary_c(state, swap)
        moved = {("b0", "c1"), ("b1", "c0")}
        assert set(out.amps) == (set(state.amps) - {("b0", "c0"), ("b1", "c1")}) | moved
        assert all(out.amps[key] == pytest.approx(n**-0.5, abs=1e-15) for key in moved)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_preserves_norm_and_b_marginals(self, seed):
        state = random_state(seed)
        labels = sorted(state.c_labels())
        u = random_unitary(labels, seed)
        out = apply_unitary_c(state, u)
        assert sum(abs(a) ** 2 for a in out.amps.values()) == pytest.approx(
            1.0, abs=1e-9
        )
        before = b_weights(state)
        after = b_weights(out)
        for b in set(before) | set(after):
            assert after.get(b, 0.0) == pytest.approx(before.get(b, 0.0), abs=1e-9)


class TestCollapseBranches:
    def test_single_outcome_leaves_state_alone(self):
        branches = collapse_branches(BELL, ProjPartition({"0": "all", "m": "all"}))
        assert list(branches) == ["all"]
        prob, post = branches["all"]
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert max_abs_diff(post, BELL) < 1e-12

    def test_two_branch_split_is_even(self):
        branches = collapse_branches(BELL, ProjPartition.finest(["0", "m"]))
        assert branches["0"][0] == pytest.approx(0.5, abs=1e-12)
        assert branches["m"][0] == pytest.approx(0.5, abs=1e-12)

    def test_four_picture_split(self):
        pictures = [f"p{i}" for i in range(4)]
        state = uniform_state((str(i + 1), p) for i, p in enumerate(pictures))
        branches = collapse_branches(state, ProjPartition.finest(pictures))
        assert set(branches) == set(pictures)
        for i, picture in enumerate(pictures):
            prob, post = branches[picture]
            assert prob == pytest.approx(0.25, abs=1e-12)
            assert set(post.amps) == {(str(i + 1), picture)}
            assert abs(post.amps[(str(i + 1), picture)]) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_uncovered_label_raises(self):
        with pytest.raises(ValueError, match="C label 'm' is not covered by the partition"):
            collapse_branches(BELL, ProjPartition.finest(["0"]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_post_states_normalized_and_distribution_sums_to_one(self, seed):
        state = random_state(seed)
        branches = collapse_branches(state, ProjPartition.finest(state.c_labels()))
        assert sum(prob for prob, _ in branches.values()) == pytest.approx(1.0, abs=1e-9)
        for _, post in branches.values():
            assert sum(abs(a) ** 2 for a in post.amps.values()) == pytest.approx(
                1.0, abs=1e-9
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_masses_are_the_correctly_rounded_sums(self, seed):
        # About 33 terms per outcome: at seeds 0-99, every state has an outcome
        # whose left-to-right mass misses the exact sum's rounding.
        state = random_state(seed, b_pool=[f"b{i}" for i in range(40)], support=200)
        branches = collapse_branches(state, ProjPartition.finest(state.c_labels()))
        for outcome, (prob, _) in branches.items():
            assert prob == exact_sum(
                abs(a) ** 2 for (_, c), a in state.amps.items() if c == outcome)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_masses_do_not_depend_on_amplitude_order(self, seed):
        # Left to right, the reversed amplitudes would move some masses by an ulp.
        state = random_state(seed, b_pool=[f"b{i}" for i in range(40)], support=200)
        reversed_state = SparseState(dict(reversed(state.amps.items())))
        partition = ProjPartition.finest(state.c_labels())
        masses = [{outcome: prob for outcome, (prob, _) in collapse_branches(s, partition).items()}
                  for s in (state, reversed_state)]
        assert masses[0] == masses[1]


class TestSampleReadout:
    def test_fixed_seed_is_reproducible(self):
        assert len({sample_readout(BELL, 123) for _ in range(3)}) == 1

    def test_different_seeds_hit_both_outcomes(self):
        assert {sample_readout(BELL, seed) for seed in range(32)} == {"0", "m"}

    @given(seed=st.integers(0, 2**32 - 1), rng_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_partition_sampler(self, seed, rng_seed):
        # Several B labels per C label: the weight of a C label is a sum.
        state = random_state(seed)
        assert sample_readout(state, rng_seed) == oracle_readout(state, rng_seed)

    def test_draw_is_scaled_by_the_left_to_right_total(self, monkeypatch):
        # Ten weights of 0.1 add to 0.9999999999999999 left to right and to 1.0
        # correctly rounded. A draw u at the ninth running sum, scaled by the
        # first total, lands below it (label 9); by the second, on it (label 10).
        labels = [f"c{i}" for i in range(10)]
        state = SparseState({("b", c): math.sqrt(0.1) for c in labels})
        weights = [abs(a) ** 2 for a in state.amps.values()]
        running = list(itertools.accumulate(weights))
        assert running[-1] < math.fsum(weights) == 1.0

        class FixedDraw:
            def random(self):
                return running[8]

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraw())
        assert sample_readout(state, 0) == "c8"


class TestAcceptProbability:
    def test_honest_return_accepted(self):
        assert project_accept_probability(BELL, Ensemble.pure(BELL)) == 1.0

    def test_naive_basis_readout_accepted_half_the_time(self):
        branches = collapse_branches(BELL, ProjPartition.finest(["0", "m"]))
        sigma = Ensemble(tuple((p, s) for p, s in branches.values()))
        assert project_accept_probability(BELL, sigma) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_garbage_bundle_matches_enumeration(self):
        # Four garbage branches plus the message branch: acceptance
        # 1/4 + 1/16 after a full basis readout.
        amps = {("m", "m"): INV_SQRT2}
        for i in range(4):
            amps[(f"g{i}", f"g{i}")] = 1.0 / math.sqrt(8.0)
        state = SparseState(amps)
        branches = collapse_branches(state, ProjPartition.finest(state.c_labels()))
        sigma = Ensemble(tuple((p, s) for p, s in branches.values()))
        assert project_accept_probability(state, sigma) == pytest.approx(
            0.3125, abs=1e-12
        )

    def test_zero_weight_member_is_skipped(self, monkeypatch):
        # A zero weight adds nothing, so its member's overlap is never taken.
        sigma = Ensemble(((0.0, SINGLE), (0.5, BELL), (0.5, SINGLE)))
        overlaps = []
        monkeypatch.setattr(states, "inner_product",
                            lambda a, b: overlaps.append(b) or inner_product(a, b))
        accept = project_accept_probability(BELL, sigma)
        assert len(overlaps) == 2 and overlaps[0] is BELL and overlaps[1] is SINGLE
        assert accept == project_accept_probability(BELL, Ensemble(sigma.members[1:]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cached_norms_match_the_uncached_formula_bit_for_bit(self, seed):
        # The formulas as written before norms were cached on the state;
        # every overlap, s and margin must keep its exact bits.
        def overlap(a, b):
            return abs(inner_product(a, b)) ** 2 / (
                inner_product(a, a).real * inner_product(b, b).real
            )

        def accept(reference, sigma):
            total = 0.0
            for q, state in sigma.members:
                if q != 0.0:
                    raw = abs(inner_product(reference, state)) ** 2
                    total += q * raw / (
                        inner_product(reference, reference).real
                        * inner_product(state, state).real
                    )
            return min(1.0, max(0.0, total))

        a, b = random_state(seed), random_state(seed + 1)
        sigma = random_ensemble(seed + 2, members=4)
        for x, y in [(a, b), (b, a), (a, a), (a, b)]:
            assert squared_overlap(x, y) == overlap(x, y)
        for _, member in sigma.members:
            assert squared_overlap(a, member) == overlap(a, member)
        assert project_accept_probability(a, sigma) == accept(a, sigma)
        assert project_accept_probability(b, sigma) == accept(b, sigma)


class TestSerialization:
    def test_round_trip_is_exact(self):
        state = random_state(99)
        again = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
        assert again.amps == state.amps

    def test_dict_form_is_sorted_rows(self):
        data = state_to_dict(BELL)
        assert data["amps"] == sorted(data["amps"])
        assert data["amps"][0][:2] == ["0", "0"]

    @pytest.mark.parametrize("total", [0.81, 1.0 + 1e-7], ids=["0.81", "1+1e-7"])
    def test_loader_rejects_bad_normalization(self, total):
        data = {"amps": [["a", "a", math.sqrt(total), 0.0]]}
        with pytest.raises(ValueError, match="not normalized"):
            state_from_dict(data)

    def test_loader_rejects_duplicate_keys(self):
        data = {"amps": [["a", "a", INV_SQRT2, 0.0], ["a", "a", INV_SQRT2, 0.0]]}
        with pytest.raises(ValueError, match="duplicate"):
            state_from_dict(data)

    # The size of a k0 = 16 seal, and of its basis cheat's returned mixture.
    def test_rows_at_the_cap_load(self):
        rows = [[f"b{i}", f"c{i}", 2.0 ** -8, 0.0] for i in range(SUPPORT_CAP)]
        assert len(state_from_dict({"amps": rows}).amps) == SUPPORT_CAP

    def test_members_at_the_cap_load(self):
        members = [{"weight": 2.0 ** -16, "state": {"amps": [[f"b{i}", f"c{i}", 1.0, 0.0]]}}
                   for i in range(SUPPORT_CAP)]
        assert len(ensemble_from_dict({"members": members}).members) == SUPPORT_CAP

    def test_json_text_is_stable(self):
        assert json.dumps(state_to_dict(BELL)) == json.dumps(state_to_dict(BELL))
        parsed = json.loads(json.dumps(state_to_dict(BELL)))
        assert parsed["amps"][0][2] == INV_SQRT2


class TestRandomUnitary:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_output_is_unitary(self, seed):
        labels = [f"c{i}" for i in range(7)]
        u = random_unitary(labels, seed)
        defect = np.abs(u.matrix.conj().T @ u.matrix - np.eye(7)).max()
        assert defect < 1e-12

    def test_seeded_draws_are_reproducible(self):
        labels = ["a", "b", "c"]
        u1 = random_unitary(labels, 42)
        u2 = random_unitary(labels, 42)
        assert np.array_equal(u1.matrix, u2.matrix)

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_stacked_draws_equal_single_draws(self, n):
        # One QR over the stack gives each slice the bits of its own draw, and
        # each generator is left where random_unitary leaves it.
        labels = [f"c{i}" for i in range(n)]
        rngs = [np.random.default_rng(seed) for seed in range(6)]
        stack = haar_unitaries(normal_block(rngs, n))
        for seed, (u, rng) in enumerate(zip(stack, rngs)):
            single_rng = np.random.default_rng(seed)
            assert np.array_equal(u, random_unitary(labels, single_rng).matrix)
            assert rng.random() == single_rng.random()

    def test_stacked_check_names_the_failing_slice(self):
        stack = haar_unitaries(normal_block([np.random.default_rng(seed) for seed in range(4)], 3))
        check_unitary(stack)
        stack[2] *= 1.01
        with pytest.raises(ValueError) as single:
            LocalUnitary(("a", "b", "c"), stack[2])
        with pytest.raises(ValueError) as stacked:
            check_unitary(stack)
        assert str(stacked.value) == str(single.value)
        assert str(single.value).startswith("matrix is not unitary (defect 2.01")
        stack[1, 0, 0] = math.nan
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(stack[:2])

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("seed", [0, 1, 7, 8191])
    def test_matches_gram_schmidt_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary([f"c{i}" for i in range(n)], rng)
        ref_rng = np.random.default_rng(seed)
        reference = gram_schmidt_unitary(n, ref_rng)
        assert np.abs(u.matrix - reference).max() < 1e-12
        # Both consume the same draws, so the generator's next draw agrees.
        assert rng.random() == ref_rng.random()
