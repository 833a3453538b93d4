import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs_diff
from qseal.adversary import basis_cheat, optimal_post_collapse_response
from qseal.oaep import OaepContext, seal_oaep
from qseal.protocols import (
    DuplicatePicture,
    EmptyGarbageSet,
    LabelCollision,
    SealedInstance,
    TooFewPictures,
    honest_unseal,
    instance_from_dict,
    instance_to_dict,
    seal_garbage,
    seal_multipicture,
    seal_naive,
    verify_return,
)
from qseal.states import (
    Ensemble,
    ProjPartition,
    SparseState,
    collapse_branches,
    measure_partition,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def readout(inst):
    """The honest unseal's measurement: one outcome per active C label."""
    return ProjPartition.finest(inst.reference.c_labels())


def pictures(n):
    return [f"pic{i + 1}" for i in range(n)]


class TestSealNaive:
    def test_state_structure(self):
        inst = seal_naive("M", garbage="0")
        assert inst.protocol == "naive"
        assert set(inst.reference.amps) == {("0", "0"), ("M", "M")}
        for amp in inst.reference.amps.values():
            assert amp == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_decode_table(self):
        inst = seal_naive("M", garbage="0")
        assert inst.decode == {"M": "M", "0": None}

    def test_rejects_label_collision(self):
        with pytest.raises(LabelCollision):
            seal_naive("M", garbage="M")

    def test_rejects_empty_message(self):
        with pytest.raises(ValueError):
            seal_naive("")


class TestSealGarbage:
    def test_single_garbage_label_reduces_to_naive(self):
        a = seal_naive("M", garbage="g0")
        b = seal_garbage("M", ["g0"])
        assert max_abs_diff(a.reference, b.reference) < 1e-12

    def test_amplitude_split(self):
        inst = seal_garbage("M", [f"g{i}" for i in range(4)])
        assert inst.reference.amps[("M", "M")] == pytest.approx(INV_SQRT2, abs=1e-15)
        for i in range(4):
            assert inst.reference.amps[(f"g{i}", f"g{i}")] == pytest.approx(
                1.0 / math.sqrt(8.0), abs=1e-15
            )

    def test_detection_approaches_three_quarters(self):
        previous = 0.0
        for n_g in (1, 2, 4, 16, 64):
            report = basis_cheat(seal_garbage("M", [f"g{i}" for i in range(n_g)]))
            assert report.s == pytest.approx(0.75 - 1.0 / (4 * n_g), abs=1e-12)
            assert report.s > previous
            previous = report.s
        assert previous >= 0.746

    def test_rejects_empty_set(self):
        with pytest.raises(EmptyGarbageSet):
            seal_garbage("M", [])

    def test_rejects_collisions(self):
        with pytest.raises(LabelCollision):
            seal_garbage("M", ["g0", "g0"])
        with pytest.raises(LabelCollision):
            seal_garbage("M", ["g0", "M"])


class TestSealMultipicture:
    def test_two_pictures(self):
        inst = seal_multipicture(pictures(2))
        assert set(inst.reference.amps) == {("1", "pic1"), ("2", "pic2")}
        for amp in inst.reference.amps.values():
            assert amp == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_rejects_duplicates_and_short_lists(self):
        with pytest.raises(DuplicatePicture):
            seal_multipicture(["a", "a"])
        with pytest.raises(TooFewPictures):
            seal_multipicture(["a"])

    def test_honest_unseal_distribution_is_uniform(self):
        inst = seal_multipicture(pictures(4))
        _, _, dist = measure_partition(inst.reference, readout(inst), 0)
        assert set(dist) == set(pictures(4))
        for prob in dist.values():
            assert prob == pytest.approx(0.25, abs=1e-12)

    def test_honest_unseal_always_succeeds(self):
        inst = seal_multipicture(pictures(4))
        seen = set()
        for seed in range(64):
            message, success = honest_unseal(inst, seed)
            assert success and message in pictures(4)
            seen.add(message)
        assert seen == set(pictures(4))


class TestHonestUnseal:
    def test_naive_success_rate_within_binomial_noise(self):
        inst = seal_naive("M", garbage="0")
        trials = 2000
        wins = sum(honest_unseal(inst, seed)[1] for seed in range(trials))
        sigma = math.sqrt(0.25 / trials)
        assert abs(wins / trials - 0.5) <= 3 * sigma

    def test_naive_failure_returns_garbage_marker(self):
        inst = seal_naive("M", garbage="0")
        outcomes = {honest_unseal(inst, seed) for seed in range(64)}
        assert ("M", True) in outcomes
        assert (None, False) in outcomes

    def test_oaep_delegates_and_recovers_message(self):
        ctx = OaepContext.create(k0=4, n=8)
        inst = seal_oaep(0xA5, ctx)
        for seed in (0, 1, 2):
            message, success = honest_unseal(inst, seed)
            assert success
            assert message == format(0xA5, "08b")

    def test_multipicture_and_oaep_never_return_garbage(self):
        mp = seal_multipicture(pictures(3))
        assert all(honest_unseal(mp, seed)[1] for seed in range(32))
        inst = seal_oaep(3, OaepContext.create(k0=2, n=4))
        assert all(honest_unseal(inst, seed)[1] for seed in range(8))


class TestReadoutMatchesAllBranches:
    """The sampled readout is the one every branch's collapse would give."""

    @pytest.mark.parametrize(
        "inst",
        [
            seal_naive("M", garbage="0"),
            seal_garbage("M", [f"g{i}" for i in range(5)]),
            seal_multipicture(pictures(6)),
            seal_oaep(0x2D, OaepContext.create(k0=5, n=8, with_human=False)),
        ],
        ids=["naive", "garbage", "multipicture", "oaep"],
    )
    def test_measure_equals_collapse_for_seeds_0_to_7(self, inst):
        branches = collapse_branches(inst.reference, readout(inst))
        outcomes = sorted(branches)
        total = sum(branches[o][0] for o in outcomes)
        cumulative = np.cumsum([branches[o][0] for o in outcomes])
        for seed in range(8):
            draw = np.random.default_rng(seed).random() * total
            first_above = int(np.searchsorted(cumulative, draw, side="right"))
            expected = outcomes[min(first_above, len(outcomes) - 1)]
            outcome, post, dist = measure_partition(inst.reference, readout(inst), seed)
            assert outcome == expected
            assert post.amps == branches[expected][1].amps
            assert list(dist.items()) == [(o, prob) for o, (prob, _) in branches.items()]


class TestVerifyReturn:
    @pytest.mark.parametrize(
        "inst",
        [
            seal_naive("M", garbage="0"),
            seal_garbage("M", ["g0", "g1", "g2"]),
            seal_multipicture(pictures(5)),
            seal_oaep(9, OaepContext.create(k0=4, n=8)),
        ],
        ids=["naive", "garbage", "multipicture", "oaep"],
    )
    def test_honest_return_accepted_with_certainty(self, inst):
        believe, accept = verify_return(inst, Ensemble.pure(inst.reference), 0)
        assert accept == 1.0
        assert believe is True

    def test_naive_basis_readout_accepted_half_the_time(self):
        inst = seal_naive("M", garbage="0")
        branches = collapse_branches(inst.reference, readout(inst))
        returned = Ensemble(tuple((p, s) for p, s in branches.values()))
        _, accept = verify_return(inst, returned, 0)
        assert accept == pytest.approx(0.5, abs=1e-12)

    def test_optimal_cheat_on_ten_pictures(self):
        inst = seal_multipicture(pictures(10))
        accept, best = optimal_post_collapse_response(inst, "1")
        _, verified = verify_return(inst, Ensemble.pure(best), 0)
        assert verified == pytest.approx(0.1, abs=1e-12)
        assert verified == pytest.approx(accept, abs=1e-12)

    def test_belief_sampling_is_seeded(self):
        inst = seal_naive("M", garbage="0")
        branches = collapse_branches(inst.reference, readout(inst))
        returned = Ensemble(tuple((p, s) for p, s in branches.values()))
        beliefs = [verify_return(inst, returned, 11)[0] for _ in range(3)]
        assert len(set(beliefs)) == 1
        both = {verify_return(inst, returned, seed)[0] for seed in range(64)}
        assert both == {True, False}


class TestPostCollapseAcceptance:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_return_after_collapse_is_capped(self, seed):
        n = 4
        inst = seal_multipicture(pictures(n))
        rng = np.random.default_rng(seed)
        index = str(int(rng.integers(1, n + 1)))
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        returned = SparseState(
            {(index, p): complex(a) for p, a in zip(pictures(n), vec)}
        )
        _, accept = verify_return(inst, Ensemble.pure(returned), seed)
        assert accept <= 1.0 / n + 1e-9


EACH_PROTOCOL = pytest.mark.parametrize(
    "inst",
    [
        seal_naive("M", garbage="0"),
        seal_garbage("M", ["g0", "g1"]),
        seal_multipicture(pictures(3)),
        seal_oaep(77, OaepContext.create(k0=4, n=8)),
    ],
    ids=["naive", "garbage", "multipicture", "oaep"],
)


class TestSerialization:
    @EACH_PROTOCOL
    def test_json_round_trip_is_bit_exact(self, inst):
        text = json.dumps(instance_to_dict(inst))
        again = instance_from_dict(json.loads(text))
        assert again.protocol == inst.protocol
        assert again.params == inst.params
        assert again.reference.amps == inst.reference.amps
        assert again.decode == inst.decode

    @EACH_PROTOCOL
    def test_params_are_read_only(self, inst):
        key = next(iter(inst.params))
        with pytest.raises(TypeError):
            inst.params[key] = "changed"
        with pytest.raises(TypeError):
            del inst.params[key]
        assert not any(isinstance(v, (list, dict)) for v in inst.params.values())
        again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        with pytest.raises(TypeError):
            again.params[key] = "changed"

    def test_unknown_protocol_rejected(self):
        data = instance_to_dict(seal_naive("M"))
        data["protocol"] = "mystery"
        with pytest.raises(ValueError, match="unknown protocol"):
            instance_from_dict(data)

    def test_decode_mapping_two_outcomes_to_one_message_rejected(self):
        data = instance_to_dict(seal_garbage("M", ["g0", "g1"]))
        data["decode"]["g0"] = "M"
        with pytest.raises(ValueError, match="injective"):
            instance_from_dict(data)

    def test_decode_is_read_only(self):
        inst = seal_garbage("M", ["g0", "g1"])
        with pytest.raises(TypeError):
            inst.decode["g0"] = "M"
        assert basis_cheat(inst).p == pytest.approx(0.5, abs=1e-12)

    def test_decode_is_copied_from_the_caller(self):
        sealed = seal_garbage("M", ["g0", "g1"])
        decode = dict(sealed.decode)
        inst = SealedInstance(sealed.protocol, sealed.reference, decode, sealed.params)
        decode["g0"] = "M"
        assert inst.decode == sealed.decode
        assert basis_cheat(inst).p == pytest.approx(0.5, abs=1e-12)

    def test_reloaded_instance_still_verifies(self):
        inst = seal_naive("M", garbage="0")
        again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        _, accept = verify_return(again, Ensemble.pure(again.reference), 0)
        assert accept == 1.0
