import hashlib
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qseal.states
from qseal.adversary import basis_cheat
from qseal.harness import ConfigInvalid, ExperimentConfig
from qseal.oaep import (
    REFERENCE_MASTER_KEY,
    SUPPORT_CAP,
    DegenerateUWarning,
    LengthMismatch,
    OaepContext,
    OaepParams,
    OracleUnavailable,
    decode_preimage,
    encode,
    r_set,
    seal_oaep,
    token_payload,
    tu_overlap,
    unseal_oaep,
    useless_query_bound,
)
from qseal.protocols import verify_return
from qseal.states import Ensemble, ProjPartition, SparseState, measure_partition

GOLDEN_PATH = Path(__file__).parent / "data" / "oaep_golden.txt"


def golden_vector_lines(ctx, pairs):
    """Reference vectors, one "y_hex r_hex token_hex" line per (y, r) pair."""
    params = ctx.params
    yw = (params.n + 3) // 4
    rw = (params.k0 + 3) // 4
    lines = []
    for y, r in pairs:
        payload = token_payload(encode(y, r, ctx), params.k)
        lines.append(f"{y:0{yw}x} {r:0{rw}x} {payload:0{(params.k + 3) // 4}x}")
    return lines


def read_golden_vectors(path):
    rows = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.strip():
            y_hex, r_hex, token_hex = line.split()
            rows.append((int(y_hex, 16), int(r_hex, 16), int(token_hex, 16)))
    return rows


# Reference token map: the original concatenating hash expansion and Feistel,
# kept verbatim as an oracle that shares no code with qseal.oaep.
def _prf_bits(key: bytes, label: bytes, value: int, value_bits: int, out_bits: int) -> int:
    """Deterministic hash expansion of ``value`` to exactly ``out_bits`` bits."""
    if out_bits <= 0:
        return 0
    data = value.to_bytes(max(1, (value_bits + 7) // 8), "big")
    out = b""
    counter = 0
    while 8 * len(out) < out_bits:
        out += hashlib.sha256(
            key + b"|" + label + b"|" + counter.to_bytes(4, "big") + data
        ).digest()
        counter += 1
    return int.from_bytes(out, "big") >> (8 * len(out) - out_bits)


def _round_mix(key: bytes, rnd: int, value: int, value_bits: int, out_bits: int) -> int:
    return _prf_bits(key, b"round" + bytes([rnd]), value, value_bits, out_bits)


def _feistel_forward(key: bytes, k: int, x: int) -> int:
    wl, wr = k // 2, k - k // 2
    left, right = x >> wr, x & ((1 << wr) - 1)
    for rnd in range(4):
        left, right, wl, wr = (
            right,
            left ^ _round_mix(key, rnd, right, wr, wl),
            wr,
            wl,
        )
    return (left << wr) | right


def _feistel_inverse(key: bytes, k: int, x: int) -> int:
    widths = [(k // 2, k - k // 2)]
    for _ in range(4):
        wl, wr = widths[-1]
        widths.append((wr, wl))
    wl, wr = widths[-1]
    left, right = x >> wr, x & ((1 << wr) - 1)
    for rnd in reversed(range(4)):
        wl, wr = widths[rnd]
        left, right = right ^ _round_mix(key, rnd, left, wr, wl), left
    return (left << wr) | right


def _all_pairs(k0, n):
    return [(y, r) for y in range(1 << n) for r in range(1 << k0)]


def _seeded_pairs(k0, n, count, seed):
    rng = random.Random(seed)
    return [(rng.getrandbits(n), rng.getrandbits(k0)) for _ in range(count)]


class TestReferenceTokenMap:
    """G, H, encode and invert agree bit for bit with the reference above."""

    @pytest.mark.parametrize(
        "k0, n, pairs",
        [
            (1, 8, _all_pairs(1, 8)),
            (3, 6, _all_pairs(3, 6)),
            # G emits 600 bits and the Feistel halves are 302 bits: several
            # digests per hash.
            (4, 600, _seeded_pairs(4, 600, 64, seed=600)),
            (16, 16, _seeded_pairs(16, 16, 256, seed=16)),
        ],
        ids=["k0=1,n=8", "k0=3,n=6", "k0=4,n=600", "k0=16,n=16"],
    )
    @pytest.mark.parametrize("master_key", [REFERENCE_MASTER_KEY, b"\xa5" * 32], ids=["ref", "a5"])
    def test_matches_reference(self, k0, n, pairs, master_key):
        captcha_key, g_key, h_key = (
            hashlib.sha256(master_key + tag).digest() for tag in (b"|captcha", b"|G", b"|H")
        )
        ctx = OaepContext.create(k0=k0, n=n, master_key=master_key)
        k = n + k0
        for y, r in pairs:
            g = _prf_bits(g_key, b"G", r, k0, n)
            s = y ^ g
            h = _prf_bits(h_key, b"H", s, n, k0)
            x = (s << k0) | (r ^ h)
            payload = _feistel_forward(captcha_key, k, x)
            assert (ctx.g(r), ctx.h(s)) == (g, h)
            token = encode(y, r, ctx)
            assert token_payload(token, k) == payload
            assert ctx.human.invert(token) == _feistel_inverse(captcha_key, k, payload) == x


class TestParams:
    def test_accepts_consistent_sizes(self):
        p = OaepParams(k=24, k0=8, n=16)
        assert (p.k, p.k0, p.n) == (24, 8, 16)

    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(ValueError):
            OaepParams(k=24, k0=8, n=15)

    def test_rejects_oversized_pad(self):
        with pytest.raises(ValueError):
            OaepParams(k=33, k0=17, n=16)

    def test_rejects_empty_message_width(self):
        with pytest.raises(ValueError):
            OaepParams(k=8, k0=8, n=0)


class TestCaptchaFunction:
    def test_injective_exhaustively(self):
        ctx = OaepContext.create(k0=4, n=8)  # k = 12
        tokens = {ctx.captcha.forward(x) for x in range(1 << 12)}
        assert len(tokens) == 1 << 12

    def test_forward_range_checked(self):
        ctx = OaepContext.create(k0=4, n=8)
        with pytest.raises(LengthMismatch):
            ctx.captcha.forward(1 << 12)

    def test_tokens_are_opaque_strings(self):
        ctx = OaepContext.create(k0=4, n=8)
        token = ctx.captcha.forward(123)
        assert token.startswith("img_")
        assert token_payload(token, 12) < (1 << 12)

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError):
            token_payload("not_a_token", 12)

    def test_different_keys_different_maps(self):
        a = OaepContext.create(k0=4, n=8, master_key=b"a" * 32)
        b = OaepContext.create(k0=4, n=8, master_key=b"b" * 32)
        tokens_a = [a.captcha.forward(x) for x in range(16)]
        tokens_b = [b.captcha.forward(x) for x in range(16)]
        assert tokens_a != tokens_b


class TestEncode:
    def test_round_trip_exhaustive_small(self):
        ctx = OaepContext.create(k0=4, n=6)
        seen = set()
        for y in range(1 << 6):
            for r in range(1 << 4):
                token = encode(y, r, ctx)
                assert token not in seen
                seen.add(token)
                x = ctx.human.invert(token)
                assert decode_preimage(ctx, x) == (y, r)

    @given(y=st.integers(0, 2**16 - 1), r=st.integers(0, 2**8 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_reference_params(self, y, r):
        ctx = OaepContext.create(k0=8, n=16)
        x = ctx.human.invert(encode(y, r, ctx))
        assert decode_preimage(ctx, x) == (y, r)

    def test_tokens_distinct_across_pads(self):
        ctx = OaepContext.create(k0=10, n=6)
        tokens = {encode(33, r, ctx) for r in range(1 << 10)}
        assert len(tokens) == 1 << 10

    def test_length_mismatch(self):
        ctx = OaepContext.create(k0=4, n=8)
        with pytest.raises(LengthMismatch):
            encode(1 << 8, 0, ctx)
        with pytest.raises(LengthMismatch):
            encode(0, 1 << 4, ctx)

    def test_golden_vectors_frozen(self):
        ctx = OaepContext.create(k0=8, n=16)
        frozen = read_golden_vectors(GOLDEN_PATH)
        pairs = [(y, r) for y, r, _ in frozen]
        regenerated = golden_vector_lines(ctx, pairs)
        on_disk = [line.strip() for line in GOLDEN_PATH.read_text().splitlines() if line]
        assert regenerated == on_disk
        assert token_payload(encode(0, 0, ctx), 24) == 0x5EAB73


class TestSealOaep:
    def test_minimal_pad_gives_two_branches(self):
        ctx = OaepContext.create(k0=1, n=8)
        inst = seal_oaep(0x2B, ctx)
        assert len(inst.reference.amps) == 2
        for amp in inst.reference.amps.values():
            assert amp == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_reference_structure(self):
        ctx = OaepContext.create(k0=8, n=16)
        inst = seal_oaep(0x1234, ctx)
        assert len(inst.reference.amps) == 256
        norm = sum(abs(a) ** 2 for a in inst.reference.amps.values())
        assert norm == pytest.approx(1.0, abs=1e-9)
        for (pad_label, token), _ in inst.reference.amps.items():
            r = int(pad_label, 2)
            assert encode(0x1234, r, ctx) == token

    @pytest.mark.parametrize("k0", [1, 4, 8])
    def test_honest_return_fully_accepted(self, k0):
        ctx = OaepContext.create(k0=k0, n=8)
        inst = seal_oaep(0x5A, ctx)
        _, accept = verify_return(inst, Ensemble.pure(inst.reference), 0)
        assert accept == 1.0

    def test_all_token_outcomes_marked_garbage(self):
        inst = seal_oaep(1, OaepContext.create(k0=2, n=4))
        assert set(inst.decode.values()) == {None}

    def test_message_range_checked(self):
        ctx = OaepContext.create(k0=4, n=8)
        with pytest.raises(LengthMismatch):
            seal_oaep(1 << 8, ctx)


class TestUnsealOaep:
    def test_recovers_message_on_every_branch(self):
        y = 0x9C
        ctx = OaepContext.create(k0=8, n=8)
        for r in range(256):
            x = ctx.human.invert(encode(y, r, ctx))
            assert decode_preimage(ctx, x) == (y, r)

    def test_sampled_unseal_matches_measured_branch(self):
        y = 0x31
        for seed in range(8):
            ctx = OaepContext.create(k0=4, n=8)
            inst = seal_oaep(y, ctx)
            token, _, _ = measure_partition(
                inst.reference, ProjPartition.finest(inst.reference.c_labels()), seed
            )
            got_y, got_r = unseal_oaep(inst, ctx, seed)
            assert got_y == y
            assert encode(y, got_r, ctx) == token

    def test_query_log_grows_by_one_per_unseal(self):
        ctx = OaepContext.create(k0=4, n=8)
        inst = seal_oaep(7, ctx)
        assert len(ctx.human.query_log) == 0
        for expected in (1, 2, 3):
            unseal_oaep(inst, ctx, rng_seed=expected)
            assert len(ctx.human.query_log) == expected

    def test_log_snapshot_is_immutable(self):
        ctx = OaepContext.create(k0=2, n=4)
        inst = seal_oaep(1, ctx)
        before = ctx.human.query_log
        unseal_oaep(inst, ctx, 0)
        assert len(before) == 0
        assert len(ctx.human.query_log) == 1

    def test_forward_only_context_cannot_unseal(self):
        sealing_ctx = OaepContext.create(k0=4, n=8)
        inst = seal_oaep(5, sealing_ctx)
        forward_only = OaepContext.create(k0=4, n=8, with_human=False)
        assert encode(5, 3, forward_only) == encode(5, 3, sealing_ctx)
        with pytest.raises(OracleUnavailable):
            unseal_oaep(inst, forward_only, 0)

    def test_wrong_protocol_rejected(self):
        from qseal.protocols import seal_naive

        ctx = OaepContext.create(k0=4, n=8)
        with pytest.raises(ValueError):
            unseal_oaep(seal_naive("M"), ctx, 0)


class TestUsefulPadSet:
    def test_empty_log_gives_empty_set(self):
        ctx = OaepContext.create(k0=4, n=8)
        assert r_set(ctx, 0) == set()

    def test_recomputed_from_log(self):
        ctx = OaepContext.create(k0=4, n=8)
        inst = seal_oaep(0xAB, ctx)
        _, r = unseal_oaep(inst, ctx, 3)
        assert r_set(ctx, 0xAB) == {r}

    def test_explicit_queries_accepted(self):
        ctx = OaepContext.create(k0=4, n=8, with_human=False)
        tokens = [encode(0xAB, r, ctx) for r in (2, 9)]
        assert r_set(ctx, 0xAB, queries=tokens) == {2, 9}

    def test_needs_a_log_or_queries(self):
        ctx = OaepContext.create(k0=4, n=8, with_human=False)
        with pytest.raises(OracleUnavailable):
            r_set(ctx, 0)


class TestProjectorOverlap:
    def test_empty_exclusion_gives_unit_overlap(self):
        inst = seal_oaep(0, OaepContext.create(k0=4, n=8, with_human=False))
        assert tu_overlap(inst, set()) == pytest.approx(1.0, abs=1e-12)

    def test_single_exclusion(self):
        inst = seal_oaep(0, OaepContext.create(k0=4, n=8, with_human=False))
        assert tu_overlap(inst, {3}) == pytest.approx(15.0 / 16.0, abs=1e-12)

    def test_full_exclusion_is_degenerate(self):
        inst = seal_oaep(0, OaepContext.create(k0=2, n=4, with_human=False))
        with pytest.warns(DegenerateUWarning):
            assert tu_overlap(inst, {0, 1, 2, 3}) == 0.0

    def test_out_of_range_pad_rejected(self):
        inst = seal_oaep(0, OaepContext.create(k0=2, n=4, with_human=False))
        with pytest.raises(ValueError):
            tu_overlap(inst, {4})

    @pytest.mark.parametrize("k0", [4, 6, 8])
    @pytest.mark.parametrize("size", [0, 1, 4])
    def test_state_computation_matches_closed_form(self, k0, size):
        ctx = OaepContext.create(k0=k0, n=8, with_human=False)
        inst = seal_oaep(17, ctx)
        excluded = set(range(size))
        assert tu_overlap(inst, excluded) == pytest.approx(
            1.0 - useless_query_bound(ctx, excluded), abs=1e-12
        )


class TestUselessQueryBound:
    def test_closed_form_values(self):
        ctx8 = OaepContext.create(k0=8, n=8, with_human=False)
        ctx12 = OaepContext.create(k0=12, n=8, with_human=False)
        assert useless_query_bound(ctx8, set(range(4))) == 4 / 256
        assert useless_query_bound(ctx12, set(range(4))) == 4 / 4096
        assert useless_query_bound(ctx8, set()) == 0.0

    def test_halves_per_pad_bit(self):
        previous = None
        for k0 in range(4, 11):
            ctx = OaepContext.create(k0=k0, n=8, with_human=False)
            value = useless_query_bound(ctx, set(range(4)))
            if previous is not None:
                assert value == pytest.approx(previous / 2.0, abs=1e-12)
            previous = value

    def test_accepts_params_directly(self):
        assert useless_query_bound(OaepParams(k=12, k0=4, n=8), {0}) == 1 / 16


class TestBasisCheatOnSealedTokens:
    @pytest.mark.parametrize("k0", [2, 4, 8])
    def test_detection_is_exponentially_close_to_one(self, k0):
        ctx = OaepContext.create(k0=k0, n=8, with_human=False)
        report = basis_cheat(seal_oaep(0x11, ctx))
        assert report.s == pytest.approx(1.0 - 2.0**-k0, abs=1e-12)
        assert report.p == 0.0
        assert report.bound == 1.0
        assert report.margin >= -1e-9

    def test_reference_norm_is_summed_once(self, monkeypatch):
        # Re-summing <ref|ref> for every branch makes the attack
        # O(support^2); each state's norm must be summed at most once.
        inst = seal_oaep(0x11, OaepContext.create(k0=8, n=8, with_human=False))
        inner_product = qseal.states.inner_product
        self_paired = []

        def counting(a, b):
            if a is b:
                self_paired.append(a)
            return inner_product(a, b)

        monkeypatch.setattr(qseal.states, "inner_product", counting)
        report = basis_cheat(inst)
        assert sum(state is inst.reference for state in self_paired) <= 1
        assert len(self_paired) <= 1 + len(report.outcome_table)


@pytest.fixture(scope="module")
def sealed_at_cap():
    """One instance whose support is exactly ``SUPPORT_CAP``, sealed once."""
    return seal_oaep(0x11, OaepContext.create(k0=16, n=8, with_human=False))


class TestSupportCap:
    def test_support_fills_the_cap(self, sealed_at_cap):
        assert len(sealed_at_cap.reference.amps) == SUPPORT_CAP
        assert len(sealed_at_cap.reference.c_labels()) == SUPPORT_CAP

    def test_basis_cheat_is_exact_at_the_cap(self, sealed_at_cap):
        report = basis_cheat(sealed_at_cap)
        q = 2.0**-16
        assert len(report.outcome_table) == SUPPORT_CAP
        assert max(abs(prob - q) for _, prob, _ in report.outcome_table) <= 1e-12
        assert max(abs(acc - q) for _, _, acc in report.outcome_table) <= 1e-12
        assert report.s == pytest.approx(1.0 - q, abs=1e-12)

    def test_one_bit_above_the_cap_is_rejected(self):
        ExperimentConfig(oaep_k0=(16,))
        with pytest.raises(ValueError):
            OaepContext.create(k0=17, n=8)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(oaep_k0=(17,))


class TestFootnoteCounterexample:
    def test_classical_branch_is_accepted_rarely_but_queries_are_useful(self):
        # Read the message (one oracle query), then hand back the collapsed
        # classical branch: acceptance is exactly one over the pad count,
        # yet the recorded query set is maximally useful.
        y = 0x77
        ctx = OaepContext.create(k0=8, n=8)
        inst = seal_oaep(y, ctx)
        got_y, r = unseal_oaep(inst, ctx, rng_seed=5)
        assert got_y == y
        branch = SparseState({(format(r, "08b"), encode(y, r, ctx)): 1.0})
        _, accept = verify_return(inst, Ensemble.pure(branch), 0)
        assert accept == pytest.approx(2.0**-8, abs=1e-12)
        useful = r_set(ctx, y)
        assert useful == {r}
        assert useless_query_bound(ctx, useful) == pytest.approx(
            2.0**-8, abs=1e-15
        )
