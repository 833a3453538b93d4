import hashlib
import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qseal.oaep
import qseal.states
from qseal.adversary import basis_cheat, proof_chain
from qseal.harness import ConfigInvalid, ExperimentConfig
from qseal.oaep import (
    REFERENCE_MASTER_KEY,
    SUPPORT_CAP,
    DegenerateUWarning,
    OaepContext,
    OaepParams,
    decode_preimage,
    encode,
    r_set,
    seal_oaep,
    sealed_params,
    token_payload,
    tu_overlap,
    unseal_oaep,
    useless_query_bound,
)
from conftest import oracle_readout
from conftest import tu_overlap as oracle_tu_overlap
from qseal.protocols import OAEP, SealedInstance, honest_unseal, verify_return
from qseal.states import PRUNE_TOL, Ensemble, SparseState, sample_readout

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
            # Digest boundaries: G emits 256 bits (one digest) or 257 (two);
            # the wider Feistel half is 256 bits (k = 512) or 257 (k = 513).
            (8, 256, _seeded_pairs(8, 256, 64, seed=256)),
            (8, 257, _seeded_pairs(8, 257, 64, seed=257)),
            (16, 496, _seeded_pairs(16, 496, 64, seed=496)),
            (16, 497, _seeded_pairs(16, 497, 64, seed=497)),
        ],
        ids=["k0=1,n=8", "k0=3,n=6", "k0=4,n=600", "k0=16,n=16",
             "k0=8,n=256", "k0=8,n=257", "k0=16,n=496", "k0=16,n=497"],
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


class TestTokenLayout:
    """``encode`` inlines the token map only for value widths of 1, 2, 4 or 8
    bytes and outputs of at most 64 bits; elsewhere it goes through g, h and f."""

    @staticmethod
    def inline_expected(k0, n):
        k = k0 + n
        inputs, outputs = (k0, n, k - k // 2, k // 2), (n, k0, k // 2, k - k // 2)
        return all(-(-bits // 8) in (1, 2, 4, 8) for bits in inputs) and max(outputs) <= 64

    @pytest.mark.parametrize(
        "k0, n",
        [
            (8, 8),    # every value 1 byte
            (1, 7),    # Feistel halves of 4 bits, H's value 1 byte
            (16, 16),  # every value 2 bytes
            (9, 16),   # G's value 2 bytes, halves of 12 and 13 bits
            (16, 24),  # H's value 3 bytes
            (8, 40),   # H's value 5 bytes, halves of 24 bits (3 bytes)
            (1, 63),   # halves of 32 bits (4 bytes), H's value 8 bytes
            (2, 62),   # as above with a 2-bit pad
            (16, 48),  # halves of 32 bits, H's value 6 bytes
            (16, 64),  # G outputs 64 bits, halves of 40 bits (5 bytes)
            (16, 65),  # G outputs 65 bits, H's value 9 bytes
            (8, 120),  # halves of 64 bits (8 bytes, 64-bit outputs), G outputs 120 bits
        ],
    )
    def test_matches_g_h_and_forward(self, k0, n):
        ctx = OaepContext.create(k0=k0, n=n, with_human=False)
        for y, r in _seeded_pairs(k0, n, 64, seed=k0 * 1000 + n) + [(0, 0), ((1 << n) - 1, (1 << k0) - 1)]:
            s = y ^ ctx.g(r)
            assert encode(y, r, ctx) == ctx.captcha.forward((s << k0) | (r ^ ctx.h(s)))

    def test_inline_exactly_where_the_rule_says(self):
        inline = {(k0, n) for k0 in range(1, 17) for n in range(1, 130)
                  if OaepContext.create(k0=k0, n=n, with_human=False)._layout is not None}
        assert inline == {(k0, n) for k0 in range(1, 17) for n in range(1, 130)
                          if self.inline_expected(k0, n)}
        assert (1, 63) in inline and (16, 16) in inline and (16, 64) not in inline


class TestPadLabels:
    """``_pad_labels`` joins formatted halves into the labels ``format`` gives."""

    @pytest.mark.parametrize("k0", range(1, 17))
    def test_every_pad(self, k0):
        expected = [format(r, f"0{k0}b") for r in range(1 << k0)]
        assert qseal.oaep._pad_labels(k0) == expected
        assert qseal.oaep._pad_labels(k0, range(1 << k0)) == expected

    def test_no_pads(self):
        assert qseal.oaep._pad_labels(5, set()) == []

    @pytest.mark.parametrize("k0", [1, 2, 7, 16])
    def test_seeded_pads_in_random_order(self, k0):
        rng = random.Random(k0)
        pads = rng.sample(range(1 << k0), min(1 << k0, 200))
        assert qseal.oaep._pad_labels(k0, pads) == [format(r, f"0{k0}b") for r in pads]
        assert qseal.oaep._pad_labels(k0, set(pads)) == [format(r, f"0{k0}b") for r in set(pads)]


class _CountingHashlib:
    """Stands in for ``qseal.oaep``'s ``hashlib`` and counts sha256 calls."""

    def __init__(self):
        self.sha256_calls = 0

    def sha256(self, data=b""):
        self.sha256_calls += 1
        return hashlib.sha256(data)


@pytest.mark.parametrize(
    "k0, n, digests",
    [(6, 8, 6), (4, 600, 3 + 1 + 4 * 2)],
    ids=["one-digest-hashes", "k0=4,n=600"],
)
def test_seal_counts_every_digest_and_one_encode_per_pad(monkeypatch, k0, n, digests):
    # A tracer counts the token map's work by swapping this module global after
    # the context exists, and by wrapping encode: every digest must go through
    # the global at call time, and every pad through one encode call.
    ctx = OaepContext.create(k0=k0, n=n, with_human=False)
    plain = seal_oaep(5, ctx)
    counting, pads = _CountingHashlib(), []

    def counted_encode(y, r, ctx):
        pads.append(r)
        return encode(y, r, ctx)

    monkeypatch.setattr(qseal.oaep, "hashlib", counting)
    monkeypatch.setattr(qseal.oaep, "encode", counted_encode)
    counted = seal_oaep(5, ctx)
    assert pads == list(range(1 << k0))
    assert counting.sha256_calls == digests * (1 << k0)
    assert list(counted.reference.amps.items()) == list(plain.reference.amps.items())
    assert list(counted.decode.items()) == list(plain.decode.items())


class TestParams:
    def test_accepts_consistent_sizes(self):
        p = OaepParams(k0=8, n=16)
        assert (p.k0, p.n) == (8, 16)
        assert p.k == 8 + 16

    def test_rejects_oversized_pad(self):
        with pytest.raises(ValueError):
            OaepParams(k0=17, n=16)

    def test_rejects_empty_message_width(self):
        with pytest.raises(ValueError):
            OaepParams(k0=8, n=0)


class TestCaptchaFunction:
    def test_injective_exhaustively(self):
        ctx = OaepContext.create(k0=4, n=8)  # k = 12
        tokens = {ctx.captcha.forward(x) for x in range(1 << 12)}
        assert len(tokens) == 1 << 12

    def test_forward_range_checked(self):
        ctx = OaepContext.create(k0=4, n=8)
        with pytest.raises(ValueError, match="input must be a 12-bit value"):
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
        with pytest.raises(ValueError, match="y must be an 8-bit value"):
            encode(1 << 8, 0, ctx)
        with pytest.raises(ValueError, match="r must be a 4-bit value"):
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
        with pytest.raises(ValueError, match="y must be an 8-bit value"):
            seal_oaep(1 << 8, ctx)

    def test_b_labels_are_the_formatted_pads_in_pad_order(self):
        inst = seal_oaep(0x3C, OaepContext.create(k0=7, n=8, with_human=False))
        assert [b for b, _ in inst.reference.amps] == [format(r, "07b") for r in range(128)]


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
            token = sample_readout(inst.reference, seed)
            got_y, got_r = unseal_oaep(inst, ctx, seed)
            assert got_y == y
            assert encode(y, got_r, ctx) == token

    def test_wrong_key_is_caught(self):
        inst = seal_oaep(0x31, OaepContext.create(k0=4, n=8))
        wrong = OaepContext.create(k0=4, n=8, master_key=bytes([0x11]) * 32)
        for seed in range(8):
            with pytest.raises(ValueError, match="does not decode to its own pad"):
                unseal_oaep(inst, wrong, seed)

    @pytest.mark.parametrize(
        "entry, value, names",
        [
            ("k0", ..., "params.k0"),
            ("k0", "4", "params.k0"),
            ("k0", True, "params.k0"),
            ("n", 0, "params.n"),
            ("n", 8.0, "params.n"),
            ("key", "00zz", "params.key"),
            ("key", 5, "params.key"),
        ],
        ids=["missing-k0", "text-k0", "boolean-k0", "zero-n", "float-n", "bad-hex-key", "number-key"],
    )
    def test_sealed_params_name_the_bad_entry(self, entry, value, names):
        inst = seal_oaep(0x31, OaepContext.create(k0=4, n=8, with_human=False))
        params = dict(inst.params)
        if value is ...:
            del params[entry]
        else:
            params[entry] = value
        bad = SealedInstance(inst.protocol, inst.reference, inst.decode, params)
        assert sealed_params(inst) == (4, 8, REFERENCE_MASTER_KEY)
        for read in (sealed_params, lambda i: honest_unseal(i, 0), lambda i: tu_overlap(i, set())):
            with pytest.raises(ValueError, match=names):
                read(bad)

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
        with pytest.raises(ValueError, match="context has no inversion access"):
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
        with pytest.raises(ValueError, match="context has no oracle log to scan"):
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


def _hand_built(amps, k0, n=8):
    """An OAEP instance over explicit (pad label, token) amplitudes."""
    params = {"k": k0 + n, "k0": k0, "n": n, "key": REFERENCE_MASTER_KEY.hex(), "y": 0}
    decode = {c: None for _, c in amps}
    return SealedInstance(OAEP, SparseState(amps), decode, params)


def _random_phases(k0, seed, pads=None):
    """Random complex amplitudes on the given pads (default all), normalized."""
    rng = np.random.default_rng(seed)
    pads = range(1 << k0) if pads is None else pads
    vec = rng.normal(size=len(pads)) + 1j * rng.normal(size=len(pads))
    vec /= np.linalg.norm(vec)
    return {(format(r, f"0{k0}b"), f"img_{r:04x}"): complex(a) for r, a in zip(pads, vec)}


def _outcome(call, inst, excluded):
    """(value, warning categories, error message) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = call(inst, excluded), None
        except ValueError as exc:
            value, error = None, str(exc)
    return value, [w.category for w in caught], error


class TestTuOverlapMatchesOracle:
    """``tu_overlap`` returns the bits the state-building version returned."""

    @staticmethod
    def same(inst, excluded):
        got = _outcome(tu_overlap, inst, excluded)
        assert got == _outcome(oracle_tu_overlap, inst, excluded)
        return got

    @pytest.mark.parametrize("k0", range(1, 11))
    def test_sealed_instances(self, k0):
        rng = random.Random(k0)
        inst = seal_oaep(rng.randrange(256), OaepContext.create(k0=k0, n=8, with_human=False))
        support = 1 << k0
        for size in (0, 1, support // 2, support - 1):
            self.same(inst, set(rng.sample(range(support), size)))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_phases(self, seed):
        inst = _hand_built(_random_phases(5, seed), 5)
        rng = random.Random(seed)
        for size in (0, 1, 3, 16, 31):
            self.same(inst, set(rng.sample(range(32), size)))

    def test_norm_of_every_pad_at_the_cap(self):
        # 65,536 random squared moduli, so an order-dependent norm would show:
        # the oracle's norm is their exact sum, rounded once.
        k0 = SUPPORT_CAP.bit_length() - 1
        inst = _hand_built(_random_phases(k0, 16), k0)
        for excluded in (set(), {0, 1, 2}):
            self.same(inst, excluded)

    def test_excluded_pads_missing_from_the_reference(self):
        inst = _hand_built(_random_phases(4, 7, pads=[1, 2, 5, 9, 14]), 4)
        for excluded in ({0, 3}, {0, 1, 3, 15}, {2, 4, 6, 8, 10, 12}):
            value, _, error = self.same(inst, excluded)
            assert value is not None and error is None

    def test_amplitude_at_the_prune_tolerance(self):
        # A reference norm just above 1 lets an amplitude above PRUNE_TOL
        # renormalize to exactly PRUNE_TOL, which is kept.
        scale = math.sqrt(1.0 + 4e-10)
        amps = [(key, a * scale) for key, a in _random_phases(3, 11, pads=[0, 1, 3, 4]).items()]
        tiny_key, tiny = ("010", "img_0002"), PRUNE_TOL * scale
        for _ in range(4):  # at most a few ulps of tiny away
            trial = dict(amps[:2] + [(tiny_key, tiny)] + amps[2:])
            norm = math.sqrt(math.fsum(abs(a) ** 2 for a in trial.values()))
            if tiny / norm == PRUNE_TOL:
                break
            tiny = math.nextafter(tiny, 0.0 if tiny / norm > PRUNE_TOL else 1.0)
        else:
            pytest.fail("no amplitude renormalizes to exactly PRUNE_TOL")
        inst = _hand_built(trial, 3)
        assert tiny_key in inst.reference.amps
        for excluded in (set(), {5}):
            self.same(inst, excluded)

    def test_amplitude_pruned_after_renormalizing(self):
        # A norm just above 1 puts the middle amplitude just under PRUNE_TOL.
        amps = {(format(r, "03b"), f"img_{r:04x}"): 0.5 for r in range(4)}
        amps[("001", "img_0001")] = PRUNE_TOL
        amps[("000", "img_0000")] = math.sqrt(0.5 + 1e-10)
        amps[("011", "img_0003")] = 0.5j
        inst = _hand_built(amps, 3)
        assert inst.reference.amps[("001", "img_0001")] == PRUNE_TOL
        for excluded in (set(), {5}, {2}):
            self.same(inst, excluded)

    def test_error_paths(self):
        inst = seal_oaep(3, OaepContext.create(k0=3, n=8, with_human=False))
        _, _, error = self.same(inst, {8, 9})
        assert error == "excluded pads out of range: [8, 9]"
        assert self.same(inst, set(range(8))) == (0.0, [DegenerateUWarning], None)
        partial = _hand_built(_random_phases(3, 5, pads=[1, 6]), 3)
        _, _, error = self.same(partial, {1, 6})
        assert error == "state is not normalized: sum of squared moduli is 0.0"

    def test_excluded_pad_with_two_tokens(self):
        amps = {(format(r, "03b"), f"img_{r:04x}"): 1.0 / 3.0 for r in range(8)}
        amps[("010", "img_0102")] = 1.0 / 3.0
        inst = _hand_built(amps, 3)
        value, _, _ = self.same(inst, {2})
        # Both of pad 2's amplitudes drop: 7 of 9 equal branches are left.
        assert value == pytest.approx(7.0 / 9.0, abs=1e-12)

    def test_label_of_the_wrong_width_is_never_excluded(self):
        amps = {(format(r, "03b"), f"img_{r:04x}"): 1.0 / 3.0 for r in range(8)}
        amps[("0101", "img_0105")] = 1.0 / 3.0
        inst = _hand_built(amps, 3)
        value, _, _ = self.same(inst, {5})
        assert value == pytest.approx(8.0 / 9.0, abs=1e-12)
        value, _, _ = self.same(inst, {0, 1, 2, 3, 4, 6, 7})
        assert value == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_seeded_cuts_at_the_cap(self, sealed_at_cap):
        rng = random.Random(SUPPORT_CAP)
        for size in (1, 1 << 10, 1 << 15):
            value, _, error = self.same(sealed_at_cap, set(rng.sample(range(SUPPORT_CAP), size)))
            assert value is not None and error is None


def test_tu_overlap_builds_no_state(monkeypatch):
    inst = seal_oaep(0x5A, OaepContext.create(k0=8, n=8, with_human=False))
    excluded = set(range(0, 256, 3))
    expected = oracle_tu_overlap(inst, excluded)

    def forbidden(*args, **kwargs):
        raise AssertionError("tu_overlap must not build a state or call squared_overlap")

    monkeypatch.setattr(qseal.oaep, "SparseState", forbidden)
    monkeypatch.setattr(qseal.oaep, "squared_overlap", forbidden)
    assert tu_overlap(inst, excluded) == expected


class TestUselessQueryBound:
    def test_closed_form_values(self):
        ctx8 = OaepContext.create(k0=8, n=8, with_human=False)
        ctx12 = OaepContext.create(k0=12, n=8, with_human=False)
        assert useless_query_bound(ctx8, set(range(4))) == 4 / 256
        assert useless_query_bound(ctx12, set(range(4))) == 4 / 4096
        assert useless_query_bound(ctx8, set()) == 0.0

    @pytest.mark.parametrize("pad", [99, -1])
    def test_pad_outside_the_pad_space_rejected(self, pad):
        ctx = OaepContext.create(k0=4, n=8, with_human=False)
        inst = seal_oaep(0, ctx)
        message = re.escape(f"excluded pads out of range: [{pad}]")
        with pytest.raises(ValueError, match=message):
            useless_query_bound(ctx, {pad})
        with pytest.raises(ValueError, match=message):
            tu_overlap(inst, {3, pad})
        with pytest.raises(ValueError, match=re.escape("out of range: [-1, 99]")):
            useless_query_bound(ctx, {-1, 3, 99})

    def test_halves_per_pad_bit(self):
        previous = None
        for k0 in range(4, 11):
            ctx = OaepContext.create(k0=k0, n=8, with_human=False)
            value = useless_query_bound(ctx, set(range(4)))
            if previous is not None:
                assert value == pytest.approx(previous / 2.0, abs=1e-12)
            previous = value


class TestBasisCheatOnSealedTokens:
    @pytest.mark.parametrize("k0", [2, 4, 8])
    def test_detection_is_exponentially_close_to_one(self, k0):
        ctx = OaepContext.create(k0=k0, n=8, with_human=False)
        report = basis_cheat(seal_oaep(0x11, ctx))
        assert report.s == pytest.approx(1.0 - 2.0**-k0, abs=1e-12)
        assert report.p == 0.0
        assert report.bound == 1.0
        assert report.margin >= -1e-12

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


@pytest.fixture(scope="module")
def cheat_at_cap(sealed_at_cap):
    """The basis cheat on ``sealed_at_cap``, run once."""
    return basis_cheat(sealed_at_cap)


class TestSupportCap:
    def test_support_fills_the_cap(self, sealed_at_cap):
        assert len(sealed_at_cap.reference.amps) == SUPPORT_CAP
        assert len(sealed_at_cap.reference.c_labels()) == SUPPORT_CAP

    def test_basis_cheat_is_exact_at_the_cap(self, cheat_at_cap):
        report = cheat_at_cap
        q = 2.0**-16
        assert len(report.outcome_table) == SUPPORT_CAP
        assert max(abs(prob - q) for _, prob, _ in report.outcome_table) <= 1e-12
        assert max(abs(acc - q) for _, _, acc in report.outcome_table) <= 1e-12
        assert report.s == pytest.approx(1.0 - q, abs=1e-12)

    def test_basis_cheat_chain_at_the_cap(self, sealed_at_cap, cheat_at_cap):
        # 2^16 equal masses: the root of sum_i q / (q + lambda) = 1 is 1 - q, exactly.
        chain = proof_chain(sealed_at_cap, cheat_at_cap)
        assert chain.trace_distance == 1.0 - 2.0**-16
        assert chain.holds()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_honest_unseal_at_the_cap(self, sealed_at_cap, seed):
        assert honest_unseal(sealed_at_cap, seed) == (format(0x11, "08b"), True)

    def test_sample_equals_partition_sampler_at_the_cap(self, sealed_at_cap):
        # The copied sampler takes about 0.3 s per draw here, so four seeds.
        for seed in range(4):
            assert sample_readout(sealed_at_cap.reference, seed) == oracle_readout(
                sealed_at_cap.reference, seed
            )

    def test_tokens_match_the_reference_at_the_cap(self, sealed_at_cap):
        captcha_key, g_key, h_key = (
            hashlib.sha256(REFERENCE_MASTER_KEY + tag).digest()
            for tag in (b"|captcha", b"|G", b"|H")
        )
        token_of = {int(pad, 2): token for pad, token in sealed_at_cap.reference.amps}
        for r in random.Random(16).sample(range(SUPPORT_CAP), 256):
            s = 0x11 ^ _prf_bits(g_key, b"G", r, 16, 8)
            t = r ^ _prf_bits(h_key, b"H", s, 8, 16)
            payload = _feistel_forward(captcha_key, 24, (s << 16) | t)
            assert token_payload(token_of[r], 24) == payload

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
