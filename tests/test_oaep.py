import hashlib
import json
import math
import os
import random
import re
import signal
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qseal.oaep
import qseal.states
from qseal.adversary import basis_cheat, predicate_cheat, proof_chain, strategy_report
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
from qseal.protocols import OAEP, SealedInstance, honest_unseal, instance_to_dict, verify_return
from qseal.states import (
    EXACT_TOL,
    PRUNE_TOL,
    Ensemble,
    LocalUnitary,
    SparseState,
    project_accept_probability,
    sample_readout,
)

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
    """``_pad_labels`` joins formatted halves into the labels ``format`` gives,
    so indexing it by pad number gives any pad's label."""

    @pytest.mark.parametrize("k0", range(1, 17))
    def test_every_pad(self, k0):
        expected = [format(r, f"0{k0}b") for r in range(1 << k0)]
        assert qseal.oaep._pad_labels(k0) == expected

    def test_no_pads(self):
        # A reference whose B labels are no pad's (wrong width, or not binary)
        # puts every row at the never-cut row 2**k0.
        amps = {(b, f"img_{i}"): 0.5 for i, b in enumerate(["0000", "000000", "0101x", "00 11"])}
        rows, _, _ = qseal.oaep._pad_view(_hand_built(amps, 5), 5)
        assert rows.tolist() == [32] * 4

    @pytest.mark.parametrize("k0", [1, 2, 7, 16])
    def test_seeded_pads_in_random_order(self, k0):
        rng = random.Random(k0)
        pads = rng.sample(range(1 << k0), min(1 << k0, 200))
        labels = qseal.oaep._pad_labels(k0)
        assert [labels[r] for r in pads] == [format(r, f"0{k0}b") for r in pads]
        assert [labels[r] for r in set(pads)] == [format(r, f"0{k0}b") for r in set(pads)]


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

    @pytest.mark.parametrize("call, message", [
        (lambda ctx: ctx.captcha.forward(1 << 12), "input must be a 12-bit value"),
        (lambda ctx: ctx.human.invert("img_1000"), "token payload out of range for k=12"),
        (lambda ctx: ctx.human.invert("img_-1"), "token payload out of range for k=12"),
        (lambda ctx: ctx.g(1 << 4), "r must be a 4-bit value"),
        (lambda ctx: ctx.g(-1), "r must be a 4-bit value"),
        (lambda ctx: ctx.h(1 << 8), "s must be a 8-bit value"),
        (lambda ctx: ctx.h(-1), "s must be a 8-bit value"),
        # Spellings of img_444 (y = 5, r = 3) and of img_44a that encode never emits,
        # then payloads that are not hex at all.
        *((lambda ctx, token=token: ctx.human.invert(token), f"malformed token {token!r}")
          for token in ("img_ 0x444 ", "img_+444", "img_4_44", "img_0444", "img_44A",
                        "not_a_token", "img_", "img_xyz")),
    ], ids=["forward-past-k", "invert-past-k", "invert-negative", "g-past-k0", "g-negative",
            "h-past-n", "h-negative", "invert-0x-spaced", "invert-plus", "invert-underscore",
            "invert-leading-zero", "invert-uppercase", "invert-not-a-token", "invert-empty-payload",
            "invert-not-hex"])
    def test_inputs_range_checked(self, call, message):
        ctx = OaepContext.create(k0=4, n=8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ctx)
        assert ctx.human.query_log == ()

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


def _usable_cpus(monkeypatch, cpus):
    """Make ``cpus`` the CPUs this process may run on, as the token map reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTokenMapSplit:
    """A seal's token map split across forked workers: the serial map's bits, and
    no child left behind, whether the seal returns or raises."""

    @pytest.mark.parametrize("k0, cpus", [(13, 1), (13, 2), (14, 3), (16, 3)])
    def test_the_serial_map_in_pad_order(self, monkeypatch, k0, cpus):
        ctx = OaepContext.create(k0=k0, n=16, with_human=False)
        serial = [encode(0xBEEF, r, ctx) for r in range(1 << k0)]
        _usable_cpus(monkeypatch, cpus)
        assert qseal.oaep._workers(1 << k0) == cpus
        inst = seal_oaep(0xBEEF, ctx)
        _assert_no_children()
        assert [c for _, c in inst.reference.amps] == serial
        assert list(inst.decode) == serial

    def test_worker_count(self, monkeypatch):
        floor = qseal.oaep._MIN_PADS_PER_PROCESS
        _usable_cpus(monkeypatch, 64)
        assert [qseal.oaep._workers(m) for m in (1, 1 << 12, 2 * floor - 1, 2 * floor, 1 << 16)] == [
            1, 1, 1, 2, min(64, (1 << 16) // floor)]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert qseal.oaep._workers(1 << 16) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert qseal.oaep._workers(1 << 16) == 1
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert qseal.oaep._workers(1 << 16) == 1

    @pytest.mark.parametrize("k0", [4, 12])
    def test_below_the_floor_nothing_forks(self, monkeypatch, k0):
        ctx = OaepContext.create(k0=k0, n=16, with_human=False)
        serial = [encode(3, r, ctx) for r in range(1 << k0)]

        def forbidden():
            raise AssertionError(f"a k0={k0} token map must not fork")

        _usable_cpus(monkeypatch, 64)
        monkeypatch.setattr(os, "fork", forbidden)
        assert list(seal_oaep(3, ctx).decode) == serial

    def test_a_bad_message_is_rejected_before_any_fork(self, monkeypatch):
        ctx = OaepContext.create(k0=14, n=8, with_human=False)
        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a bad y"))
        for call in (lambda: seal_oaep(1 << 8, ctx), lambda: r_set(ctx, 1 << 8, queries=["img_00"])):
            with pytest.raises(ValueError, match="y must be an 8-bit value"):
                call()

    @staticmethod
    def _seal_failing(monkeypatch, fault):
        """Seal k0 = 14 in two workers with ``fault(r)`` run before each pad's encode;
        return the exception the seal raised."""
        ctx = OaepContext.create(k0=14, n=16, with_human=False)
        _usable_cpus(monkeypatch, 2)

        def faulty_encode(y, r, ctx):
            return fault(r) or encode(y, r, ctx)

        monkeypatch.setattr(qseal.oaep, "encode", faulty_encode)
        with pytest.raises(Exception) as caught:
            seal_oaep(9, ctx)
        _assert_no_children()
        return caught.value

    def test_a_worker_that_raises(self, monkeypatch):
        def fault(r):
            if r == (1 << 14) - 1:
                raise RuntimeError("worker fault")

        error = self._seal_failing(monkeypatch, fault)
        assert type(error) is ValueError
        assert str(error) == "token map worker for pads 8192-16383 exited with status 1"

    def test_a_worker_that_is_killed(self, monkeypatch):
        def fault(r):
            if r == 8192:
                os.kill(os.getpid(), signal.SIGKILL)

        error = self._seal_failing(monkeypatch, fault)
        assert type(error) is ValueError
        assert str(error) == f"token map worker for pads 8192-16383 was killed by signal {int(signal.SIGKILL)}"

    def test_a_worker_that_returns_a_short_or_long_map(self, monkeypatch):
        error = self._seal_failing(monkeypatch, lambda r: "img_0\nimg_1" if r == 10000 else None)
        assert type(error) is ValueError
        assert str(error) == "token map worker for pads 8192-16383 returned 8193 tokens"

    def test_a_fault_in_the_callers_range(self, monkeypatch):
        def fault(r):
            if r == 100:
                raise KeyError("caller fault")

        error = self._seal_failing(monkeypatch, fault)
        assert type(error) is KeyError and error.args == ("caller fault",)


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
    """``tu_overlap`` is within ``ULPS`` ulps of its definition's exact value,
    and warns and raises alike."""

    # Each squared modulus rounds twice (hypot, then square), each mass and
    # the ratio once; the largest distance seen over these tests is 1 ulp.
    ULPS = 4

    @classmethod
    def same(cls, inst, excluded):
        value, caught, error = got = _outcome(tu_overlap, inst, excluded)
        exact, exact_caught, exact_error = _outcome(oracle_tu_overlap, inst, excluded)
        assert (caught, error) == (exact_caught, exact_error)
        if exact is None:
            assert value is None
        else:
            assert abs(value - exact) <= cls.ULPS * math.ulp(exact)
        return got

    def test_empty_cut_is_exactly_one(self):
        for inst in (seal_oaep(5, OaepContext.create(k0=5, n=8, with_human=False)),
                     _hand_built(_random_phases(6, 3), 6)):
            assert self.same(inst, set()) == (1.0, [], None)

    def test_dominant_amplitude_before_many_tiny_ones(self):
        # Each tiny square is under half an ulp of the dominant one, so sums
        # taken left to right from the dominant pad would drop them all and
        # return 1.0, about 18 ulps above the exact overlap.
        tiny = 1e-9
        amps = {(format(r, "012b"), f"img_{r:04x}"): tiny for r in range(1, 4096)}
        amps = {("0" * 12, "img_0000"): math.sqrt(1.0 - 4095 * tiny**2), **amps}
        value, _, _ = self.same(_hand_built(amps, 12), set(range(1, 2049)))
        assert value < 1.0 - 16 * math.ulp(1.0) / 2

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
    inst = _hand_built(_random_phases(8, 0x5A), 8)

    def forbidden(*args, **kwargs):
        raise AssertionError("tu_overlap must not build a state or call squared_overlap")

    monkeypatch.setattr(qseal.oaep, "SparseState", forbidden)
    monkeypatch.setattr(qseal.oaep, "squared_overlap", forbidden)
    TestTuOverlapMatchesOracle.same(inst, set(range(0, 256, 3)))


def _built_copy(inst):
    """``inst`` with a reference copied through ``SparseState``, so no pad view comes with it."""
    return SealedInstance(inst.protocol, SparseState(dict(inst.reference.amps)), inst.decode, inst.params)


class TestOnePadView:
    """The pad view ``seal_oaep`` records and the one ``_pad_view`` builds for any
    other instance are the same view: same pads, squares equal bit for bit, same
    total, and the same overlap bits from every cut."""

    @staticmethod
    def same_view(inst):
        k0 = inst.params["k0"]
        sealed_rows, sealed_squares, sealed_total = inst.__dict__["_pad_view"]
        built = _built_copy(inst)
        assert "_pad_view" not in built.__dict__
        rows, squares, total = qseal.oaep._pad_view(built, k0)
        assert sealed_rows is None and rows.tolist() == list(range(1 << k0))
        assert sealed_squares.tobytes() == squares.tobytes()
        assert sealed_total == total
        assert qseal.oaep._pad_view(built, k0)[1] is squares  # built once, then kept
        return built

    @staticmethod
    def same_cuts(inst, built, seed):
        rng, support = random.Random(seed), 1 << inst.params["k0"]
        for size in (0, 1, support // 2, support - 1):
            excluded = set(rng.sample(range(support), size))
            assert tu_overlap(inst, excluded).hex() == tu_overlap(built, excluded).hex()

    @pytest.mark.parametrize("k0", range(1, 11))
    def test_sealed_instances(self, k0):
        inst = seal_oaep(k0 * 7 % 256, OaepContext.create(k0=k0, n=8, with_human=False))
        self.same_cuts(inst, self.same_view(inst), k0)

    def test_at_the_cap(self, sealed_at_cap):
        self.same_cuts(sealed_at_cap, self.same_view(sealed_at_cap), SUPPORT_CAP)

    def test_view_is_outside_the_fields(self):
        inst = seal_oaep(9, OaepContext.create(k0=4, n=8, with_human=False))
        built = _built_copy(inst)
        tu_overlap(built, {1})
        assert "_pad_view" in inst.__dict__ and "_pad_view" in built.__dict__
        assert inst == built and repr(inst) == repr(built)
        assert instance_to_dict(inst) == instance_to_dict(built)
        assert "_pad_view" not in json.dumps(instance_to_dict(inst))


class TestPadNumbers:
    """A cut reads its pads as integers or rejects them, and never truncates one."""

    @pytest.mark.parametrize("pad", [1.5, 3.0, "3", np.float64(2.0), 2 + 0j])
    def test_non_integer_pad_rejected(self, pad):
        ctx = OaepContext.create(k0=4, n=8, with_human=False)
        inst = seal_oaep(0, ctx)
        message = re.escape(f"excluded pads must be integers, got {pad!r}")
        for call in (lambda r: tu_overlap(inst, r), lambda r: useless_query_bound(ctx, r)):
            for excluded in ({pad}, {5, pad}):
                with pytest.raises(ValueError, match=message):
                    call(excluded)

    def test_numpy_integers_and_bools_keep_their_values(self):
        ctx = OaepContext.create(k0=4, n=8, with_human=False)
        inst = seal_oaep(0, ctx)
        for excluded, plain in [
            ({np.int64(3), np.uint8(5)}, {3, 5}),
            ({np.uint64(3), np.int64(2)}, {3, 2}),  # no one integer dtype holds both
            ({True}, {1}),
            ({False, 7}, {0, 7}),
            ({np.True_, np.int16(9)}, {1, 9}),
        ]:
            assert tu_overlap(inst, excluded) == tu_overlap(inst, plain)
            assert useless_query_bound(ctx, excluded) == useless_query_bound(ctx, plain)

    @pytest.mark.parametrize("excluded, bad", [
        ({2**70}, [2**70]),
        ({-1, 2**63}, [-1, 2**63]),
        ({3, np.uint64(2**64 - 1)}, [np.uint64(2**64 - 1)]),
    ])
    def test_integers_past_intp_are_out_of_range(self, excluded, bad):
        ctx = OaepContext.create(k0=4, n=8, with_human=False)
        message = re.escape(f"excluded pads out of range: {bad}")
        with pytest.raises(ValueError, match=message):
            tu_overlap(seal_oaep(0, ctx), excluded)
        with pytest.raises(ValueError, match=message):
            useless_query_bound(ctx, excluded)

    def test_pad_width_past_the_cap_rejected(self):
        # No seal has more than MAX_K0 pad bits, and a cut's flag table has 2**k0 + 1 entries.
        inst = _hand_built({(format(r, "017b"), f"img_{r:05x}"): 0.5 for r in range(4)}, 17)
        with pytest.raises(ValueError, match="k0 must be between 1 and 16"):
            tu_overlap(inst, {1})


def test_a_half_cut_at_the_cap_holds_under_a_mebibyte(sealed_at_cap):
    # The seal recorded the pad view, so the cut holds only its pad array, its
    # flag table and the kept squares: about 0.56 MiB, where formatting and
    # hashing 32,768 excluded labels and rebuilding the squares peaked at 5.9 MiB.
    excluded = set(random.Random(15).sample(range(SUPPORT_CAP), SUPPORT_CAP // 2))
    tracemalloc.start()
    try:
        assert tu_overlap(sealed_at_cap, excluded) == 0.5
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


@pytest.fixture(scope="module")
def predicate_at_cap(sealed_at_cap):
    """The predicate cheat on ``sealed_at_cap`` with g = 1 on every seventh C label in
    the reference's order, run once: (report, how many labels have g = 1)."""
    labels = dict.fromkeys(c for _, c in sealed_at_cap.reference.amps)
    g = {c: int(i % 7 == 0) for i, c in enumerate(labels)}
    return predicate_cheat(sealed_at_cap, g), sum(g.values())


class TestSupportCap:
    def test_support_fills_the_cap(self, sealed_at_cap):
        assert SUPPORT_CAP is qseal.states.SUPPORT_CAP == 1 << qseal.oaep.MAX_K0  # one caps table
        assert len(sealed_at_cap.reference.amps) == SUPPORT_CAP
        assert len(sealed_at_cap.reference.c_labels()) == SUPPORT_CAP

    def test_basis_cheat_is_exact_at_the_cap(self, cheat_at_cap):
        report = cheat_at_cap
        q = 2.0**-16
        assert len(report.outcome_table) == SUPPORT_CAP
        assert max(abs(prob - q) for _, prob, _ in report.outcome_table) <= 1e-12
        assert max(abs(acc - q) for _, _, acc in report.outcome_table) <= 1e-12
        assert report.s == pytest.approx(1.0 - q, abs=1e-12)

    def test_basis_cheat_bytes_at_the_cap(self, cheat_at_cap):
        # The digest of the report as the CLI prints it, recorded before the
        # sparse route was rewritten for speed: every one of its bits is kept.
        text = json.dumps(cheat_at_cap.to_dict(), indent=2)
        want = (Path(__file__).parent / "data" / "cheat_at_cap.sha256").read_text().strip()
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want

    def test_predicate_cheat_bytes_at_the_cap(self, predicate_at_cap):
        # Two outcomes of thousands of amplitudes each, so the multi-amplitude
        # branch at the cap: the digest of the report as the CLI prints it,
        # recorded when norms and inner products came to be summed correctly
        # rounded. q and s are exact.
        report, m = predicate_at_cap
        text = json.dumps(report.to_dict(), indent=2)
        want = (Path(__file__).parent / "data" / "predicate_at_cap.sha256").read_text().strip()
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want
        q1 = Fraction(m, SUPPORT_CAP)
        assert [row[:2] for row in report.outcome_table] == [("g=0", float(1 - q1)), ("g=1", float(q1))]
        assert report.s == float(2 * q1 * (1 - q1))

    def test_predicate_acceptance_is_exact_at_the_cap(self, predicate_at_cap):
        report, m = predicate_at_cap
        ((_, _, acceptance), _) = report.outcome_table
        assert abs(acceptance - (SUPPORT_CAP - m) / SUPPORT_CAP) <= EXACT_TOL

    def test_predicate_accept_route_is_exact_at_the_cap(self, sealed_at_cap, predicate_at_cap):
        # Every amplitude is +-2^-8 on its own C label, so outcome i has mass q_i, a
        # count over 2^16, and projecting the returned mixture onto the reference
        # accepts with sum_i q_i^2 exactly: a dyadic rational.
        report, m = predicate_at_cap
        reference = sealed_at_cap.reference
        assert {abs(a) for a in reference.amps.values()} == {2.0**-8}
        q1 = Fraction(m, SUPPORT_CAP)
        exact = (1 - q1) ** 2 + q1**2
        accept = project_accept_probability(reference, report.returned)
        assert abs(Fraction(accept) - exact) <= EXACT_TOL
        assert abs(Fraction(1.0 - accept) - Fraction(report.s)) <= EXACT_TOL

    def test_basis_cheat_chain_at_the_cap(self, sealed_at_cap, cheat_at_cap):
        # 2^16 equal masses: the root of sum_i q / (q + lambda) = 1 is 1 - q, exactly.
        chain = proof_chain(sealed_at_cap, cheat_at_cap)
        assert chain.trace_distance == 1.0 - 2.0**-16
        assert chain.holds()

    def test_rotated_cheat_is_exact_at_the_cap(self, sealed_at_cap):
        # A Hadamard on two tokens under the default finest partition: each of
        # the 2^16 columns keeps mass 2^-16, its own outcome, and the two
        # rotated tokens split their pads' amplitudes evenly. No token decodes
        # to a message without the human, so nothing is pinned.
        tokens = sorted(sealed_at_cap.reference.c_labels())[:2]
        hadamard = LocalUnitary(tuple(tokens), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
        report = strategy_report(sealed_at_cap, hadamard, None)
        q = 2.0**-16
        assert len(report.outcome_table) == SUPPORT_CAP
        assert max(abs(prob - q) for _, prob, _ in report.outcome_table) <= 1e-12
        assert report.s == 1.0 - q
        assert report.trace_distance == 1.0 - q and report.holds()
        assert report.p == 0.0 and report.bound == 1.0
        assert "returned" not in vars(report)

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
