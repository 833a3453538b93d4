"""Sealing through a human-invertible one-way function.

The one-way function f maps k-bit strings to opaque image tokens. Here it is
simulated by a keyed Feistel permutation, so injectivity holds by
construction, and the "only a human can invert it" property becomes a
capability split: ``CaptchaFunction`` can only evaluate forward, while the
separate ``HumanOracle`` holds inversion access and logs every query it ever
answers. Oracle use is incoherent by design, which is the whole point of the
construction.

A message y is sealed as the uniform superposition over all k0-bit pads r of
|r> on register B paired with the token of

    encode(y, r) = f(s || t),   s = y xor G(r),   t = r xor H(s)

on register C. G and H are fixed public hash-derived functions, so sealed
states and golden vectors are reproducible bit for bit from the context key.

All bit strings are handled as Python ints with widths fixed by the context
parameters: y has n bits, r has k0 bits, f inputs have k = n + k0 bits.

G, H and the Feistel rounds are keyed SHA-256 expansions whose prefix, input
width and shift are fixed once per context. ``encode`` computes a token in its
own body, from a layout ``OaepContext.create`` makes once: six inline digests
(G, H, four rounds) when every hash reads a value of 1, 2, 4 or 8 bytes, so
that every output is at most 64 bits, else ``g``, ``h`` and
``CaptchaFunction.forward``. Inline, one precompiled ``struct`` packs each
digest's prefix and value, and the output is the digest's first 8 bytes
shifted down. Each digest is one call to this module's ``hashlib`` global,
looked up at call time and never a pre-fed ``copy()``, so a stand-in module
(perfbench's tracer) counts every digest of every token.

A seal's token map (``_tokens``, which ``r_set`` reads too) splits its pads
into contiguous ranges, one per usable CPU and each of at least
``_MIN_PADS_PER_PROCESS`` pads, so every k0 <= 12 map runs in one process. The
caller encodes the first range; each other range is encoded by a child made by
``os.fork`` that calls ``encode`` once per pad and pipes its tokens back. The
tokens are the serial map's, in pad order, at any CPU count; a child that fails
is a ``ValueError``, and no child outlives the seal. A traced seal above that
floor counts only the caller's share of ``encode`` calls and digests.

A seal's pad labels are ``_pad_labels``, each the formatted high and low halves
of its pad. A cut formats no label: it reads the instance's ``_pad_view``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import signal
import struct
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, NoReturn

import numpy as np

from .protocols import OAEP, SealedInstance
from .states import SUPPORT_CAP, SparseState, check_norm, sample_readout
from .states import squared_overlap  # noqa: F401  (perfbench/test_oracles.py looks it up here)

#: Reference context key; fixes f, G, and H so golden vectors never drift.
REFERENCE_MASTER_KEY = bytes(range(32))

#: Largest pad width, the one whose 2**k0 pads fill ``SUPPORT_CAP``.
MAX_K0 = SUPPORT_CAP.bit_length() - 1

TOKEN_PREFIX = "img_"
_FEISTEL_ROUNDS = 4

# One keyed hash's fixed input: (prefix per digest, value byte width, shift).
_PrfSpec = tuple[tuple[bytes, ...], int, int]

# encode's token map: (prefix, packer of prefix and value, shift of the first
# 8 digest bytes) of G, H and rounds 0-3, the Feistel half width and mask, and
# the token's format (its hex digit count).
_TokenLayout = tuple[tuple[tuple[bytes, Callable[[bytes, int], bytes], int], ...], int, int, str]

# struct codes of the value widths encode packs inline.
_WIDTH_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_FIRST_U64 = struct.Struct(">Q").unpack_from

#: Fewest pads a token-map process encodes, so that a map of at most 2**12 pads
#: (k0 <= 12) runs in one process. On a shared 2-vCPU VM, two processes of 2**12
#: pads each (k0 = 13) took 0.58-0.64 of the serial time in three timing rounds and
#: 1.1 of it in two; two of 2**11 (k0 = 12) took 1.2-1.3 of it in all three.
_MIN_PADS_PER_PROCESS = 1 << 12


class DegenerateUWarning(UserWarning):
    """The excluded set covers every pad, leaving no useless-pad projector."""


@dataclass(frozen=True)
class OaepParams:
    """Security parameters: k0-bit pads, n-bit messages, k = n + k0-bit f inputs."""

    k0: int
    n: int

    @property
    def k(self) -> int:
        return self.n + self.k0

    def __post_init__(self) -> None:
        if not 1 <= self.k0 <= MAX_K0:
            raise ValueError(f"k0 must be between 1 and {MAX_K0} at desk scale")
        if self.n < 1:
            raise ValueError("message length n must be positive")


def _prf_spec(key: bytes, label: bytes, value_bits: int, out_bits: int) -> _PrfSpec:
    """Hashing ``value_bits``-bit values to ``out_bits`` bits: digest i hashes
    ``key|label|``, the 4-byte counter i and the value's bytes."""
    digests = -(-out_bits // 256)
    prefixes = tuple(key + b"|" + label + b"|" + c.to_bytes(4, "big") for c in range(digests))
    return prefixes, max(1, (value_bits + 7) // 8), 256 * digests - out_bits


def _prf(spec: _PrfSpec, value: int) -> int:
    """Deterministic hash expansion of ``value`` to the spec's ``out_bits`` bits."""
    prefixes, width, shift = spec
    data = value.to_bytes(width, "big")
    out = b"".join([hashlib.sha256(prefix + data).digest() for prefix in prefixes])
    return int.from_bytes(out, "big") >> shift


def _feistel_rounds(key: bytes, k: int) -> list[_PrfSpec]:
    """Round functions of the k-bit Feistel; its halves of k - k // 2 and
    k // 2 bits swap roles every round, the wider half feeding round 0."""
    widths = (k - k // 2, k // 2)
    return [
        _prf_spec(key, b"round" + bytes([rnd]), widths[rnd % 2], widths[1 - rnd % 2])
        for rnd in range(_FEISTEL_ROUNDS)
    ]


def _feistel_forward(rounds: list[_PrfSpec], k: int, x: int) -> int:
    half = k - k // 2
    left, right = x >> half, x & ((1 << half) - 1)
    for spec in rounds:
        left, right = right, left ^ _prf(spec, right)
    return (left << half) | right


def _feistel_inverse(rounds: list[_PrfSpec], k: int, x: int) -> int:
    half = k - k // 2
    left, right = x >> half, x & ((1 << half) - 1)
    for spec in reversed(rounds):
        left, right = right ^ _prf(spec, left), left
    return (left << half) | right


def _token_format(k: int) -> str:
    """The %-format of a k-bit token: the prefix, then (k + 3) // 4 lowercase hex digits."""
    return f"{TOKEN_PREFIX}%0{(k + 3) // 4}x"


class CaptchaFunction:
    """Forward-only capability for the keyed one-to-one token map."""

    def __init__(self, key: bytes, k: int):
        self._rounds = _feistel_rounds(key, k)
        self.k = k

    def forward(self, x: int) -> str:
        if not 0 <= x < (1 << self.k):
            raise ValueError(f"input must be a {self.k}-bit value")
        return _token_format(self.k) % _feistel_forward(self._rounds, self.k, x)


def token_payload(token: str, k: int) -> int:
    """The payload of a token spelled as ``encode`` spells it for k-bit inputs: any
    other prefix or spelling ("0x", a sign, spaces, "_", uppercase) is a ValueError."""
    try:
        value = int(token[len(TOKEN_PREFIX):], 16)
    except ValueError:  # not hex at all: int()'s own message would name only the payload
        raise ValueError(f"malformed token {token!r}") from None
    if not 0 <= value < (1 << k):
        raise ValueError(f"token payload out of range for k={k}")
    if _token_format(k) % value != token:
        raise ValueError(f"malformed token {token!r}")
    return value


class HumanOracle:
    """Inversion capability with a mandatory, append-only query log.

    Every ``invert`` call records the shown token before answering; the log is
    never truncated. Inversion is exact (the idealized perfect human).
    """

    def __init__(self, key: bytes, k: int):
        self._rounds = _feistel_rounds(key, k)
        self.k = k
        self._log: list[str] = []

    @property
    def query_log(self) -> tuple[str, ...]:
        return tuple(self._log)

    def invert(self, token: str) -> int:
        value = token_payload(token, self.k)
        self._log.append(token)
        return _feistel_inverse(self._rounds, self.k, value)


@dataclass(frozen=True)
class OaepContext:
    """Parameters plus the f/G/H instances and optional inversion oracle."""

    params: OaepParams
    master_key: bytes
    captcha: CaptchaFunction
    human: HumanOracle | None
    g_spec: _PrfSpec
    h_spec: _PrfSpec
    _layout: _TokenLayout | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        specs = (self.g_spec, self.h_spec, *self.captcha._rounds)
        # encode packs each value with one struct code and reads each output
        # from one digest's first 8 bytes. Every output is another hash's
        # value (G's is H's, H's is G's, a round's is the next round's), so
        # values of at most 8 bytes bound every output to 64 bits.
        if all(width in _WIDTH_CODES for _, width, _ in specs):
            k = self.params.k
            half = k - k // 2
            hashes = tuple(
                (prefix, struct.Struct(f">{len(prefix)}s{_WIDTH_CODES[width]}").pack, shift - 192)
                for (prefix,), width, shift in specs
            )
            layout = (hashes, half, (1 << half) - 1, _token_format(k))
        else:
            layout = None
        object.__setattr__(self, "_layout", layout)

    @classmethod
    def create(
        cls,
        k0: int,
        n: int,
        master_key: bytes = REFERENCE_MASTER_KEY,
        with_human: bool = True,
    ) -> "OaepContext":
        params = OaepParams(k0=k0, n=n)
        captcha_key = hashlib.sha256(master_key + b"|captcha").digest()
        g_key = hashlib.sha256(master_key + b"|G").digest()
        h_key = hashlib.sha256(master_key + b"|H").digest()
        captcha = CaptchaFunction(captcha_key, params.k)
        human = HumanOracle(captcha_key, params.k) if with_human else None
        g_spec, h_spec = _prf_spec(g_key, b"G", k0, n), _prf_spec(h_key, b"H", n, k0)
        return cls(params, master_key, captcha, human, g_spec, h_spec)

    def g(self, r: int) -> int:
        """Pad expander G: k0 bits in, n bits out."""
        if not 0 <= r < (1 << self.params.k0):
            raise ValueError(f"r must be a {self.params.k0}-bit value")
        return _prf(self.g_spec, r)

    def h(self, s: int) -> int:
        """Digest H: n bits in, k0 bits out."""
        if not 0 <= s < (1 << self.params.n):
            raise ValueError(f"s must be a {self.params.n}-bit value")
        return _prf(self.h_spec, s)


def encode(y: int, r: int, ctx: OaepContext) -> str:
    """Token for message y under pad r: f(y xor G(r) || r xor H(y xor G(r)))."""
    params = ctx.params
    if not 0 <= y < (1 << params.n):
        raise ValueError(f"y must be an {params.n}-bit value")
    if not 0 <= r < (1 << params.k0):
        raise ValueError(f"r must be a {params.k0}-bit value")
    if ctx._layout is None:
        s = y ^ ctx.g(r)
        t = r ^ ctx.h(s)
        return ctx.captcha.forward((s << params.k0) | t)
    hashes, half, mask, token = ctx._layout
    (gp, gb, gs), (hp, hb, hs), (p0, b0, s0), (p1, b1, s1), (p2, b2, s2), (p3, b3, s3) = hashes
    sha256, first = hashlib.sha256, _FIRST_U64
    s = y ^ first(sha256(gb(gp, r)).digest())[0] >> gs
    t = r ^ first(sha256(hb(hp, s)).digest())[0] >> hs
    x = (s << params.k0) | t
    # Four Feistel rounds, each xoring one half with the round function of the other.
    left, right = x >> half, x & mask
    left ^= first(sha256(b0(p0, right)).digest())[0] >> s0
    right ^= first(sha256(b1(p1, left)).digest())[0] >> s1
    left ^= first(sha256(b2(p2, right)).digest())[0] >> s2
    right ^= first(sha256(b3(p3, left)).digest())[0] >> s3
    return token % ((left << half) | right)


def decode_preimage(ctx: OaepContext, x: int) -> tuple[int, int]:
    """Undo the pad arithmetic on a recovered f preimage; returns (y, r)."""
    params = ctx.params
    s = x >> params.k0
    t = x & ((1 << params.k0) - 1)
    r = t ^ ctx.h(s)
    y = s ^ ctx.g(r)
    return y, r


def _workers(support: int) -> int:
    """Processes a token map of ``support`` pads runs in: one per usable CPU, each with
    at least ``_MIN_PADS_PER_PROCESS`` pads, and one where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, support // _MIN_PADS_PER_PROCESS))


def _encode_into(fd: int, y: int, pads: range, ctx: OaepContext) -> NoReturn:
    """A forked worker's whole life: ``pads``' tokens, one per line in ASCII, into the
    pipe ``fd``, then ``os._exit`` (status 0 only if every token was written), so it
    never returns into the caller's stack nor flushes the caller's stdio buffers."""
    status = 1
    try:
        gc.disable()  # no collection runs a finalizer the caller owns, or touches its pages
        with open(fd, "wb") as pipe:
            pipe.write("\n".join([encode(y, r, ctx) for r in pads]).encode("ascii"))
        status = 0
    finally:
        os._exit(status)


def _tokens(y: int, ctx: OaepContext) -> list[str]:
    """``encode(y, r, ctx)`` for r = 0 .. 2**k0 - 1, in pad order.

    The pads are cut into ``_workers`` contiguous ranges. The caller encodes the
    first; each other range is encoded by a child made by ``os.fork`` and read back
    through a pipe, in range order. A child that fails, is killed or returns the
    wrong number of tokens is a ``ValueError`` naming its pads. On any exception
    every child not yet reaped is killed, and no child outlives the call.
    """
    params = ctx.params
    if not 0 <= y < (1 << params.n):
        raise ValueError(f"y must be an {params.n}-bit value")
    support = 1 << params.k0
    workers = _workers(support)
    ranges = [range(support * i // workers, support * (i + 1) // workers) for i in range(workers)]
    pipes, pids = [], []
    try:
        for pads in ranges[1:]:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if not pid:
                    _encode_into(write, y, pads, ctx)
            finally:
                os.close(write)
            pids.append(pid)
        tokens = [encode(y, r, ctx) for r in ranges[0]]
        for pipe, pads in zip(pipes, ranges[1:]):
            part = pipe.read().decode("ascii").splitlines()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if status:
                how = f"exited with status {status}" if status > 0 else f"was killed by signal {-status}"
            elif len(part) != len(pads):
                how = f"returned {len(part)} tokens"
            else:
                tokens += part
                continue
            raise ValueError(f"token map worker for pads {pads.start}-{pads.stop - 1} {how}")
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return tokens


def _pad_labels(k0: int) -> list[str]:
    """``format(r, f"0{k0}b")`` of all 2**k0 pads in order, each its formatted halves joined."""
    low = k0 // 2
    highs = [format(h, f"0{k0 - low}b") for h in range(1 << (k0 - low))]
    lows = [format(r, f"0{low}b") for r in range(1 << low)] if low else [""]
    return [h + lo for h in highs for lo in lows]


def _pad_view(inst: SealedInstance, k0: int) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(each reference row's pad, None when row i is pad i; each row's ``np.hypot`` squared;
    their ``math.fsum``): the view ``seal_oaep`` recorded, else one built once and kept
    in the instance dict. A B label that is no pad's canonical label gets pad 2**k0."""
    view = inst.__dict__.get("_pad_view")
    if view is None:
        amps = inst.reference.amps
        pad_of = dict(zip(_pad_labels(k0), range(1 << k0)))
        rows = np.fromiter(map(pad_of.get, map(itemgetter(0), amps), repeat(1 << k0)), np.intp)
        values = np.fromiter(amps.values(), complex, len(amps))
        squares = np.hypot(values.real, values.imag) ** 2
        view = inst.__dict__["_pad_view"] = (rows, squares, math.fsum(memoryview(squares)))
    return view


def seal_oaep(y: int, ctx: OaepContext) -> SealedInstance:
    """Uniform superposition of |r> paired with the token encoding y under r.

    The honest unseal measures register C and passes the token to the human
    oracle; the quantum measurement alone pins down no message, so the decode
    table marks every token outcome as garbage.
    """
    params = ctx.params
    tokens = _tokens(y, ctx)
    support = 1 << params.k0
    amp = complex(1.0 / math.sqrt(float(support)))
    # One amplitude object, 2^(-k0/2), on distinct pads: the map is adopted, not copied.
    reference = SparseState._adopt(dict(zip(zip(_pad_labels(params.k0), tokens), repeat(amp))))
    decode = dict.fromkeys(tokens)
    instance_params = {
        "k": params.k,
        "k0": params.k0,
        "n": params.n,
        "key": ctx.master_key.hex(),
        "y": y,
    }
    inst = SealedInstance(OAEP, reference, decode, instance_params)
    squares = np.full(support, amp.real * amp.real)  # np.hypot(a, 0) is |a|: _pad_view's square
    inst.__dict__["_pad_view"] = (None, squares, math.fsum(memoryview(squares)))
    return inst


def sealed_params(inst: SealedInstance) -> tuple[int, int, bytes]:
    """(k0, n, master key) as ``seal_oaep`` wrote them: positive integers, not
    booleans, and hex text; otherwise ``ValueError`` names the entry."""
    k0, n, key = (inst.params.get(name) for name in ("k0", "n", "key"))
    for name, value in (("k0", k0), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"params.{name} must be a positive integer, got {value!r}")
    try:
        return k0, n, bytes.fromhex(key)
    except (TypeError, ValueError):
        raise ValueError(f"params.key must be hex text, got {key!r}") from None


def unseal_oaep(inst: SealedInstance, ctx: OaepContext, rng_seed: int) -> tuple[int, int]:
    """Measure register C, show the token to the human, undo the padding.

    Returns (y, r); exactly one oracle query is spent per call. Raises
    ``ValueError`` when (r, token) is not a branch of the reference, which is
    what a context with the wrong key or widths gives.
    """
    if inst.protocol != OAEP:
        raise ValueError(f"instance protocol is {inst.protocol!r}, not oaep")
    if ctx.human is None:
        raise ValueError("context has no inversion access")
    token = sample_readout(inst.reference, rng_seed)
    y, r = decode_preimage(ctx, ctx.human.invert(token))
    if (format(r, f"0{ctx.params.k0}b"), token) not in inst.reference.amps:
        raise ValueError(f"token {token!r} does not decode to its own pad: wrong key, k0 or n")
    return y, r


def r_set(ctx: OaepContext, y: int, queries: Iterable[str] | None = None) -> set[int]:
    """Pads whose encoding of y was ever shown to the human.

    Recomputed from the query log (or an explicit token collection) by
    scanning the token map of all 2**k0 pads.
    """
    if queries is None:
        if ctx.human is None:
            raise ValueError("context has no oracle log to scan")
        queries = ctx.human.query_log
    shown = set(queries)
    if not shown:
        return set()
    return {r for r, token in enumerate(_tokens(y, ctx)) if token in shown}


def _pad_numbers(excluded: set[int], k0: int) -> np.ndarray:
    """``excluded`` as intp pads, or ``ValueError`` naming a non-integer or the pads not below 2**k0."""
    pads = np.array(list(excluded))
    if pads.dtype.kind not in "biu":  # a non-integer, or integers no one integer dtype holds
        for r in excluded:
            if not isinstance(r, (int, np.integer, np.bool_)):
                raise ValueError(f"excluded pads must be integers, got {r!r}")
    if pads.size and not (pads.min() >= 0 and pads.max() < 1 << k0):
        bad = sorted(r for r in excluded if not 0 <= r < 1 << k0)
        raise ValueError(f"excluded pads out of range: {bad}")
    return pads.astype(np.intp, copy=False)


def tu_overlap(inst: SealedInstance, excluded: set[int]) -> float:
    """Squared overlap between the full-pad and useless-pad superpositions.

    The useless-pad state is P|ref> / ||P|ref>||, with P the projector onto
    the pads outside ``excluded``, so |<ref|u>|^2 / (<ref|ref> <u|u>) is
    <ref|P|ref> / <ref|ref>: the kept squared-modulus mass over the total, read
    from ``_pad_view`` through a table of 2**k0 + 1 flags indexed by pad number.
    Each mass is one correctly rounded ``math.fsum``, so the ratio is within a
    few ulps of the exact one, an empty cut gives exactly 1.0, and equal
    power-of-two amplitudes (even k0) give exactly 1 - |R|/2**k0. No label is
    formatted and no state is built. If ``excluded`` covers every pad, the
    overlap is 0 by convention and ``DegenerateUWarning`` is emitted; if it
    covers every pad the reference holds, P|ref> = 0 has no normalization and
    ``check_norm`` rejects its empty mass.
    """
    k0 = OaepParams(*sealed_params(inst)[:2]).k0  # at most MAX_K0, as honest_unseal checks
    pads = _pad_numbers(excluded, k0)
    if len(pads) >= 1 << k0:
        warnings.warn("excluded set covers every pad; overlap is 0 by convention",
                      DegenerateUWarning)
        return 0.0
    rows, squares, total = _pad_view(inst, k0)
    keep = np.ones((1 << k0) + 1, bool)
    keep[pads] = False
    # fsum reads a memoryview's doubles one at a time, so no list of floats is built.
    kept = math.fsum(memoryview(squares[keep[:-1] if rows is None else keep[rows]]))
    if not kept:  # P|ref> = 0: the useless-pad state has no amplitudes to normalize
        check_norm(kept)
    return kept / total


def useless_query_bound(ctx: OaepContext, excluded: set[int]) -> float:
    """Probability mass by which the full-pad test can diverge, |R| / 2**k0."""
    return len(_pad_numbers(excluded, ctx.params.k0)) / (1 << ctx.params.k0)
