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
width and shift are fixed once per context. Each digest is one call to this
module's ``hashlib`` global, looked up at call time and never a pre-fed
``copy()``, so a stand-in module (perfbench's tracer) counts all six per token.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from .protocols import OAEP, SealedInstance
from .states import (
    Label,
    ProjPartition,
    SparseState,
    measure_partition,
    squared_overlap,
)

#: Reference context key; fixes f, G, and H so golden vectors never drift.
REFERENCE_MASTER_KEY = bytes(range(32))

#: Largest sealed-state support, 2**16 branches.
SUPPORT_CAP = 1 << 16

#: Largest pad width, the one whose 2**k0 pads fill ``SUPPORT_CAP``.
MAX_K0 = SUPPORT_CAP.bit_length() - 1

TOKEN_PREFIX = "img_"
_FEISTEL_ROUNDS = 4

# One keyed hash's fixed input: (prefix per digest, value byte width, shift).
_PrfSpec = tuple[tuple[bytes, ...], int, int]


class OaepError(Exception):
    pass


class LengthMismatch(OaepError):
    """A value does not fit the bit width fixed by the parameters."""


class OracleUnavailable(OaepError):
    """The context was built forward-only; nothing can invert f."""


class DegenerateUWarning(UserWarning):
    """The excluded set covers every pad, leaving no useless-pad projector."""


@dataclass(frozen=True)
class OaepParams:
    """Security parameters: k-bit f inputs, k0-bit pads, n-bit messages."""

    k: int
    k0: int
    n: int

    def __post_init__(self) -> None:
        if self.n != self.k - self.k0:
            raise ValueError("parameters must satisfy n = k - k0")
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
    if len(prefixes) == 1:
        return int.from_bytes(hashlib.sha256(prefixes[0] + data).digest(), "big") >> shift
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


class CaptchaFunction:
    """Forward-only capability for the keyed one-to-one token map."""

    def __init__(self, key: bytes, k: int):
        self._rounds = _feistel_rounds(key, k)
        self.k = k

    def forward(self, x: int) -> str:
        if not 0 <= x < (1 << self.k):
            raise LengthMismatch(f"input must be a {self.k}-bit value")
        value = _feistel_forward(self._rounds, self.k, x)
        return f"{TOKEN_PREFIX}{value:0{(self.k + 3) // 4}x}"


def token_payload(token: str, k: int) -> int:
    if not token.startswith(TOKEN_PREFIX):
        raise ValueError(f"malformed token {token!r}")
    value = int(token[len(TOKEN_PREFIX):], 16)
    if not 0 <= value < (1 << k):
        raise ValueError(f"token payload out of range for k={k}")
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

    @classmethod
    def create(
        cls,
        k0: int,
        n: int,
        master_key: bytes = REFERENCE_MASTER_KEY,
        with_human: bool = True,
    ) -> "OaepContext":
        params = OaepParams(k=n + k0, k0=k0, n=n)
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
            raise LengthMismatch(f"r must be a {self.params.k0}-bit value")
        return _prf(self.g_spec, r)

    def h(self, s: int) -> int:
        """Digest H: n bits in, k0 bits out."""
        if not 0 <= s < (1 << self.params.n):
            raise LengthMismatch(f"s must be a {self.params.n}-bit value")
        return _prf(self.h_spec, s)


def encode(y: int, r: int, ctx: OaepContext) -> str:
    """Token for message y under pad r: f(y xor G(r) || r xor H(y xor G(r)))."""
    params = ctx.params
    if not 0 <= y < (1 << params.n):
        raise LengthMismatch(f"y must be an {params.n}-bit value")
    if not 0 <= r < (1 << params.k0):
        raise LengthMismatch(f"r must be a {params.k0}-bit value")
    s = y ^ ctx.g(r)
    t = r ^ ctx.h(s)
    return ctx.captcha.forward((s << params.k0) | t)


def decode_preimage(ctx: OaepContext, x: int) -> tuple[int, int]:
    """Undo the pad arithmetic on a recovered f preimage; returns (y, r)."""
    params = ctx.params
    s = x >> params.k0
    t = x & ((1 << params.k0) - 1)
    r = t ^ ctx.h(s)
    y = s ^ ctx.g(r)
    return y, r


def _pad_label(r: int, k0: int) -> Label:
    return format(r, f"0{k0}b")


def seal_oaep(y: int, ctx: OaepContext) -> SealedInstance:
    """Uniform superposition of |r> paired with the token encoding y under r.

    The honest unseal measures register C and passes the token to the human
    oracle; the quantum measurement alone pins down no message, so the decode
    table marks every token outcome as garbage.
    """
    params = ctx.params
    if not 0 <= y < (1 << params.n):
        raise LengthMismatch(f"y must be an {params.n}-bit value")
    support = 1 << params.k0
    amp = 1.0 / math.sqrt(float(support))
    amps = {}
    decode = {}
    for r in range(support):
        token = encode(y, r, ctx)
        decode[token] = None
        amps[(_pad_label(r, params.k0), token)] = amp
    reference = SparseState(amps)
    instance_params = {
        "k": params.k,
        "k0": params.k0,
        "n": params.n,
        "key": ctx.master_key.hex(),
        "y": y,
    }
    return SealedInstance(OAEP, reference, decode, instance_params)


def unseal_oaep(inst: SealedInstance, ctx: OaepContext, rng_seed: int) -> tuple[int, int]:
    """Measure register C, show the token to the human, undo the padding.

    Returns (y, r); exactly one oracle query is spent per call.
    """
    if inst.protocol != OAEP:
        raise ValueError(f"instance protocol is {inst.protocol!r}, not oaep")
    if ctx.human is None:
        raise OracleUnavailable("context has no inversion access")
    token, _post, _dist = measure_partition(
        inst.reference, ProjPartition.finest(inst.reference.c_labels()), rng_seed
    )
    x = ctx.human.invert(token)
    return decode_preimage(ctx, x)


def r_set(ctx: OaepContext, y: int, queries: Iterable[str] | None = None) -> set[int]:
    """Pads whose encoding of y was ever shown to the human.

    Recomputed from the query log (or an explicit token collection) by
    scanning all 2**k0 pads.
    """
    if queries is None:
        if ctx.human is None:
            raise OracleUnavailable("context has no oracle log to scan")
        queries = ctx.human.query_log
    shown = set(queries)
    if not shown:
        return set()
    return {r for r in range(1 << ctx.params.k0) if encode(y, r, ctx) in shown}


def tu_overlap(inst: SealedInstance, excluded: set[int]) -> float:
    """Squared overlap between the full-pad and useless-pad superpositions.

    Computed from the actual state vectors. When ``excluded`` covers every
    pad the useless-pad state does not exist; by convention the overlap is 0
    and ``DegenerateUWarning`` is emitted.
    """
    k0 = inst.params["k0"]
    support = 1 << k0
    bad = {r for r in excluded if not 0 <= r < support}
    if bad:
        raise ValueError(f"excluded pads out of range: {sorted(bad)}")
    if len(excluded) >= support:
        warnings.warn(
            "excluded set covers every pad; overlap is 0 by convention",
            DegenerateUWarning,
        )
        return 0.0
    excluded_labels = {_pad_label(r, k0) for r in excluded}
    kept = {
        key: a
        for key, a in inst.reference.amps.items()
        if key[0] not in excluded_labels
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in kept.values()))
    useless = SparseState({key: a / norm for key, a in kept.items()})
    return squared_overlap(inst.reference, useless)


def useless_query_bound(ctx: OaepContext | OaepParams, excluded: set[int]) -> float:
    """Probability mass by which the full-pad test can diverge, |R| / 2**k0."""
    params = ctx.params if isinstance(ctx, OaepContext) else ctx
    support = 1 << params.k0
    if len(excluded) > support:
        raise ValueError("excluded set larger than the pad space")
    return len(excluded) / support

