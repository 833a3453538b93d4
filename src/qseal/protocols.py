"""Sealed-message protocol constructions: seal, honest unseal, and verify.

Each protocol produces a ``SealedInstance`` holding the sealer's reference
state, the decode table of the recipient's honest unseal, and the parameters
needed to rebuild the instance from its serialized form. Every honest unseal
is a computational-basis readout of register C. The sealer's verification is
always the rank-1 projector onto the reference state, so an honest return is
accepted with probability exactly 1 (zero completeness error) in every
protocol here.

The decode table maps measurement outcomes to messages; outcomes that carry
no message map to ``None``, the distinguished garbage marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .states import (
    Ensemble,
    Label,
    ProjPartition,
    SparseState,
    measure_partition,
    project_accept_probability,
    state_from_dict,
    state_to_dict,
)

NAIVE = "naive"
GARBAGE = "garbage"
MULTIPICTURE = "multipicture"
OAEP = "oaep"
PROTOCOLS = (NAIVE, GARBAGE, MULTIPICTURE, OAEP)


class ProtocolError(Exception):
    """Base class for protocol construction failures."""


class LabelCollision(ProtocolError):
    """A garbage label collides with a message label or another garbage label."""


class EmptyGarbageSet(ProtocolError):
    pass


class DuplicatePicture(ProtocolError):
    pass


class TooFewPictures(ProtocolError):
    pass


@dataclass(frozen=True)
class SealedInstance:
    """One sealed message: reference state, decode table, and parameters.

    The honest unseal measures register C of the reference in the
    computational basis; ``decode`` maps each outcome label to its message,
    with ``None`` marking garbage outcomes, and must be injective on messages.
    ``decode`` is stored as a read-only copy, so the check cannot be bypassed
    later; ``params`` is stored read-only too, with list values as tuples.
    """

    protocol: str
    reference: SparseState
    decode: Mapping[Label, str | None]
    params: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "decode", MappingProxyType(dict(self.decode)))
        messages = [m for m in self.decode.values() if m is not None]
        if len(messages) != len(set(messages)):
            raise ValueError("decode must be injective on message outcomes")
        frozen = {k: tuple(v) if isinstance(v, list) else v for k, v in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(frozen))


def _validate_message(m: str) -> str:
    if not isinstance(m, str) or not m:
        raise ValueError("messages must be nonempty strings")
    return m


def seal_naive(m: str, garbage: Label = "0") -> SealedInstance:
    """Equal superposition of the message branch and one garbage branch.

    The honest unseal is a computational-basis measurement of register C,
    which recovers the message with probability 1/2.
    """
    _validate_message(m)
    if garbage == m:
        raise LabelCollision(f"garbage label {garbage!r} equals the message label")
    amp = 1.0 / math.sqrt(2.0)
    reference = SparseState({(garbage, garbage): amp, (m, m): amp})
    decode = {m: m, garbage: None}
    return SealedInstance(NAIVE, reference, decode, {"message": m, "garbage": garbage})


def seal_garbage(m: str, garbage_set: Sequence[Label]) -> SealedInstance:
    """Message branch superposed with a uniform bundle of garbage branches."""
    _validate_message(m)
    garbage_set = list(garbage_set)
    if not garbage_set:
        raise EmptyGarbageSet("need at least one garbage label")
    if len(set(garbage_set)) != len(garbage_set):
        raise LabelCollision("garbage labels must be distinct")
    if m in garbage_set:
        raise LabelCollision(f"garbage label {m!r} equals the message label")
    n_g = len(garbage_set)
    amps: dict[tuple[Label, Label], complex] = {(m, m): 1.0 / math.sqrt(2.0)}
    g_amp = 1.0 / math.sqrt(2.0 * n_g)
    for g in garbage_set:
        amps[(g, g)] = g_amp
    reference = SparseState(amps)
    decode: dict[Label, str | None] = {g: None for g in garbage_set}
    decode[m] = m
    return SealedInstance(
        GARBAGE, reference, decode, {"message": m, "garbage_set": garbage_set}
    )


def seal_multipicture(pictures: Sequence[str]) -> SealedInstance:
    """Uniform superposition over indexed pictures; reading collapses the index.

    B labels are the indices "1".."n", C labels the picture identifiers. The
    honest unseal measures C and always recovers exactly one intact picture.
    """
    pictures = [_validate_message(p) for p in pictures]
    if len(pictures) < 2:
        raise TooFewPictures("need at least two pictures")
    if len(set(pictures)) != len(pictures):
        raise DuplicatePicture("pictures must be pairwise distinct")
    n = len(pictures)
    amp = 1.0 / math.sqrt(n)
    reference = SparseState({(str(i + 1), p): amp for i, p in enumerate(pictures)})
    decode = {p: p for p in pictures}
    return SealedInstance(MULTIPICTURE, reference, decode, {"pictures": pictures})


def honest_unseal(inst: SealedInstance, rng_seed: int) -> tuple[str | None, bool]:
    """Run the honest unseal once; returns (message or None, success flag).

    OAEP instances delegate to the inversion-oracle path; a private context is
    rebuilt from the instance parameters, so callers that care about the query
    log should use ``oaep.unseal_oaep`` with their own context instead.
    """
    if inst.protocol == OAEP:
        from . import oaep

        ctx = oaep.OaepContext.create(
            k0=inst.params["k0"],
            n=inst.params["n"],
            master_key=bytes.fromhex(inst.params["key"]),
        )
        y, _r = oaep.unseal_oaep(inst, ctx, rng_seed)
        return format(y, f"0{inst.params['n']}b"), True
    outcome, _post, _dist = measure_partition(
        inst.reference, ProjPartition.finest(inst.reference.c_labels()), rng_seed
    )
    message = inst.decode.get(outcome)
    return message, message is not None


def verify_return(
    inst: SealedInstance, returned: Ensemble, rng_seed: int
) -> tuple[bool, float]:
    """Project the returned state onto the reference and sample belief.

    Returns (believe, exact acceptance probability); the belief bit is drawn
    deterministically from ``rng_seed``.
    """
    accept = project_accept_probability(inst.reference, returned)
    believe = bool(np.random.default_rng(rng_seed).random() < accept)
    return believe, accept


def instance_to_dict(inst: SealedInstance) -> dict:
    """JSON-ready form: protocol, params, reference state, decode table."""
    return {
        "protocol": inst.protocol,
        "params": dict(inst.params),
        "reference": state_to_dict(inst.reference),
        "decode": dict(sorted(inst.decode.items(), key=lambda kv: kv[0])),
    }


def instance_from_dict(data) -> SealedInstance:
    """Rebuild an instance from its JSON form; a malformed entry raises ``ValueError``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"instance must be an object, got {data!r}")
    protocol, params, decode = (data.get(key) for key in ("protocol", "params", "decode"))
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if not isinstance(params, Mapping) or not isinstance(decode, Mapping):
        raise ValueError('instance needs "params" and "decode" objects')
    for outcome, message in decode.items():
        if message is not None and not isinstance(message, str):
            raise ValueError(f"decode[{outcome!r}] must be a string or null, got {message!r}")
    return SealedInstance(protocol, state_from_dict(data.get("reference"), "reference"), decode, params)
