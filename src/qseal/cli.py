"""Command-line front end.

Subcommands: seal, unseal, cheat, verify, and experiment. Global flags
(--seed, --config, --out, --format) sit before the subcommand. A key = value
config file can supply any experiment or seal parameter, and no other key.
Its values are text, typed once by the parameter they set
(``ExperimentConfig.from_mapping`` for experiments, ``cmd_seal`` for seals).
Explicit flags, ``--seed`` included, win over the config file.

Exit codes: 0 on success, 2 when an exact computation violates a guaranteed
inequality (which would indicate a broken build), 1 for ordinary errors,
usage errors included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import oaep as oaep_mod
from . import protocols
from .adversary import basis_cheat, predicate_cheat, random_strategy_sweep
from .harness import (
    EXPERIMENTS,
    ConfigInvalid,
    ExperimentConfig,
    InvariantViolation,
    rows_to_csv,
    rows_to_json,
    run_bound_sweep,
    run_multipicture_scaling,
    run_oaep_negligibility,
)
from .states import ensemble_from_dict

SEAL_PARAMS = ("protocol", "message", "garbage", "pictures", "y", "k0", "n", "key")
# "generic" runs the honest unseal coherently, which is the basis readout.
ATTACKS = ("generic", "basis", "predicate", "random")


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a key = value config file; values stay text until their target types them."""
    data: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    return data


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="ascii", newline="")
    else:
        sys.stdout.write(text)


def _dump_json(payload, out: str | None) -> None:
    _write_output(json.dumps(payload, indent=2) + "\n", out)


def _load_instance(path: str) -> protocols.SealedInstance:
    return protocols.instance_from_dict(json.loads(Path(path).read_text()))


def _merged_params(args, flags: tuple[str, ...]) -> dict:
    """The config file's values, overridden by every flag in ``flags`` that was given."""
    merged = load_config(args.config) if args.config else {}
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _labels(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_seal(args) -> int:
    params = _merged_params(args, SEAL_PARAMS)
    unknown = [key for key in params if key not in SEAL_PARAMS]
    if unknown:
        raise ConfigInvalid(f"unknown config key {unknown[0]!r}")
    protocol = params.get("protocol")
    message = params.get("message", "M")
    if protocol == protocols.NAIVE:
        inst = protocols.seal_naive(message, params.get("garbage", "0"))
    elif protocol == protocols.GARBAGE:
        inst = protocols.seal_garbage(message, _labels(params.get("garbage", "junk0")))
    elif protocol == protocols.MULTIPICTURE:
        if "pictures" not in params:
            raise ConfigInvalid("multipicture seal needs --pictures")
        inst = protocols.seal_multipicture(_labels(params["pictures"]))
    elif protocol == protocols.OAEP:
        key = params.get("key")
        master = bytes.fromhex(key) if key else oaep_mod.REFERENCE_MASTER_KEY
        ctx = oaep_mod.OaepContext.create(
            k0=int(params.get("k0", 8)), n=int(params.get("n", 16)), master_key=master
        )
        inst = oaep_mod.seal_oaep(int(params.get("y", 0)), ctx)
    else:
        raise ConfigInvalid(f"unknown or missing protocol {protocol!r}")
    _dump_json(protocols.instance_to_dict(inst), args.out)
    return 0


def cmd_unseal(args) -> int:
    inst = _load_instance(args.instance)
    message, success = protocols.honest_unseal(inst, args.seed or 0)
    _dump_json({"message": message, "success": success}, args.out)
    return 0


def cmd_cheat(args) -> int:
    inst = _load_instance(args.instance)
    if args.attack in ("generic", "basis"):
        reports = [(args.attack, basis_cheat(inst))]
    elif args.attack == "predicate":
        true_labels = set((args.predicate_true or "").split(","))
        g = {label: int(label in true_labels) for label in inst.reference.c_labels()}
        reports = [("predicate", predicate_cheat(inst, g))]
    else:
        reports = [
            (f"random-{i}", report)
            for i, report in enumerate(
                random_strategy_sweep(inst, args.trials, args.seed or 0)
            )
        ]
    payload = [dict(attack=name, **report.to_dict()) for name, report in reports]
    _dump_json(payload if len(payload) > 1 else payload[0], args.out)
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    returned = ensemble_from_dict(json.loads(Path(args.returned).read_text()))
    believe, accept = protocols.verify_return(inst, returned, args.seed or 0)
    _dump_json({"believe": believe, "accept_probability": accept}, args.out)
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_mapping(
        _merged_params(args, ("experiment", "seed", "trials"))
    )
    if cfg.experiment == "bound-sweep":
        rows = run_bound_sweep(cfg)
    elif cfg.experiment == "multi-scaling":
        rows = run_multipicture_scaling(cfg.picture_counts)
    else:
        rows = run_oaep_negligibility(cfg.oaep_k0, cfg.rset_sizes, n=cfg.oaep_n)
    _write_output(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exits 1, like any ordinary error."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qseal",
        description="Simulate sealed-message protocols and verify their detection bounds.",
    )
    parser.add_argument("--seed", type=int, help="RNG seed (default: the config's seed, else 0)")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    seal = sub.add_parser("seal", help="construct a sealed instance")
    seal.add_argument("--protocol", choices=protocols.PROTOCOLS)
    seal.add_argument("--message")
    seal.add_argument("--garbage", help="garbage label, or comma list for the garbage protocol")
    seal.add_argument("--pictures", help="comma-separated picture identifiers")
    seal.add_argument("--y", type=int, help="message value for the oaep protocol")
    seal.add_argument("--k0", type=int)
    seal.add_argument("--n", type=int)
    seal.add_argument("--key", help="hex master key for the oaep protocol")
    seal.set_defaults(func=cmd_seal)

    unseal = sub.add_parser("unseal", help="run the honest unseal once")
    unseal.add_argument("--instance", required=True)
    unseal.set_defaults(func=cmd_unseal)

    cheat = sub.add_parser("cheat", help="run a cheating strategy and report it")
    cheat.add_argument("--instance", required=True)
    cheat.add_argument("--attack", choices=ATTACKS, default="generic")
    cheat.add_argument("--predicate-true", help="comma-separated labels with predicate value 1")
    cheat.add_argument("--trials", type=int, default=1)
    cheat.set_defaults(func=cmd_cheat)

    verify = sub.add_parser("verify", help="verify a returned state against an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--returned", required=True, help="state or ensemble JSON file")
    verify.set_defaults(func=cmd_verify)

    run = sub.add_parser("experiment", help="run a reproducible experiment")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--trials", type=int)
    run.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
