"""Command-line front end.

Subcommands: seal, unseal, cheat, verify, and experiment. Global flags
(--seed, --config, --out, --format) sit before the subcommand. A key = value
config file can supply any experiment or seal parameter, or the ``seed`` of
unseal, cheat and verify, and no other key.
Its values are text, typed once by the parameter they set; integers go
through ``harness.config_value`` for experiments and seals alike.
Explicit flags, ``--seed`` included, win over the config file.

Exit codes: 0 on success, 2 when an exact computation violates a guaranteed
inequality (which would indicate a broken build), 1 for ordinary errors,
usage errors included. A warning is one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import oaep as oaep_mod
from . import protocols
from .adversary import basis_cheat, predicate_cheat, random_strategy_sweep
from .harness import (
    EXPERIMENTS,
    ConfigInvalid,
    ExperimentConfig,
    InvariantViolation,
    check_report,
    config_value,
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
        if key in data:
            raise ConfigInvalid(f"config key {key!r} is repeated")
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


def _only_keys(params: dict, allowed: tuple[str, ...]) -> dict:
    unknown = [key for key in params if key not in allowed]
    if unknown:
        raise ConfigInvalid(f"unknown config key {unknown[0]!r}")
    return params


def _seed(args) -> int:
    """``--seed``, else the config's ``seed``, else 0: the one parameter of
    unseal, cheat and verify that a config file can supply."""
    params = _only_keys(_merged_params(args, ("seed",)), ("seed",))
    seed = config_value("seed", params.get("seed", 0), int)
    if seed < 0:
        raise ConfigInvalid(f"config key 'seed' must be nonnegative, got {seed}")
    return seed


def _labels(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_seal(args) -> int:
    params = _only_keys(_merged_params(args, SEAL_PARAMS), SEAL_PARAMS)
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
        try:
            master = oaep_mod.REFERENCE_MASTER_KEY if key is None else bytes.fromhex(key)
        except ValueError:
            master = b""
        if not master:
            raise ConfigInvalid(f"config key 'key' needs nonempty hex text, got {key!r}")
        k0, n, y = (config_value(name, params.get(name, default), int)
                    for name, default in (("k0", 8), ("n", 16), ("y", 0)))
        ctx = oaep_mod.OaepContext.create(k0=k0, n=n, master_key=master)
        inst = oaep_mod.seal_oaep(y, ctx)
    else:
        raise ConfigInvalid(f"unknown or missing protocol {protocol!r}")
    _dump_json(protocols.instance_to_dict(inst), args.out)
    return 0


def cmd_unseal(args) -> int:
    seed = _seed(args)
    inst = _load_instance(args.instance)
    message, success = protocols.honest_unseal(inst, seed)
    _dump_json({"message": message, "success": success}, args.out)
    return 0


def cmd_cheat(args) -> int:
    seed = _seed(args)
    inst = _load_instance(args.instance)
    if args.attack in ("generic", "basis"):
        reports = [(args.attack, basis_cheat(inst))]
    elif args.attack == "predicate":
        c_labels = inst.reference.c_labels()
        true_labels = _labels(args.predicate_true or "")
        unknown = [label for label in true_labels if label not in c_labels]
        if unknown:
            raise ValueError(f"--predicate-true label {unknown[0]!r} is not a C label of the instance")
        g = dict.fromkeys(c_labels, 0) | dict.fromkeys(true_labels, 1)
        reports = [("predicate", predicate_cheat(inst, g))]
    else:
        reports = [(f"random-{i}", report) for i, report in
                   enumerate(random_strategy_sweep(inst, args.trials, seed))]
    for name, report in reports:
        check_report(report, args.instance, name)
    payload = [dict(attack=name, **report.to_dict()) for name, report in reports]
    _dump_json(payload if len(payload) > 1 else payload[0], args.out)
    return 0


def cmd_verify(args) -> int:
    seed = _seed(args)
    inst = _load_instance(args.instance)
    returned = ensemble_from_dict(json.loads(Path(args.returned).read_text()))
    believe, accept = protocols.verify_return(inst, returned, seed)
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
        rows = run_oaep_negligibility(cfg.oaep_k0, cfg.rset_sizes)
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
    args = (parser := build_parser()).parse_args(argv)
    if args.seed is not None and args.seed < 0:  # NumPy takes no negative seed
        parser.error(f"argument --seed: expected a nonnegative integer, got {args.seed}")
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
