"""Experiment runner: bound sweeps, scaling tables, and deterministic reports.

Every experiment is a pure function of its ``ExperimentConfig``; with the
same configuration and seed the emitted report is byte-identical run to run.
Probabilities are always computed exactly, never estimated, so a single
negative margin anywhere means the implementation is broken and the run
fails loudly with ``InvariantViolation``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from . import oaep as oaep_mod
from .adversary import (
    CheatReport,
    optimal_post_collapse_response,
    predicate_partition,
    random_strategy_sweeps,
    sparse_reports,
)
from .protocols import SealedInstance, seal_garbage, seal_multipicture, seal_naive
from .states import DENSE_DIM_CAP, EXACT_TOL, SUPPORT_CAP, TRIALS_CAP, ProjPartition

EXPERIMENTS = ("bound-sweep", "multi-scaling", "oaep-negligibility")


class ConfigInvalid(ValueError):
    pass


class InvariantViolation(Exception):
    """An exact computation contradicted a guaranteed inequality."""


@dataclass(frozen=True, slots=True)
class SweepRow:
    protocol: str
    attack: str
    p: float
    s_exact: float
    bound: float
    margin: float


@dataclass(frozen=True)
class ScalingRow:
    n: int
    optimal_accept: float
    detection: float


@dataclass(frozen=True)
class NegligibilityRow:
    k0: int
    r_size: int
    divergence: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs; fully determines its output bytes."""

    experiment: str = "bound-sweep"
    seed: int = 0
    trials: int = 20
    message: str = "M"
    garbage_sizes: tuple[int, ...] = (1, 2, 4, 16, 64)
    picture_counts: tuple[int, ...] = (2, 4, 10)
    oaep_k0: tuple[int, ...] = (4, 8)
    rset_sizes: tuple[int, ...] = (0, 1, 4)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(f"unknown experiment {self.experiment!r}")
        if self.seed < 0:
            raise ConfigInvalid(f"config key 'seed' must be nonnegative, got {self.seed}")
        if not 0 <= self.trials <= TRIALS_CAP:
            raise ConfigInvalid(f"config key 'trials' needs values from 0 to {TRIALS_CAP}")
        if any(not 1 <= k0 <= oaep_mod.MAX_K0 for k0 in self.oaep_k0):
            raise ConfigInvalid(f"k0 values must be between 1 and {oaep_mod.MAX_K0}")
        for key, low, high in (("garbage_sizes", 1, SUPPORT_CAP - 1),  # support n + 1
                               ("picture_counts", 2, SUPPORT_CAP),  # support n
                               # an excluded set of pads, checked before any k0 is sealed
                               ("rset_sizes", 0, 1 << min(self.oaep_k0, default=oaep_mod.MAX_K0))):
            if any(not low <= n <= high for n in getattr(self, key)):
                raise ConfigInvalid(f"config key {key!r} needs values from {low} to {high}")
        if not self.message:
            raise ConfigInvalid("message must be nonempty")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ExperimentConfig":
        """Build a config from config-file text or Python values.

        Each value is typed once, by ``config_value`` with the type of its
        field's default.
        """
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in defaults:
                raise ConfigInvalid(f"unknown config key {key!r}")
            kwargs[key] = config_value(key, value, type(defaults[key]))
        return cls(**kwargs)


def config_value(key: str, value, kind: type):
    """A config value typed as ``kind``: text "1,2,4", a sequence, or one
    integer for tuple; text or an int for int; anything for str. A value that
    does not fit, a boolean included, raises ``ConfigInvalid`` naming ``key``."""
    parsers = {tuple: _to_ints, int: _to_int, str: str}
    try:
        return parsers[kind](value)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"config key {key!r} needs integers, got {value!r}") from None


def check_report(report: CheatReport, instance: str, attack: str) -> None:
    """Raise ``InvariantViolation`` when s exceeds its closed-form bound by more
    than ``EXACT_TOL``, or when the report's proof chain does not hold; the
    violation names the chain's four numbers, never the outcome table."""
    if report.margin < -EXACT_TOL:
        raise InvariantViolation(f"negative margin {report.margin!r} for {instance}/{attack}")
    if not report.holds():
        links = ", ".join(f"{name}={getattr(report, name)!r}"
                          for name in ("s", "trace_distance", "convex_sum", "bound"))
        raise InvariantViolation(f"proof chain failed for {instance}/{attack}: {links}")


def _to_int(value) -> int:
    if isinstance(value, bool):  # operator.index would take True as 1
        raise ValueError("a boolean is not a config integer")
    return int(value) if isinstance(value, str) else operator.index(value)


def _to_ints(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = value.split(",")
    elif not isinstance(value, (list, tuple)):
        value = (value,)
    return tuple(_to_int(v) for v in value)


def _garbage_labels(count: int) -> list[str]:
    return [f"junk{i}" for i in range(count)]


def _pictures(count: int) -> list[str]:
    return [f"pic{i + 1}" for i in range(count)]


def _sweep_instances(cfg: ExperimentConfig) -> list[tuple[str, SealedInstance]]:
    instances: list[tuple[str, SealedInstance]] = [
        ("naive", seal_naive(cfg.message, garbage="junk0"))
    ]
    for n_g in cfg.garbage_sizes:
        instances.append((f"garbage-{n_g}", seal_garbage(cfg.message, _garbage_labels(n_g))))
    for n in cfg.picture_counts:
        instances.append((f"multipicture-{n}", seal_multipicture(_pictures(n))))
    return instances


def _split_predicate(inst: SealedInstance) -> dict[str, int]:
    labels = sorted(inst.reference.c_labels())
    half = len(labels) // 2
    return {label: int(i < half) for i, label in enumerate(labels)}


def _checked_row(name: str, attack: str, report: CheatReport) -> SweepRow:
    check_report(report, name, attack)
    return SweepRow(name, attack, report.p, report.s, report.bound, report.margin)


def run_bound_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """One row per (instance, attack, trial); raises on any broken inequality.

    Every row's proof chain is checked. A chain reads its report's outcome
    masses, so it has no size cap: every garbage size and picture count gets
    its named rows chained. Random rows run only where |B|*|C| is within
    ``DENSE_DIM_CAP``, as one ``random_strategy_sweeps`` over those instances:
    one seeding per run, and instances of one |C| share each chunk's draw.
    Every instance's named rows are checked first, in instance order; then
    each chunk's reports are checked and turned into rows as they come, so the
    sweep holds rows, not reports. Rows print in instance order, each
    instance's named rows before its random rows in trial order. The default
    run at 100 trials, CSV included, takes 0.0207-0.0217 s in process
    (``perfbench/run.py --workload bound-sweep``, medians of 10 runs at seeds
    8191 and 31337, at the benchmark's reference speed, on the machine
    ``random_strategy_sweeps`` names).
    """
    if cfg.experiment != "bound-sweep":
        raise ConfigInvalid("config is not a bound-sweep configuration")
    instances = _sweep_instances(cfg)
    # basis_cheat's and predicate_cheat's strategies, run as one sparse_reports.
    named = iter(sparse_reports([strategy for _, inst in instances for strategy in (
        (inst, ProjPartition.finest(inst.reference.c_labels())),
        (inst, predicate_partition(inst, _split_predicate(inst))))]))
    rows: list[list[SweepRow]] = []
    for (name, _), basis, predicate in zip(instances, named, named):
        # The generic cheat runs the honest unseal, a basis readout of C,
        # coherently: it is the basis cheat under its own row label.
        rows.append([_checked_row(name, attack, report) for attack, report in
                     (("generic", basis), ("basis", basis), ("predicate-split", predicate))])
    # Random strategies run only while |B|*|C| is within DENSE_DIM_CAP.
    # Their chains need no cap; the guard fixes which rows bound-sweep
    # prints, and so the rows its recorded reference holds.
    swept = [i for i, (_, inst) in enumerate(instances)
             if len(inst.reference.b_labels()) * len(inst.reference.c_labels()) <= DENSE_DIM_CAP]
    if cfg.trials:
        chunks = random_strategy_sweeps([instances[i][1] for i in swept], cfg.trials, cfg.seed)
        for k, first, reports in chunks:
            name = instances[swept[k]][0]
            rows[swept[k]].extend(_checked_row(name, f"random-{t}", report)
                                  for t, report in enumerate(reports, first))
    return [row for instance_rows in rows for row in instance_rows]


def run_multipicture_scaling(n_values: Sequence[int]) -> list[ScalingRow]:
    """Optimal post-collapse acceptance per picture count, from the states.

    The counts must increase, so that detection must increase with them.
    """
    if any(n < 2 for n in n_values):
        raise ConfigInvalid("picture counts must be at least 2")
    for earlier, n in zip(n_values, n_values[1:]):
        if n <= earlier:
            raise ConfigInvalid(f"picture counts must increase, got {n} after {earlier}")
    rows = []
    previous = -1.0
    for n in n_values:
        inst = seal_multipicture(_pictures(n))
        accept, _state = optimal_post_collapse_response(inst, "1")
        detection = 1.0 - accept
        if detection <= previous:
            raise InvariantViolation(
                f"detection is not increasing at n={n}: {detection!r}"
            )
        previous = detection
        rows.append(ScalingRow(n, accept, detection))
    return rows


def run_oaep_negligibility(k0_values: Sequence[int], r_sizes: Sequence[int]) -> list[NegligibilityRow]:
    """Divergence mass 1 - overlap, computed from sealed states, per grid cell.

    Every context uses the reference master key and n = 16. A row reads only
    the pads' amplitudes, each 2^(-k0/2) whatever n is, so n changes no row.
    ``ExperimentConfig`` holds every size to at most 2^k0 before this seals.
    """
    rows = []
    for k0 in k0_values:
        ctx = oaep_mod.OaepContext.create(k0=k0, n=16, with_human=False)
        inst = oaep_mod.seal_oaep(0, ctx)
        for r_size in r_sizes:
            excluded = set(range(r_size))
            divergence = 1.0 - oaep_mod.tu_overlap(inst, excluded)
            closed_form = oaep_mod.useless_query_bound(ctx, excluded)
            if abs(divergence - closed_form) > EXACT_TOL:
                raise InvariantViolation(
                    f"state-vector divergence {divergence!r} disagrees with "
                    f"closed form {closed_form!r} at k0={k0}, |R|={r_size}"
                )
            rows.append(NegligibilityRow(k0, r_size, divergence))
    return rows


def _field_names(rows: Sequence) -> list[str]:
    """The header: the first row's dataclass fields, or ``SweepRow``'s for no rows."""
    return [f.name for f in fields(rows[0] if rows else SweepRow)]


def rows_to_csv(rows: Sequence) -> str:
    """CSV text with the dataclass fields as header, doubles at 17 digits: one ``%`` format
    from the first row (``%.17g`` for a float, ``%s`` otherwise) for every row."""
    names = _field_names(rows)
    lines = [",".join(names)]
    if rows:
        values = operator.attrgetter(*names)
        line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in values(rows[0]))
        lines += [line % values(row) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence) -> str:
    names = _field_names(rows)
    payload = [{n: getattr(row, n) for n in names} for row in rows]
    return json.dumps(payload, indent=2) + "\n"
