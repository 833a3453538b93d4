"""The four benchmark workloads: inputs from a seed, one timed pass, and oracles.

Each workload has ``build(seed)`` (its set-up: inputs such as sealed instances
or OAEP contexts), ``run(inputs)`` (one timed pass through qseal's public API,
returning the outputs) and ``check(inputs, outputs, tally)`` (oracles run
outside the timed pass). The oracles share no code path with what they check:
trace distances and detection values come from dense numpy arithmetic, the
bound sweep is compared with rows recorded from the CLI, and the OAEP
values are closed forms or the inverse path through the human oracle.

Input sizes are fixed per workload; the seed only chooses values (rng
offsets, messages, keys, excluded pads), so ``sizes(inputs)`` is the same
for every seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qseal import adversary, cli, oaep, protocols, states

TOL = 1e-12
MARGIN_TOL = 1e-9
CHAIN_TOL = 1e-8
REFERENCE_PATH = Path(__file__).with_name("bound_sweep_reference.json")


class Tally:
    """Counts output checks; an exception inside a check counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    @contextlib.contextmanager
    def guard(self, checks: int, what: str):
        """Count ``checks`` failed checks if the block raises before finishing them."""
        before = self.attempted
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - any oracle crash is a failed check
            missing = max(1, checks - (self.attempted - before))
            self.attempted += missing
            self.failed += missing
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def _pictures(n):
    return [f"pic{i + 1}" for i in range(n)]


# ---------------------------------------------------------------- chain-sweep

@dataclass(frozen=True)
class ChainCase:
    name: str
    inst: protocols.SealedInstance
    trials: int
    rng_seed: int


class ChainSweep:
    """Acceptance criterion 6: random strategies plus a proof chain for each."""

    name = "chain-sweep"
    # (instance, trials) as in acceptance criterion 6: 1000 strategies in all.
    # A smaller plan makes the pass time depend on which few dimension-64
    # strategies the seed draws.
    PLAN = (
        ("naive", 250), ("garbage-2", 150), ("garbage-4", 150),
        ("multipicture-4", 200), ("multipicture-6", 150), ("multipicture-8", 100),
    )
    params = {"plan": [list(p) for p in PLAN], "strategies": sum(t for _, t in PLAN)}

    @staticmethod
    def seal(name: str) -> protocols.SealedInstance:
        kind, _, size = name.partition("-")
        if kind == "naive":
            return protocols.seal_naive("M", garbage="0")
        if kind == "garbage":
            return protocols.seal_garbage("M", [f"g{i}" for i in range(int(size))])
        return protocols.seal_multipicture(_pictures(int(size)))

    def build(self, seed: int, plan=PLAN) -> list[ChainCase]:
        offsets = np.random.default_rng(seed).integers(0, 2**40, size=len(plan))
        return [
            ChainCase(name, self.seal(name), trials, int(offset))
            for (name, trials), offset in zip(plan, offsets)
        ]

    def run(self, cases):
        out = []
        for case in cases:
            reports = adversary.random_strategy_sweep(case.inst, case.trials, case.rng_seed)
            out.append((reports, [adversary.proof_chain(case.inst, r) for r in reports]))
        return out

    def check(self, cases, outputs, tally: Tally) -> None:
        for case, (reports, chains) in zip(cases, outputs, strict=True):
            tally.expect(len(reports) == case.trials == len(chains), f"{case.name}: report count")
            for t, (report, chain) in enumerate(zip(reports, chains)):
                what = f"{case.name} trial {t}"
                with tally.guard(4, what):
                    td, s = dense_strategy_oracle(case.inst, case.rng_seed + t)
                    tally.expect(abs(chain.trace_distance - td) <= TOL, f"{what}: trace distance")
                    tally.expect(abs(report.s - s) <= TOL, f"{what}: s = 1 - sum q^2")
                    tally.expect(report.margin >= -MARGIN_TOL, f"{what}: margin")
                    tally.expect(chain.holds(CHAIN_TOL), f"{what}: proof chain")

    def sizes(self, cases):
        return [(c.name, c.trials, len(c.inst.reference.b_labels()) * len(c.inst.reference.c_labels()))
                for c in cases]


def dense_strategy_oracle(inst, trial_seed: int) -> tuple[float, float]:
    """Trace distance and detection s of one random strategy, densely.

    The strategy (unitary U on C, partition, undo with U^dagger) is redrawn
    from its seed exactly as ``random_strategy_sweep`` draws it; everything
    after that is numpy on the |B| x |C| amplitude matrix.
    """
    rng = np.random.default_rng(trial_seed)
    labels = sorted(inst.reference.c_labels())
    u = states.random_unitary(labels, rng)
    partition = adversary.random_partition(labels, rng)
    b_index = {b: i for i, b in enumerate(sorted(inst.reference.b_labels()))}
    c_index = {c: i for i, c in enumerate(u.basis)}
    psi = np.zeros((len(b_index), len(c_index)), dtype=complex)
    for (b, c), a in inst.reference.amps.items():
        psi[b_index[b], c_index[c]] = a
    rotated = psi @ u.matrix.T
    cells: dict[str, list[int]] = {}
    for c, i in c_index.items():
        cells.setdefault(partition.outcome_of[c], []).append(i)
    flat = psi.reshape(-1)
    delta = np.outer(flat, flat.conj())
    sum_q2 = 0.0
    for columns in cells.values():
        branch = np.zeros_like(rotated)
        branch[:, columns] = rotated[:, columns]
        q = float(np.vdot(branch, branch).real)
        sum_q2 += q * q
        undone = (branch @ u.matrix.conj()).reshape(-1)  # q * |phi><phi| unnormalized
        delta -= np.outer(undone, undone.conj())
    td = 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())
    return td, 1.0 - sum_q2


# ---------------------------------------------------------------- bound-sweep

@functools.cache
def load_reference() -> dict:
    """Rows recorded by ``record_reference.py``; read once, outside set-up timing."""
    return json.loads(REFERENCE_PATH.read_text())


class BoundSweep:
    """The user-facing command, in process: ``qseal experiment bound-sweep --trials 100``."""

    name = "bound-sweep"
    TRIALS = 100
    params = {"argv": ["--seed", "<seed mod CLI_SEEDS>", "experiment", "bound-sweep", "--trials", str(TRIALS)],
              "config": "default ExperimentConfig"}
    # The recorded reference holds rows for CLI seeds 0 .. CLI_SEEDS - 1.
    CLI_SEEDS = 64

    def build(self, seed: int) -> dict:
        cli_seed = seed % self.CLI_SEEDS
        return {"cli_seed": cli_seed, "argv": [
            "--seed", str(cli_seed), "experiment", "bound-sweep", "--trials", str(self.TRIALS)]}

    def run(self, inputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inputs["argv"])
        return code, buf.getvalue()

    def expected_rows(self, cli_seed: int) -> list[list]:
        ref = load_reference()
        rows = []
        for inst in ref["instances"]:
            rows.extend([inst["name"], *row] for row in inst["named"])
            if inst["random"] is not None:
                window = inst["random"][cli_seed:cli_seed + ref["trials"]]
                rows.extend([inst["name"], f"random-{t}", *v] for t, v in enumerate(window))
        return rows

    def check(self, inputs, outputs, tally: Tally) -> None:
        code, text = outputs
        tally.expect(code == 0, f"exit code {code}")
        ref = load_reference()
        tally.expect(ref["cli_seeds"] == self.CLI_SEEDS and ref["trials"] == self.TRIALS,
                     "reference covers this run")
        expected = self.expected_rows(inputs["cli_seed"])
        lines = text.splitlines()
        tally.expect(bool(lines) and lines[0] == ref["header"], "csv header")
        got = [line.split(",") for line in lines[1:]]
        for i, want in enumerate(expected):
            what = f"row {i} {want[0]}/{want[1]}"
            with tally.guard(1, what):
                row = got[i]
                ok = row[:2] == want[:2] and len(row) == len(want) and all(
                    abs(float(a) - b) <= TOL for a, b in zip(row[2:], want[2:]))
                tally.expect(ok, what)
        tally.expect(len(got) == len(expected), f"row count {len(got)} != {len(expected)}")

    def sizes(self, inputs):
        return len(self.expected_rows(inputs["cli_seed"]))


# ---------------------------------------------------------------- oaep-ladder

class OaepLadder:
    """``seal_oaep`` then ``basis_cheat`` up the k0 ladder; the reads dominate."""

    name = "oaep-ladder"
    # k0 = 14 would take about a minute per pass at this commit (O(support^2)).
    K0S = (8, 10, 12)
    N = 16
    params = {"k0": list(K0S), "n": N, "master_key": "REFERENCE_MASTER_KEY"}

    def build(self, seed: int) -> dict:
        y = int(np.random.default_rng(seed).integers(0, 1 << self.N))
        contexts = [oaep.OaepContext.create(k0=k0, n=self.N, with_human=False) for k0 in self.K0S]
        return {"y": y, "contexts": contexts}

    def run(self, inputs):
        return [adversary.basis_cheat(oaep.seal_oaep(inputs["y"], ctx)) for ctx in inputs["contexts"]]

    def check(self, inputs, outputs, tally: Tally) -> None:
        for k0, report in zip(self.K0S, outputs, strict=True):
            q = 2.0**-k0
            tally.expect(abs(report.s - (1.0 - q)) <= TOL, f"k0={k0}: s = 1 - 2^-k0")
            tally.expect(len(report.outcome_table) == 1 << k0, f"k0={k0}: branch count")
            tally.expect(all(abs(p - q) <= TOL and abs(acc - q) <= TOL
                             for _, p, acc in report.outcome_table), f"k0={k0}: branch rows")

    def sizes(self, inputs):
        return [ctx.params.k0 for ctx in inputs["contexts"]]


# ---------------------------------------------------------------- oaep-seal

class OaepSeal:
    """Seal at k0 = 14 and 16 (``SUPPORT_CAP``), then three ``tu_overlap`` cuts each."""

    name = "oaep-seal"
    K0S = (14, 16)
    N = 16
    ROUND_TRIPS = 32

    @staticmethod
    def excluded_sizes(k0: int) -> tuple[int, ...]:
        return (1, 1 << (k0 - 6), 1 << (k0 - 1))

    @property
    def params(self) -> dict:
        return {"k0": list(self.K0S), "n": self.N, "round_trip_samples": self.ROUND_TRIPS,
                "excluded_sizes": {k0: list(self.excluded_sizes(k0)) for k0 in self.K0S}}

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        key = rng.bytes(32)
        y = int(rng.integers(0, 1 << self.N))
        cases = []
        for k0 in self.K0S:
            ctx = oaep.OaepContext.create(k0=k0, n=self.N, master_key=key)
            excluded = [set(rng.choice(1 << k0, size=m, replace=False).tolist())
                        for m in self.excluded_sizes(k0)]
            pads = rng.choice(1 << k0, size=self.ROUND_TRIPS, replace=False).tolist()
            cases.append((ctx, excluded, pads))
        return {"y": y, "cases": cases}

    def run(self, inputs):
        out = []
        for ctx, excluded, _ in inputs["cases"]:
            inst = oaep.seal_oaep(inputs["y"], ctx)
            out.append((inst, [1.0 - oaep.tu_overlap(inst, r) for r in excluded]))
        return out

    def check(self, inputs, outputs, tally: Tally) -> None:
        y = inputs["y"]
        for (ctx, excluded, pads), (inst, divergences) in zip(inputs["cases"], outputs, strict=True):
            k0 = ctx.params.k0
            support = 1 << k0
            for r_set, div in zip(excluded, divergences, strict=True):
                tally.expect(abs(div - len(r_set) / support) <= TOL, f"k0={k0} |R|={len(r_set)}: divergence")
            amp = 1.0 / math.sqrt(support)
            tally.expect(
                len(inst.reference.amps) == support
                and len({c for _, c in inst.reference.amps}) == support
                and all(abs(a - amp) <= TOL for a in inst.reference.amps.values()),
                f"k0={k0}: uniform support of distinct tokens")
            wanted = {format(r, f"0{k0}b"): r for r in pads}
            token_of = {wanted[b]: c for b, c in inst.reference.amps if b in wanted}
            for r in pads:
                with tally.guard(1, f"k0={k0} r={r}: round trip"):
                    x = ctx.human.invert(token_of[r])
                    tally.expect(oaep.decode_preimage(ctx, x) == (y, r), f"k0={k0} r={r}: round trip")

    def sizes(self, inputs):
        return [(ctx.params.k0, [len(r) for r in excluded], len(pads))
                for ctx, excluded, pads in inputs["cases"]]


WORKLOADS = {w.name: w for w in (ChainSweep(), BoundSweep(), OaepLadder(), OaepSeal())}
