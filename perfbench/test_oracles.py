"""The benchmark's oracles fire on perturbed outputs, and its tracer is exact.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import dataclasses
import hashlib
import signal
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import qseal  # noqa: E402
from qseal import adversary, oaep, states  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import BoundSweep, ChainSweep, OaepLadder, OaepSeal, Tally  # noqa: E402


def tally_of(workload, inputs, outputs):
    tally = Tally()
    with tally.guard(1, "oracles"):
        workload.check(inputs, outputs, tally)
    return tally


def test_chain_oracles_pass_then_fire_on_perturbed_outputs():
    wl = ChainSweep()
    cases = wl.build(7, plan=(("naive", 3), ("multipicture-4", 3)))
    outputs = wl.run(cases)
    clean = tally_of(wl, cases, outputs)
    assert (clean.attempted, clean.failed) == (2 + 6 * 4, 0)

    reports, chains = (list(x) for x in outputs[0])
    reports[0] = dataclasses.replace(reports[0], s=reports[0].s + 1e-9)
    chains[1] = dataclasses.replace(chains[1], trace_distance=chains[1].trace_distance + 1e-9)
    tally = tally_of(wl, cases, [(reports, chains), *outputs[1:]])
    assert tally.failed == 2
    assert any("trace distance" in f for f in tally.failures)
    assert any("sum q^2" in f for f in tally.failures)


def test_chain_oracle_matches_library_on_every_plan_instance():
    for name, _ in ChainSweep.PLAN:
        inst = ChainSweep.seal(name)
        report = adversary.random_strategy_sweep(inst, 1, 11)[0]
        td, s = workloads.dense_strategy_oracle(inst, 11)
        assert abs(adversary.proof_chain(inst, report).trace_distance - td) <= workloads.TOL
        assert abs(report.s - s) <= workloads.TOL


def reference_csv(cli_seed):
    rows = BoundSweep().expected_rows(cli_seed)
    lines = [workloads.load_reference()["header"]]
    lines += [",".join([r[0], r[1], *(f"{v:.17g}" for v in r[2:])]) for r in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cli_seed", [0, 5, BoundSweep.CLI_SEEDS - 1])
def test_bound_sweep_oracle_accepts_the_recorded_rows(cli_seed):
    wl = BoundSweep()
    inputs = wl.build(cli_seed)
    tally = tally_of(wl, inputs, (0, reference_csv(cli_seed)))
    assert tally.failed == 0 and tally.attempted == 827 + 4


def test_bound_sweep_oracle_fires_on_perturbed_outputs():
    wl = BoundSweep()
    inputs = wl.build(5 + BoundSweep.CLI_SEEDS)
    lines = reference_csv(5).splitlines()
    name, attack, p, s, *rest = lines[100].split(",")
    nudged = lines.copy()
    nudged[100] = ",".join([name, attack, p, repr(float(s) + 1e-10), *rest])
    relabelled = lines.copy()
    relabelled[150] = relabelled[150].replace("-", "+", 1)
    assert tally_of(wl, inputs, (0, "\n".join(nudged))).failed == 1
    assert tally_of(wl, inputs, (0, "\n".join(relabelled))).failed == 1
    assert tally_of(wl, inputs, (0, "\n".join(lines[:-1]))).failed == 2
    assert tally_of(wl, inputs, (2, "")).failed >= 1


def fake_ladder_outputs(k0s, s_shift=0.0):
    outputs = []
    for k0 in k0s:
        q = 2.0**-k0
        table = tuple((f"t{i}", q, q) for i in range(1 << k0))
        outputs.append(types.SimpleNamespace(s=1.0 - q + s_shift, outcome_table=table))
    return outputs


def test_ladder_oracle_fires_on_perturbed_s():
    wl = OaepLadder()
    assert tally_of(wl, None, fake_ladder_outputs(wl.K0S)).failed == 0
    assert tally_of(wl, None, fake_ladder_outputs(wl.K0S, s_shift=1e-9)).failed == len(wl.K0S)
    assert tally_of(wl, None, fake_ladder_outputs(wl.K0S[:-1])).failed >= 1


def test_seal_oracles_fire_on_perturbed_divergence_and_swapped_tokens():
    wl = OaepSeal()
    wl.K0S = (6, 8)
    inputs = wl.build(3)
    outputs = wl.run(inputs)
    clean = tally_of(wl, inputs, outputs)
    assert clean.failed == 0 and clean.attempted == 2 * (3 + 1 + wl.ROUND_TRIPS)

    inst, divergences = outputs[0]
    tally = tally_of(wl, inputs, [(inst, [divergences[0] + 1e-9, *divergences[1:]]), outputs[1]])
    assert tally.failed == 1

    # Swap the tokens of two sampled pads, as a broken forward cache would.
    b0, b1 = (format(r, "06b") for r in inputs["cases"][0][2][:2])
    token = {b: c for b, c in inst.reference.amps if b in (b0, b1)}
    swap = {b0: token[b1], b1: token[b0]}
    amps = {(b, swap.get(b, c)): a for (b, c), a in inst.reference.amps.items()}
    swapped = dataclasses.replace(inst, reference=states.SparseState(amps))
    tally = tally_of(wl, inputs, [(swapped, divergences), outputs[1]])
    assert tally.failed == 2


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()), ids=lambda w: w.name)
def test_input_sizes_do_not_depend_on_the_seed(workload):
    sizes = {repr(workload.sizes(workload.build(seed))) for seed in (0, 1, 8191)}
    assert len(sizes) == 1


def test_tracer_self_times_and_uninstall():
    originals = {name: getattr(states, name) for name in ("squared_overlap", "apply_unitary_c")}
    create = oaep.OaepContext.__dict__["create"]
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert adversary.squared_overlap is not originals["squared_overlap"]
        assert oaep.squared_overlap is adversary.squared_overlap
        ctx, _ = tracer.root("perfbench.setup", oaep.OaepContext.create, 4, 8)
        inst, _ = tracer.root("perfbench.pass", oaep.seal_oaep, 3, ctx)
        tracer.root("perfbench.pass", adversary.basis_cheat, inst)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(states, name) is fn and getattr(adversary, name) is fn
        assert getattr(qseal, name) is fn
    assert oaep.OaepContext.__dict__["create"] is create and oaep.hashlib is hashlib

    own = tracer.self_times()
    total = sum(end - start for _, parent, _, start, end in tracer.spans if parent is None)
    assert sum(own.values()) == total
    metrics = spans.layer_metrics(tracer, "perfbench.pass", 1.0)
    assert metrics["oaep.encode.calls"][0] == 16
    assert metrics["oaep.sha256.calls"][0] == 6 * 16 + 3
    assert metrics["states.squared_overlap.calls"][0] == 16
    assert metrics["states.squared_overlap.amps_touched"][0] == 16 * (16 + 1 + 1)


def test_speed_sampler_scales_the_block_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
        wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.ticks >= 10
    assert 0.0 < sampler.probe_s < wall
    assert 0.05 < sampler.speed < 5.0
    assert sampler.reference_s(wall) == pytest.approx((wall - sampler.probe_s) * sampler.speed)
    with pytest.raises(RuntimeError):
        _ = speed.SpeedSampler().speed
