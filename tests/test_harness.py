import hashlib
import json
import math
from pathlib import Path

import pytest

from conftest import chain_excess, previous_rows_to_csv
from qseal import adversary, harness
from qseal.harness import (
    ConfigInvalid,
    ExperimentConfig,
    InvariantViolation,
    NegligibilityRow,
    ScalingRow,
    SweepRow,
    rows_to_csv,
    rows_to_json,
    run_bound_sweep,
    run_multipicture_scaling,
    run_oaep_negligibility,
)
from qseal.oaep import SUPPORT_CAP, OaepContext, useless_query_bound
from qseal.states import EXACT_TOL, TRIALS_CAP, trace_distance_pure_vs_ensemble

SMALL = ExperimentConfig(
    trials=4,
    garbage_sizes=(1, 4, 16),
    picture_counts=(2, 4),
)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.experiment == "bound-sweep"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(experiment="mystery")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"trials": -1},
            {"garbage_sizes": (0,)},
            {"picture_counts": (1,)},
            {"oaep_k0": (17,)},
            {"oaep_n": 0},
            {"rset_sizes": (-2,)},
            {"message": ""},
            {"trials": TRIALS_CAP + 1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_mapping(kwargs)

    def test_trials_at_the_cap_builds(self):
        # Built, never run: a sweep at the cap is not a test.
        assert ExperimentConfig(trials=TRIALS_CAP).trials == TRIALS_CAP

    def test_from_mapping_parses_scalars_and_lists(self):
        cfg = ExperimentConfig.from_mapping(
            {"trials": "7", "garbage_sizes": [1, 2], "picture_counts": 3, "seed": 9}
        )
        assert cfg.trials == 7
        assert cfg.garbage_sizes == (1, 2)
        assert cfg.picture_counts == (3,)
        assert cfg.seed == 9

    def test_from_mapping_types_config_text(self):
        cfg = ExperimentConfig.from_mapping(
            {"trials": "7", "garbage_sizes": "1, 2,4", "message": "007", "seed": " 3"}
        )
        assert (cfg.trials, cfg.garbage_sizes, cfg.message, cfg.seed) == (7, (1, 2, 4), "007", 3)

    @pytest.mark.parametrize(
        "data",
        [
            {"trials": "2.7"},
            {"trials": "maybe"},
            {"trials": 2.7},
            {"seed": ""},
            {"garbage_sizes": "1,2.5"},
            {"picture_counts": "2,,4"},
            {"trials": True},
            {"garbage_sizes": [True, 2]},
        ],
    )
    def test_from_mapping_rejects_non_integers(self, data):
        (key,) = data
        with pytest.raises(ConfigInvalid, match=f"config key '{key}' needs integers"):
            ExperimentConfig.from_mapping(data)

    @pytest.mark.parametrize("key, most", [
        ("garbage_sizes", SUPPORT_CAP - 1),  # the message label makes n + 1
        ("picture_counts", SUPPORT_CAP),
    ])
    def test_label_counts_are_capped_at_the_support_cap(self, monkeypatch, key, most):
        # Configs at the cap and one past it are built, never run.
        def refuse(count):
            raise AssertionError("a config check builds no label list")

        monkeypatch.setattr(harness, "_garbage_labels", refuse)
        monkeypatch.setattr(harness, "_pictures", refuse)
        assert getattr(ExperimentConfig.from_mapping({key: f"4,{most}"}), key) == (4, most)
        with pytest.raises(ConfigInvalid, match=f"config key '{key}' needs values from .* to {most}"):
            ExperimentConfig.from_mapping({key: f"4,{most + 1}"})

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_mapping({"bogus": 1})


class TestBoundSweep:
    def test_expected_named_rows(self):
        rows = run_bound_sweep(SMALL)
        by_key = {(r.protocol, r.attack): r for r in rows}
        naive = by_key[("naive", "basis")]
        assert naive.p == pytest.approx(0.5, abs=1e-12)
        assert naive.s_exact == pytest.approx(0.5, abs=1e-12)
        assert naive.bound == pytest.approx(0.8535533905932737, abs=1e-12)
        assert naive.margin == pytest.approx(0.3535533905932737, abs=1e-12)
        g16 = by_key[("garbage-16", "basis")]
        assert g16.s_exact == pytest.approx(0.75 - 1.0 / 64.0, abs=1e-12)

    def test_row_counts_and_margins(self):
        rows = run_bound_sweep(SMALL)
        # 6 instances x (3 named attacks + 4 random trials)
        assert len(rows) == 6 * 7
        assert min(r.margin for r in rows) >= -1e-12

    def test_deterministic(self):
        assert run_bound_sweep(SMALL) == run_bound_sweep(SMALL)

    def test_one_proof_chain_per_row(self, monkeypatch):
        # Tighter than ``holds()``, which allows EXACT_TOL per link: the worst
        # excess of a link over the next, or of s over its bound, measured
        # 1.35e-15 over bound-sweep at 67 seeds.
        check = harness.check_report
        reports = []

        def recording_check(report, instance, attack):
            reports.append(report)
            check(report, instance, attack)

        monkeypatch.setattr(harness, "check_report", recording_check)
        for seed in (0, 7, 8191):
            reports.clear()
            rows = run_bound_sweep(ExperimentConfig(seed=seed, trials=100))
            assert len(rows) == 827
            assert len(reports) == len(rows)
            assert max(map(chain_excess, reports)) <= 1e-13
            assert min(report.margin for report in reports) >= -1e-13

    def test_named_rows_compute_each_distance_once(self, monkeypatch):
        # generic and basis share one report, so 9 instances' 27 named rows
        # need 18 roots, found in one chain_links call per outcome count
        # (2, 3, 4, 5, 10, 17 and 65); each is the distance the states give,
        # to 1e-12.
        links, check = adversary.chain_links, harness.check_report
        calls, chains = [], []

        def counting_links(q, c):
            calls.append(q)
            return links(q, c)

        def recording_check(report, instance, attack):
            chains.append((instance, report))
            check(report, instance, attack)

        monkeypatch.setattr(adversary, "chain_links", counting_links)
        monkeypatch.setattr(harness, "check_report", recording_check)
        cfg = ExperimentConfig(trials=0)
        rows = run_bound_sweep(cfg)
        assert len(rows) == len(chains) == 27
        assert sum(map(len, calls)) == 18
        assert sorted(q.shape[1] for q in calls) == [2, 3, 4, 5, 10, 17, 65]
        instances = dict(harness._sweep_instances(cfg))
        for name, report in chains:
            assert report.trace_distance == pytest.approx(
                trace_distance_pure_vs_ensemble(instances[name].reference, report.returned),
                abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 8191])
    def test_trials_100_bytes(self, seed):
        # The sha256 of `qseal --seed S experiment bound-sweep --trials 100`,
        # recorded before the sweep ran its instances together.
        lines = (Path(__file__).parent / "data" / "bound_sweep_trials100.sha256").read_text()
        want = dict(line.split()[::-1] for line in lines.splitlines() if not line.startswith("#"))
        text = rows_to_csv(run_bound_sweep(ExperimentConfig(seed=seed, trials=100)))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want[f"seed-{seed}"]

    def test_named_predicate_is_validated(self, monkeypatch):
        # The named rows build their predicate partition through the checks
        # predicate_cheat runs.
        def broken_split(inst):
            return {label: 2 for label in inst.reference.c_labels()}

        monkeypatch.setattr(harness, "_split_predicate", broken_split)
        with pytest.raises(ValueError, match="^predicate values must be 0 or 1"):
            run_bound_sweep(ExperimentConfig(trials=0))

    def test_wrong_experiment_rejected(self):
        cfg = ExperimentConfig(experiment="multi-scaling")
        with pytest.raises(ConfigInvalid):
            run_bound_sweep(cfg)


class TestMultipictureScaling:
    def test_rows(self):
        rows = run_multipicture_scaling([2, 4, 10, 100])
        for row, n in zip(rows, [2, 4, 10, 100]):
            assert row.n == n
            assert row.optimal_accept == pytest.approx(1.0 / n, abs=1e-12)
            assert row.detection == pytest.approx(1.0 - 1.0 / n, abs=1e-12)

    def test_detection_is_monotone(self):
        rows = run_multipicture_scaling(range(2, 12))
        detections = [r.detection for r in rows]
        assert detections == sorted(detections)

    def test_rejects_tiny_counts(self):
        with pytest.raises(ConfigInvalid):
            run_multipicture_scaling([1])


class TestOaepNegligibility:
    def test_values_match_closed_form(self):
        rows = run_oaep_negligibility([8, 10], [0, 4])
        table = {(r.k0, r.r_size): r.divergence for r in rows}
        assert table[(8, 4)] == pytest.approx(0.015625, abs=1e-12)
        assert table[(10, 4)] == pytest.approx(0.00390625, abs=1e-12)
        assert table[(8, 0)] == 0.0

    def test_divergence_halves_per_pad_bit(self):
        rows = run_oaep_negligibility(range(4, 9), [4])
        values = [r.divergence for r in rows]
        for smaller_k0, larger_k0 in zip(values, values[1:]):
            assert larger_k0 == pytest.approx(smaller_k0 / 2.0, abs=1e-12)

    def test_oversized_exclusion_rejected(self):
        # The config refuses it before any k0 is sealed; the runner alone
        # still refuses, through the closed form's pad-space check.
        with pytest.raises(ConfigInvalid, match="^config key 'rset_sizes' needs values from 0 to 16$"):
            ExperimentConfig(oaep_k0=(8, 4), rset_sizes=(17,))
        assert ExperimentConfig(oaep_k0=(8, 4), rset_sizes=(16,)).rset_sizes == (16,)
        with pytest.raises(ValueError, match=r"^excluded pads out of range: \[16\]$"):
            run_oaep_negligibility([4], [17])

    def test_cut_near_the_cap_matches_closed_form(self):
        # Power-of-two cuts near SUPPORT_CAP, where overlap sums taken left to
        # right once drifted past EXACT_TOL from |R|/2^k0.
        for k0, r_sizes in ((15, [4, 128, 1024]), (16, [16, 128, 256, 2048, 4096, 16384])):
            ctx = OaepContext.create(k0=k0, n=16, with_human=False)
            for row in run_oaep_negligibility([k0], r_sizes):
                closed_form = useless_query_bound(ctx, set(range(row.r_size)))
                assert abs(row.divergence - closed_form) <= EXACT_TOL


class TestReports:
    def test_csv_header_and_values(self):
        rows = [SweepRow("naive", "basis", 0.5, 0.5, 0.8535533905932737, 0.3535533905932737)]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "protocol,attack,p,s_exact,bound,margin"
        fields = lines[1].split(",")
        assert fields[:2] == ["naive", "basis"]
        assert float(fields[4]) == 0.8535533905932737

    def test_seventeen_digit_floats_round_trip(self):
        value = 1.0 / 3.0
        rows = [SweepRow("x", "y", value, value, value, value)]
        parsed = [float(f) for f in rows_to_csv(rows).splitlines()[1].split(",")[2:]]
        assert all(p == value for p in parsed)

    def test_empty_rows_emit_header_only(self):
        assert rows_to_csv([]) == "protocol,attack,p,s_exact,bound,margin\n"

    def test_csv_equals_the_per_value_writer_on_real_rows(self):
        for rows in (run_bound_sweep(ExperimentConfig(seed=3, trials=5)),
                     run_multipicture_scaling([2, 3, 7, 100]),
                     run_oaep_negligibility([3, 5, 8], [0, 1, 3])):
            assert rows_to_csv(rows) == previous_rows_to_csv(rows)

    def test_csv_equals_the_per_value_writer_on_edge_values(self):
        floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308,
                  1.0 / 3.0, 1e16, 1e17, 123456789012345680.0]
        ints = [0, -1, 2**63, -(2**64) - 1, 10**40]
        rows = [SweepRow("x,y", "", x, -x, x, 0.5) for x in floats]
        assert rows_to_csv(rows) == previous_rows_to_csv(rows)
        rows = [ScalingRow(n, x, -x) for n, x in zip(ints * 3, floats)]
        assert rows_to_csv(rows) == previous_rows_to_csv(rows)
        rows = [NegligibilityRow(n, -n, x) for n, x in zip(ints * 3, floats)]
        assert rows_to_csv(rows) == previous_rows_to_csv(rows)

    def test_header_only_output_equals_the_per_value_writer(self):
        # No rows print SweepRow's header; each row type's header is its fields.
        assert rows_to_csv([]) == previous_rows_to_csv([])
        for row in (SweepRow("p", "a", 0.5, 0.5, 0.5, 0.0), ScalingRow(2, 0.5, 0.5),
                    NegligibilityRow(4, 0, 0.0)):
            assert rows_to_csv([row]) == previous_rows_to_csv([row])
            assert rows_to_csv([row]).splitlines()[0] == ",".join(type(row).__dataclass_fields__)

    def test_json_mirrors_csv_values(self):
        rows = run_multipicture_scaling([2, 4])
        csv_lines = rows_to_csv(rows).splitlines()[1:]
        json_rows = json.loads(rows_to_json(rows))
        for line, obj in zip(csv_lines, json_rows):
            n, accept, detection = line.split(",")
            assert int(n) == obj["n"]
            assert float(accept) == obj["optimal_accept"]
            assert float(detection) == obj["detection"]

    def test_row_dataclasses_carry_expected_fields(self):
        assert [f for f in ScalingRow.__dataclass_fields__] == [
            "n",
            "optimal_accept",
            "detection",
        ]
        assert [f for f in NegligibilityRow.__dataclass_fields__] == [
            "k0",
            "r_size",
            "divergence",
        ]


class TestInvariantViolationDetection:
    def test_violation_type_exists_for_cli(self):
        # The sweep itself cannot produce a violation (that would mean the
        # build is broken), so only the exception contract is checked here.
        assert issubclass(InvariantViolation, Exception)

    def test_scaling_raises_on_non_monotone_input_order(self):
        with pytest.raises(ConfigInvalid, match="got 2 after 4"):
            run_multipicture_scaling([4, 2])

    def test_scaling_raises_when_detection_stops_increasing(self, monkeypatch):
        # A constant acceptance makes detection flat across increasing counts.
        monkeypatch.setattr(harness, "optimal_post_collapse_response",
                            lambda inst, label: (0.5, None))
        with pytest.raises(InvariantViolation, match="not increasing at n=4"):
            run_multipicture_scaling([2, 4])
