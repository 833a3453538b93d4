import contextlib
import copy
import dataclasses
import io
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_sum
from qseal import adversary, harness, protocols, states
from qseal.cli import load_config, main
from qseal.oaep import OaepContext, seal_oaep
from qseal.protocols import instance_from_dict, instance_to_dict
from qseal.states import SUPPORT_CAP, TRIALS_CAP


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def naive_instance(tmp_path):
    path = tmp_path / "naive.json"
    assert run_cli("--out", str(path), "seal", "--protocol", "naive", "--message", "M") == 0
    return path


class TestSeal:
    def test_naive_instance_file(self, naive_instance):
        data = json.loads(naive_instance.read_text())
        assert data["protocol"] == "naive"
        assert len(data["reference"]["amps"]) == 2
        assert data["decode"]["M"] == "M"

    def test_garbage_with_comma_list(self, tmp_path, capsys):
        assert run_cli("seal", "--protocol", "garbage", "--message", "M",
                       "--garbage", "g0,g1,g2") == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["reference"]["amps"]) == 4

    def test_multipicture(self, tmp_path, capsys):
        assert run_cli("seal", "--protocol", "multipicture", "--pictures", "a,b,c") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["protocol"] == "multipicture"
        assert len(data["reference"]["amps"]) == 3

    def test_oaep(self, tmp_path):
        path = tmp_path / "oaep.json"
        assert run_cli("--out", str(path), "seal", "--protocol", "oaep",
                       "--y", "77", "--k0", "4", "--n", "8") == 0
        data = json.loads(path.read_text())
        assert data["params"]["y"] == 77
        assert len(data["reference"]["amps"]) == 16

    @pytest.mark.parametrize("argv, message", [
        ([], "unknown or missing protocol None"),
        (["--protocol", "multipicture"], "multipicture seal needs --pictures"),
    ], ids=["protocol", "pictures"])
    def test_missing_parameter_fails(self, capsys, argv, message):
        assert run_cli("seal", *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file_supplies_parameters(self, tmp_path, capsys):
        config = tmp_path / "seal.cfg"
        config.write_text("protocol = naive\nmessage = FromConfig\n")
        assert run_cli("--config", str(config), "seal") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["message"] == "FromConfig"

    @pytest.mark.parametrize(
        "config, flags",
        [
            ("protocol = naive\nmessage = 007\n", ["--protocol", "naive", "--message", "007"]),
            ("protocol = garbage\nmessage = 1e3\n", ["--protocol", "garbage", "--message", "1e3"]),
            ("protocol = oaep\nk0 = 4\nn = 8\ny = 9\nkey = 0011223344556677\n",
             ["--protocol", "oaep", "--k0", "4", "--n", "8", "--y", "9",
              "--key", "0011223344556677"]),
            ("protocol = multipicture\npictures = a,b,c\n",
             ["--protocol", "multipicture", "--pictures", "a,b,c"]),
            ("protocol = multipicture\npictures = 01,02,1e3\n",
             ["--protocol", "multipicture", "--pictures", "01,02,1e3"]),
        ],
        ids=["message-007", "message-1e3", "decimal-digit-key", "pictures",
             "numeric-pictures"],
    )
    def test_config_value_seals_like_the_flag(self, tmp_path, config, flags):
        path = tmp_path / "seal.cfg"
        path.write_text(config)
        from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
        assert run_cli("--config", str(path), "--out", str(from_config), "seal") == 0
        assert run_cli("--out", str(from_flags), "seal", *flags) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_flag_beats_config_value(self, tmp_path, capsys):
        config = tmp_path / "seal.cfg"
        config.write_text("protocol = naive\nmessage = FromConfig\n")
        assert run_cli("--config", str(config), "seal", "--message", "FromFlag") == 0
        assert json.loads(capsys.readouterr().out)["params"]["message"] == "FromFlag"


class TestUnseal:
    def test_naive_unseal_outputs_result(self, naive_instance, capsys):
        assert run_cli("--seed", "1", "unseal", "--instance", str(naive_instance)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["message"] in ("M", None)
        assert data["success"] is (data["message"] == "M")

    def test_oaep_unseal_recovers_bits(self, tmp_path, capsys):
        path = tmp_path / "oaep.json"
        run_cli("--out", str(path), "seal", "--protocol", "oaep",
                "--y", "5", "--k0", "2", "--n", "4")
        assert run_cli("unseal", "--instance", str(path)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"message": "0101", "success": True}

    def test_missing_instance_file(self, capsys):
        assert run_cli("unseal", "--instance", "/nonexistent.json") == 1


class TestCheat:
    def test_basis_attack_report(self, naive_instance, capsys):
        assert run_cli("cheat", "--instance", str(naive_instance), "--attack", "basis") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["attack"] == "basis"
        assert data["s"] == pytest.approx(0.5, abs=1e-12)
        assert data["margin"] > 0.35

    def test_predicate_attack(self, naive_instance, capsys):
        assert run_cli("cheat", "--instance", str(naive_instance),
                       "--attack", "predicate", "--predicate-true", "M") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["s"] == pytest.approx(0.5, abs=1e-12)

    def test_predicate_labels_are_stripped(self, capsys):
        path = str(GOLDEN / "seal-garbage.json")
        printed = []
        for labels in ("Hello, g0", "Hello,g0"):
            assert run_cli("cheat", "--instance", path, "--attack", "predicate",
                           "--predicate-true", labels) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert json.loads(printed[0])["outcome_table"][1][:2] == ["g=1", pytest.approx(2 / 3)]

    def test_predicate_with_every_label_true(self, tmp_path, capsys):
        # Membership is tested against a set, so this list of every C label costs
        # O(|C|) lookups; one outcome holds the whole state, so s = 0.
        path = tmp_path / "oaep8.json"
        assert run_cli("--out", str(path), "seal", "--protocol", "oaep", "--k0", "8") == 0
        labels = [c for _, c, _, _ in json.loads(path.read_text())["reference"]["amps"]]
        assert len(set(labels)) == 256
        assert run_cli("cheat", "--instance", str(path), "--attack", "predicate",
                       "--predicate-true", ",".join(labels)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outcome_table"] == [["g=1", 1.0, 1.0]]
        assert data["s"] == 0.0

    def test_random_attacks_are_seeded(self, naive_instance, capsys):
        assert run_cli("--seed", "5", "cheat", "--instance", str(naive_instance),
                       "--attack", "random", "--trials", "3") == 0
        first = json.loads(capsys.readouterr().out)
        assert run_cli("--seed", "5", "cheat", "--instance", str(naive_instance),
                       "--attack", "random", "--trials", "3") == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert len(first) == 3
        assert all(row["margin"] >= -1e-12 for row in first)


GOLDEN = Path(__file__).parent / "data" / "cli"
GOLDEN_SEALS = {
    "naive": ["--protocol", "naive", "--message", "Hello"],
    "garbage": ["--protocol", "garbage", "--message", "Hello", "--garbage", "g0,g1,g2"],
    "multipicture": ["--protocol", "multipicture", "--pictures", "pic1,pic2,pic3,pic4"],
    "oaep": ["--protocol", "oaep", "--k0", "4", "--y", "77"],
}


class TestGoldenOutput:
    """``seal`` and the deterministic ``cheat`` attacks reproduce committed bytes.

    Random attacks are left out: their unitaries go through BLAS, whose
    rounding differs between platforms.
    """

    @pytest.mark.parametrize("protocol", GOLDEN_SEALS)
    def test_seal_and_cheat_bytes(self, tmp_path, protocol):
        sealed = tmp_path / "seal.json"
        assert run_cli("--out", str(sealed), "seal", *GOLDEN_SEALS[protocol]) == 0
        assert sealed.read_bytes() == (GOLDEN / f"seal-{protocol}.json").read_bytes()
        for attack in ("generic", "basis"):
            report = tmp_path / f"{attack}.json"
            assert run_cli("--out", str(report), "cheat", "--instance", str(sealed),
                           "--attack", attack) == 0
            expected = GOLDEN / f"cheat-{protocol}-{attack}.json"
            assert report.read_bytes() == expected.read_bytes()


    def test_bound_sweep_named_rows_bytes(self, tmp_path):
        # With no random trials every row comes from a named, sparse attack.
        out = tmp_path / "named.csv"
        assert run_cli("--out", str(out), "experiment", "bound-sweep", "--trials", "0") == 0
        assert out.read_bytes() == (GOLDEN.parent / "bound_sweep_named.csv").read_bytes()

    def test_multi_scaling_bytes(self, tmp_path):
        # Picture counts whose acceptances 1/n print all 17 digits.
        stem = GOLDEN.parent / "multi_scaling"
        out = tmp_path / "scaling.csv"
        assert run_cli("--config", f"{stem}.cfg", "--out", str(out), "experiment", "multi-scaling") == 0
        assert out.read_bytes() == stem.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize(
        "config, fmt",
        [("even", "csv"), ("even", "json"), ("odd", "csv"), ("cap", "csv"), ("grid", "csv")],
    )
    def test_oaep_negligibility_bytes(self, tmp_path, config, fmt):
        # Odd k0 gives inexact amplitudes, so the last bits of the overlap show;
        # "cap" cuts up to half the pads at k0 = 15 and 16 (SUPPORT_CAP), and
        # "grid" at 11 sizes from none to every pad of k0 = 15.
        stem = GOLDEN.parent / f"oaep_negligibility_{config}"
        out = tmp_path / f"rows.{fmt}"
        assert run_cli("--config", f"{stem}.cfg", "--format", fmt, "--out", str(out),
                       "experiment", "oaep-negligibility") == 0
        assert out.read_bytes() == stem.with_suffix(f".{fmt}").read_bytes()


def sum_exactly(monkeypatch):
    """Make every ``math.fsum`` in qseal ``exact_sum``; the returned list counts
    the calls, so a test can show that qseal summed through it."""
    calls = []

    def counted(values):
        calls.append(None)
        return exact_sum(values)

    monkeypatch.setattr(math, "fsum", counted)
    return calls


class TestGoldenOutputUnderExactSum(TestGoldenOutput):
    """The same bytes when every ``math.fsum`` is a ``Fraction`` sum rounded
    once: the goldens hold the correctly rounded sums, not one route to them."""

    @pytest.fixture(autouse=True)
    def exact(self, monkeypatch):
        calls = sum_exactly(monkeypatch)
        yield
        assert calls


class TestExactSum:
    """``exact_sum`` is the correctly rounded sum, and qseal prints the same under it."""

    def test_known_sums(self):
        assert exact_sum([0.1] * 10) == 1.0
        assert exact_sum([0.1, 0.2]) == 0.30000000000000004
        assert exact_sum([1e16, 1.0, -1e16]) == 1.0
        assert repr(exact_sum([])) == "0.0"

    def test_equals_math_fsum(self):
        rng = random.Random(0)
        for n in range(200):
            xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-9, 9) for _ in range(n)]
            for values in (xs, xs[::-1], [1e100, *xs, -1e100]):
                assert repr(exact_sum(values)) == repr(math.fsum(values))

    def test_odd_oaep_overlap_is_the_golden_value(self):
        # The useless-pad overlap at k0 = 11, |R| = 8, as the kept squared
        # moduli over all of them, each mass summed exactly and by fsum, gives
        # the value line 21 of oaep_negligibility_odd.csv holds.
        inst = seal_oaep(0, OaepContext.create(k0=11, n=16, with_human=False))
        squares = {int(b, 2): abs(a) ** 2 for (b, _), a in inst.reference.amps.items()}
        divergences = []
        for add in (exact_sum, math.fsum):
            kept = add(sq for r, sq in squares.items() if r >= 8)
            divergences.append(1.0 - kept / add(squares.values()))
        assert divergences == [0.00390625] * 2

    def test_multi_scaling_and_unseal_print_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        sealed = tmp_path / "garbage-16.json"
        assert run_cli("--out", str(sealed), "seal", "--protocol", "garbage",
                       "--garbage", ",".join(f"g{i}" for i in range(16))) == 0

        def printed():
            assert run_cli("experiment", "multi-scaling") == 0
            for seed in range(4):
                assert run_cli("--seed", str(seed), "unseal", "--instance", str(sealed)) == 0
            return capsys.readouterr().out

        plain = printed()
        calls = sum_exactly(monkeypatch)
        assert printed() == plain
        assert calls


class TestVerify:
    def test_returning_the_reference_is_believed(self, naive_instance, tmp_path, capsys):
        instance = json.loads(naive_instance.read_text())
        returned = tmp_path / "returned.json"
        returned.write_text(json.dumps(instance["reference"]))
        assert run_cli("verify", "--instance", str(naive_instance),
                       "--returned", str(returned)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"believe": True, "accept_probability": 1.0}

    def test_ensemble_file_is_accepted(self, naive_instance, tmp_path, capsys):
        instance = json.loads(naive_instance.read_text())
        amps = instance["reference"]["amps"]
        members = [
            {"weight": 0.5, "state": {"amps": [[b, c, 1.0, 0.0]]}}
            for b, c, _, _ in amps
        ]
        returned = tmp_path / "mixed.json"
        returned.write_text(json.dumps({"members": members}))
        assert run_cli("verify", "--instance", str(naive_instance),
                       "--returned", str(returned)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["accept_probability"] == pytest.approx(0.5, abs=1e-12)


class TestExperiment:
    def test_bound_sweep_csv(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "trials = 2\ngarbage_sizes = 1,4\npicture_counts = 2,4\n"
        )
        out = tmp_path / "rows.csv"
        assert run_cli("--config", str(config), "--out", str(out),
                       "experiment", "bound-sweep") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "protocol,attack,p,s_exact,bound,margin"
        assert len(lines) == 1 + 5 * 5

    def test_bound_sweep_at_the_chain_cap(self, tmp_path, capsys):
        # garbage-511 has a joint support of 512 keys, exactly DENSE_DIM_CAP.
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 1\ngarbage_sizes = 511\npicture_counts = 2\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 0
        lines = capsys.readouterr().out.splitlines()
        # naive and multipicture-2 get 3 named rows and 1 random row each;
        # garbage-511 is past the random-strategy guard and gets 3.
        assert len(lines) == 1 + 4 + 3 + 4
        assert sum(line.startswith("garbage-511,") for line in lines) == 3

    def test_reports_are_reproducible(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 2\ngarbage_sizes = 1\npicture_counts = 2\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("--config", str(config), "--out", str(a), "experiment", "bound-sweep")
        run_cli("--config", str(config), "--out", str(b), "experiment", "bound-sweep")
        assert a.read_bytes() == b.read_bytes()

    def test_multi_scaling_stdout(self, capsys):
        assert run_cli("experiment", "multi-scaling") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,optimal_accept,detection"
        n, accept, detection = lines[1].split(",")
        assert n == "2"
        assert float(accept) == pytest.approx(0.5, abs=1e-12)
        assert float(detection) == pytest.approx(0.5, abs=1e-12)

    def test_oaep_negligibility_json(self, tmp_path):
        out = tmp_path / "rows.json"
        assert run_cli("--format", "json", "--out", str(out),
                       "experiment", "oaep-negligibility") == 0
        rows = json.loads(out.read_text())
        assert {"k0", "r_size", "divergence"} == set(rows[0])

    def test_degenerate_overlap_warns_on_one_line(self, tmp_path, capsysbinary):
        config = tmp_path / "exp.cfg"
        config.write_text("oaep_k0 = 2\nrset_sizes = 0,4\n")
        assert run_cli("--config", str(config), "experiment", "oaep-negligibility") == 0
        captured = capsysbinary.readouterr()
        assert captured.out == b"k0,r_size,divergence\n2,0,0\n2,4,1\n"
        assert captured.err == (
            b"warning: excluded set covers every pad; overlap is 0 by convention\n"
        )

    def test_invariant_violation_exits_two(self, monkeypatch):
        def explode(cfg):
            raise harness.InvariantViolation("synthetic violation")

        monkeypatch.setattr(harness, "run_bound_sweep", explode)
        monkeypatch.setattr("qseal.cli.run_bound_sweep", explode)
        assert run_cli("experiment", "bound-sweep") == 2

    def test_broken_random_rows_of_one_instance_name_it(self, monkeypatch, capsys):
        # Only multipicture-2's random reports break. It shares |C| = 2, and so
        # each chunk's draw, with naive and garbage-1, whose rows hold.
        rotate = adversary._rotated_branches

        def break_multipicture_2(inst, *args):
            reports = rotate(inst, *args)
            if inst.protocol == protocols.MULTIPICTURE and len(inst.reference.c_labels()) == 2:
                reports = [dataclasses.replace(r, bound=r.s - 1.0) for r in reports]
            return reports

        monkeypatch.setattr(adversary, "_rotated_branches", break_multipicture_2)
        assert run_cli("experiment", "bound-sweep", "--trials", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invariant violation: negative margin ")
        assert captured.err.endswith(" for multipicture-2/random-0\n")

    def test_negligibility_off_its_closed_form_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("qseal.oaep.useless_query_bound", lambda ctx, excluded: 0.5)
        config = tmp_path / "exp.cfg"
        config.write_text("oaep_k0 = 4\nrset_sizes = 2\n")
        assert run_cli("--config", str(config), "experiment", "oaep-negligibility") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invariant violation: state-vector divergence 0.125 disagrees "
                                "with closed form 0.5 at k0=4, |R|=2\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary, fmt):
        out = tmp_path / f"rows.{fmt}"
        assert run_cli("--format", fmt, "--out", str(out), "experiment", "multi-scaling") == 0
        assert run_cli("--format", fmt, "experiment", "multi-scaling") == 0
        assert out.read_bytes() == capsysbinary.readouterr().out

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "rows.csv"
        assert run_cli("--out", str(out), "experiment", "multi-scaling") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @staticmethod
    def sweep(tmp_path, config_lines, *seed_flag):
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 2\ngarbage_sizes = 1\npicture_counts = 2\n" + config_lines)
        out = tmp_path / "rows.csv"
        assert run_cli(*seed_flag, "--config", str(config), "--out", str(out),
                       "experiment", "bound-sweep") == 0
        return out.read_bytes()

    def test_seed_flag_beats_config_seed(self, tmp_path):
        seed_5 = self.sweep(tmp_path, "", "--seed", "5")
        assert seed_5 != self.sweep(tmp_path, "", "--seed", "3")
        assert self.sweep(tmp_path, "seed = 3\n", "--seed", "5") == seed_5

    def test_config_seed_is_used_without_the_flag(self, tmp_path):
        seed_3 = self.sweep(tmp_path, "", "--seed", "3")
        assert seed_3 != self.sweep(tmp_path, "")
        assert self.sweep(tmp_path, "seed = 3\n") == seed_3

    def test_bad_config_key_exits_one(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("bogus = 1\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 1



class TestSeedOnlyConfig:
    """unseal, cheat and verify take ``seed`` from ``--config`` and no other key.

    Each command's output depends on the seed: seed 3 unseals another
    picture, draws other strategies and believes a half-accepted return,
    where seed 0 does not.
    """

    @pytest.fixture
    def argv(self, tmp_path, request):
        pictures = tmp_path / "pictures.json"
        assert run_cli("--out", str(pictures), "seal", "--protocol", "multipicture",
                       "--pictures", "p1,p2,p3,p4,p5,p6,p7,p8") == 0
        naive = tmp_path / "naive.json"
        assert run_cli("--out", str(naive), "seal", "--protocol", "naive", "--message", "M") == 0
        branch = tmp_path / "branch.json"
        branch.write_text(json.dumps({"amps": [["M", "M", 1.0, 0.0]]}))
        return {
            "unseal": ["unseal", "--instance", str(pictures)],
            "cheat": ["cheat", "--instance", str(naive), "--attack", "random", "--trials", "2"],
            "verify": ["verify", "--instance", str(naive), "--returned", str(branch)],
        }[request.param]

    @staticmethod
    def output(capsysbinary, *argv):
        assert run_cli(*argv) == 0
        return capsysbinary.readouterr().out

    @pytest.mark.parametrize("argv", ["unseal", "cheat", "verify"], indirect=True)
    def test_config_seed_runs_like_the_flag(self, argv, tmp_path, capsysbinary):
        config = tmp_path / "seed.cfg"
        config.write_text("seed = 3\n")
        from_config = self.output(capsysbinary, "--config", str(config), *argv)
        assert from_config == self.output(capsysbinary, "--seed", "3", *argv)
        assert from_config != self.output(capsysbinary, *argv)
        assert self.output(capsysbinary, "--seed", "0", "--config", str(config), *argv) == (
            self.output(capsysbinary, *argv))

    @pytest.mark.parametrize("argv", ["unseal", "cheat", "verify"], indirect=True)
    @pytest.mark.parametrize("line, message", [
        ("bogus = 1", "error: unknown config key 'bogus'"),
        ("trials = 2", "error: unknown config key 'trials'"),
        ("seed = -1", "error: config key 'seed' must be nonnegative, got -1"),
        ("seed = x", "error: config key 'seed' needs integers, got 'x'"),
    ])
    def test_other_keys_and_bad_seeds_exit_one(self, argv, tmp_path, capsys, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        assert run_cli("--config", str(config), *argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")

class TestErrorExitCodes:
    """Ordinary errors exit 1 with a one-line ``error:`` message, no traceback."""

    @staticmethod
    def assert_one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_malformed_instance_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"protocol": "naive", ')
        assert run_cli("cheat", "--instance", str(path)) == 1
        self.assert_one_line_error(capsys)

    def test_returned_state_off_by_a_thousandth(self, naive_instance, tmp_path, capsys):
        reference = json.loads(naive_instance.read_text())["reference"]
        scale = 1.0 + 1e-3
        returned = tmp_path / "returned.json"
        returned.write_text(json.dumps(
            {"amps": [[b, c, re * scale, im * scale] for b, c, re, im in reference["amps"]]}
        ))
        assert run_cli("verify", "--instance", str(naive_instance),
                       "--returned", str(returned)) == 1
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("where", ["amplitude", "weight"])
    def test_returned_nan(self, naive_instance, tmp_path, capsys, where):
        reference = json.loads(naive_instance.read_text())["reference"]
        if where == "amplitude":
            data = {"amps": reference["amps"] + [["x", "x", math.nan, 0.0]]}
        else:
            data = {"members": [{"weight": math.nan, "state": reference},
                                {"weight": 1.0, "state": reference}]}
        returned = tmp_path / "returned.json"
        returned.write_text(json.dumps(data))
        assert "NaN" in returned.read_text()
        assert run_cli("verify", "--instance", str(naive_instance),
                       "--returned", str(returned)) == 1
        self.assert_one_line_error(capsys)

    def test_oaep_pad_one_bit_above_the_cap(self, capsys):
        assert run_cli("seal", "--protocol", "oaep", "--k0", "17", "--n", "8") == 1
        self.assert_one_line_error(capsys)

    # An empty key must not fall back to the reference key.
    @pytest.mark.parametrize("source, key", [("flag", ""), ("config", ""), ("flag", "00zz")],
                             ids=["empty-flag", "empty-config", "non-hex"])
    def test_bad_hex_key(self, tmp_path, capsys, source, key):
        config = tmp_path / "seal.cfg"
        config.write_text(f"key = {key}\n" if source == "config" else "")
        argv = ["--key", key] if source == "flag" else []
        assert run_cli("--config", str(config), "seal", "--protocol", "oaep",
                       "--k0", "4", "--n", "8", *argv) == 1
        err = self.assert_one_line_error(capsys)
        assert f"config key 'key' needs nonempty hex text, got {key!r}" in err

    @pytest.mark.parametrize(
        "entry, value, names",
        [
            ("key", "11" * 32, "does not decode to its own pad"),
            ("k0", ..., "params.k0"),
            ("k0", "4", "params.k0"),
            ("k0", True, "params.k0"),
        ],
        ids=["wrong-key", "missing-k0", "text-k0", "boolean-k0"],
    )
    def test_bad_oaep_params_on_unseal(self, tmp_path, capsys, entry, value, names):
        doc = json.loads((GOLDEN / "seal-oaep.json").read_text())
        path = tmp_path / "oaep.json"
        path.write_text(json.dumps(edited(doc, ("params", entry), value)))
        assert run_cli("unseal", "--instance", str(path)) == 1
        assert names in self.assert_one_line_error(capsys)

    def test_unknown_seal_config_key(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("protocol = naive\nmesage = Hello\n")
        assert run_cli("--config", str(config), "seal") == 1
        assert "'mesage'" in self.assert_one_line_error(capsys)

    def test_bound_sweep_past_the_chain_cap(self, tmp_path, capsys, monkeypatch):
        # garbage-512 has a joint support of 513 keys, one past DENSE_DIM_CAP.
        # A chain reads the outcome masses, so its named rows are chained and
        # printed; only random rows stop at the cap.
        check, chains = harness.check_report, []

        def recording_check(report, instance, attack):
            chains.append(report)
            check(report, instance, attack)

        monkeypatch.setattr(harness, "check_report", recording_check)
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 1\ngarbage_sizes = 512\npicture_counts = 2\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 4 + 3 + 4 == 1 + len(chains)
        assert sum(line.startswith("garbage-512,") for line in lines) == 3
        assert all(chain.holds() for chain in chains)

    @pytest.mark.parametrize("line", ["garbage_sizes = 65536", "picture_counts = 65537"])
    def test_label_count_past_the_support_cap(self, monkeypatch, tmp_path, capsys, line):
        def refuse(count):
            raise AssertionError("a rejected config builds no label list")

        monkeypatch.setattr(harness, "_garbage_labels", refuse)
        monkeypatch.setattr(harness, "_pictures", refuse)
        config = tmp_path / "exp.cfg"
        config.write_text(line + "\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 1
        key = line.split(" ")[0]
        assert f"config key {key!r} needs values from" in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["cheat", "--instance", str(GOLDEN / "seal-naive.json"), "--attack", "random"],
         f"trials must be from 1 to {TRIALS_CAP}, got {TRIALS_CAP + 1}"),
        (["experiment", "bound-sweep"], f"config key 'trials' needs values from 0 to {TRIALS_CAP}"),
    ], ids=["cheat", "experiment"])
    def test_trials_past_the_cap(self, monkeypatch, capsys, argv, message):
        def refuse(seeds):
            raise AssertionError("a rejected trial count seeds no trial")

        monkeypatch.setattr(adversary, "_pcg64_states", refuse)
        assert run_cli(*argv, "--trials", str(TRIALS_CAP + 1)) == 1
        assert message in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("k0", ["2", "4,2"])
    def test_rset_size_past_the_pad_space(self, monkeypatch, tmp_path, capsys, k0):
        # One past 2^2 pads, the smallest k0; 2^2 itself runs
        # (test_degenerate_overlap_warns_on_one_line).
        def refuse(y, ctx):
            raise AssertionError("a rejected excluded-set size seals nothing")

        monkeypatch.setattr("qseal.oaep.seal_oaep", refuse)
        config = tmp_path / "exp.cfg"
        config.write_text(f"oaep_k0 = {k0}\nrset_sizes = 0,5\n")
        assert run_cli("--config", str(config), "experiment", "oaep-negligibility") == 1
        assert "config key 'rset_sizes' needs values from 0 to 4" in self.assert_one_line_error(capsys)

    def test_garbage_list_past_the_support_cap(self, monkeypatch, tmp_path, capsys):
        def refuse(amps):
            raise AssertionError("a rejected label list builds no state")

        monkeypatch.setattr(protocols, "SparseState", refuse)
        config = tmp_path / "seal.cfg"
        labels = ",".join(f"junk{i}" for i in range(SUPPORT_CAP))  # the message makes one more
        config.write_text(f"protocol = garbage\ngarbage = {labels}\n")
        assert run_cli("--config", str(config), "seal") == 1
        error = self.assert_one_line_error(capsys)
        assert f"{SUPPORT_CAP} garbage labels exceed the cap of {SUPPORT_CAP - 1}" in error

    @pytest.mark.parametrize("experiment", ["bound-sweep", "oaep-negligibility"])
    def test_oaep_message_length_is_not_a_key(self, tmp_path, capsys, experiment):
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 1\noaep_n = 0\n")
        assert run_cli("--config", str(config), "experiment", experiment) == 1
        assert "unknown config key 'oaep_n'" in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("counts", ["10,4", "4,4"])
    def test_multi_scaling_counts_out_of_order(self, tmp_path, capsys, counts):
        config = tmp_path / "exp.cfg"
        config.write_text(f"picture_counts = {counts}\n")
        assert run_cli("--config", str(config), "experiment", "multi-scaling") == 1
        first, second = counts.split(",")
        assert f"got {second} after {first}" in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("line", ["k0 = abc", "y = 1.5"])
    def test_non_integer_seal_config_value(self, tmp_path, capsys, line):
        config = tmp_path / "seal.cfg"
        config.write_text(f"protocol = oaep\n{line}\n")
        assert run_cli("--config", str(config), "seal") == 1
        key = line.split(" ")[0]
        assert f"config key {key!r} needs integers" in self.assert_one_line_error(capsys)

    def test_negative_cheat_margin_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(adversary, "soundness_bound", lambda p, c: np.zeros_like(p))
        path = GOLDEN / "seal-naive.json"
        assert run_cli("cheat", "--instance", str(path), "--attack", "basis") == 2
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: negative margin -0.5")
        assert err.endswith(f"{path}/basis\n") and err.count("\n") == 1

    @pytest.mark.parametrize("attack, first", [
        (["generic"], "generic"), (["basis"], "basis"), (["predicate"], "predicate"),
        (["random", "--trials", "3"], "random-0"),
    ], ids=["generic", "basis", "predicate", "random"])
    def test_failed_cheat_chain_exits_two(self, monkeypatch, capsys, attack, first):
        # A trace distance above the convex sum breaks the chain's middle link.
        links = adversary.chain_links

        def inflated(q, c):
            detections, _, convex_sums = links(q, c)
            return detections, convex_sums + 0.5, convex_sums

        monkeypatch.setattr(adversary, "chain_links", inflated)
        path = GOLDEN / "seal-naive.json"
        assert run_cli("cheat", "--instance", str(path), "--attack", *attack) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invariant violation: proof chain failed for {path}/{first}: ")
        assert err.count("\n") == 1
        # The four numbers as name=value pairs; the outcome table is never printed.
        pairs = [pair.split("=") for pair in err.split(": ", 2)[2].rstrip("\n").split(", ")]
        assert [name for name, _ in pairs] == ["s", "trace_distance", "convex_sum", "bound"]
        s, distance, convex, bound = (float(value) for _, value in pairs)
        assert distance == convex + 0.5 and s <= bound

    def test_unknown_predicate_label(self, capsys):
        path = str(GOLDEN / "seal-garbage.json")
        assert run_cli("cheat", "--instance", path, "--attack", "predicate",
                       "--predicate-true", "Hello, typo,g9") == 1
        assert "'typo' is not a C label of the instance" in self.assert_one_line_error(capsys)
        assert run_cli("cheat", "--instance", path, "--attack", "predicate",
                       "--predicate-true", "zz,Hello,typo,zz") == 1
        assert "'zz' is not a C label of the instance" in self.assert_one_line_error(capsys)

    def test_non_integer_config_value(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 2.7\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 1
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["seal", "--protocol", "bogus"],
            ["--format", "xml", "experiment", "multi-scaling"],
            ["unseal"],
            ["experiment", "mystery"],
            ["--seed", "x", "experiment", "bound-sweep"],
        ],
        ids=["unknown-protocol", "unknown-format", "missing-instance",
             "unknown-experiment", "non-integer-seed"],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 1
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "bound-sweep", "--trials", "1"],
            ["unseal", "--instance", "{instance}"],
            ["cheat", "--instance", "{instance}", "--attack", "random"],
            ["verify", "--instance", "{instance}", "--returned", "{instance}"],
        ],
        ids=["experiment", "unseal", "cheat-random", "verify"],
    )
    def test_negative_seed_flag(self, naive_instance, capsys, argv):
        argv = [arg.format(instance=naive_instance) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--seed", "-1", *argv)
        assert exit_info.value.code == 1
        err = self.assert_one_line_error(capsys)
        assert "--seed" in err and "-1" in err

    def test_negative_config_seed(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("seed = -1\ntrials = 1\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 1
        assert "'seed'" in self.assert_one_line_error(capsys)
        config.write_text("seed = 0\ntrials = 1\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 0

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--help")
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out


NAIVE_INSTANCE = json.loads((Path(__file__).parent / "data" / "cli" / "seal-naive.json").read_text())
NAIVE_RETURNED = {"members": [{"weight": 1.0, "state": NAIVE_INSTANCE["reference"]}]}


def verify_files(instance, returned):
    """Run ``qseal verify`` on two JSON documents; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "instance.json", Path(tmp) / "returned.json"]
        for path, doc in zip(paths, (instance, returned)):
            path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--instance", str(paths[0]), "--returned", str(paths[1])])
    return code, out.getvalue(), err.getvalue()


def edited(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` set to ``value``, or deleted if it is ``...``;
    the empty path sets the whole document."""
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is ...:
        del parent[last]
    else:
        parent[last] = value
    return doc


def entry_paths(doc, prefix=()):
    """Every (key or index) path into a JSON document, the root excluded."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from entry_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestHostileJson:
    """Malformed instance and returned-state files exit 1 with one line naming the entry."""

    @staticmethod
    def assert_one_line_error(err, names):
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert names in err, err

    def test_valid_files_verify(self):
        code, out, err = verify_files(NAIVE_INSTANCE, NAIVE_RETURNED)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"believe": True, "accept_probability": 1.0}

    @pytest.mark.parametrize("name", ["naive", "garbage", "multipicture", "oaep"])
    def test_valid_instance_round_trips_byte_for_byte(self, name):
        text = (Path(__file__).parent / "data" / "cli" / f"seal-{name}.json").read_text()
        again = instance_to_dict(instance_from_dict(json.loads(text)))
        assert json.dumps(again, indent=2) + "\n" == text

    @pytest.mark.parametrize(
        "path, value, names",
        [
            (("reference", "amps", 0), [1, 1, 1.0, 0.0], "reference.amps[0]"),
            (("reference", "amps", 1, 2), True, "reference.amps[1]"),
            (("reference", "amps"), ..., 'reference needs an "amps" list'),
            (("decode", "M"), 7, "decode['M']"),
            (("decode",), ["M"], '"decode"'),
            (("protocol",), ..., "unknown protocol None"),
            ((), ["naive"], "instance must be an object, got ['naive']"),
        ],
        ids=["numeric-labels", "bool-amplitude", "missing-amps", "numeric-decode",
             "list-decode", "missing-protocol", "not-an-object"],
    )
    def test_hostile_instance(self, path, value, names):
        code, _, err = verify_files(edited(NAIVE_INSTANCE, path, value), NAIVE_RETURNED)
        assert code == 1
        self.assert_one_line_error(err, names)

    @pytest.mark.parametrize(
        "returned, names",
        [
            (edited(NAIVE_RETURNED, ("members", 0, "weight"), "1"), "members[0].weight"),
            (edited(NAIVE_RETURNED, ("members", 0, "weight"), True), "members[0].weight"),
            (edited(NAIVE_RETURNED, ("members", 0, "state", "amps", 0, 0), 0), "members[0].state.amps[0]"),
            (edited(NAIVE_RETURNED, ("members", 0, "state", "amps"), ...), "members[0].state"),
            (edited(NAIVE_RETURNED, ("members",), {"weight": 1.0}), '"members" list'),
            ({"amps": [[1, 1, 1.0, 0.0]]}, "state.amps[0]"),
            ({}, '"amps" list or a "members" list'),
            ([], '"amps" list or a "members" list'),
            # Overflowing magnitudes fail the norm or weight check as inf.
            ({"amps": [["0", "0", 1.2e154, 0.0], ["0", "1", 1.2e154, 0.0]]},
             "state is not normalized: sum of squared moduli is inf"),
            ({"amps": [["0", "0", 1e200, 0.0]]}, "state is not normalized: sum of squared moduli is inf"),
            ({"members": [{"weight": 1e308, "state": NAIVE_INSTANCE["reference"]}] * 2},
             "ensemble weights sum to inf, expected 1"),
        ],
        ids=["text-weight", "bool-weight", "numeric-label", "missing-amps",
             "non-list-members", "numeric-state-labels", "empty-object", "array",
             "overflowing-squares", "overflowing-square", "overflowing-weights"],
    )
    def test_hostile_returned(self, returned, names):
        code, _, err = verify_files(NAIVE_INSTANCE, returned)
        assert code == 1
        self.assert_one_line_error(err, names)

    @given(data=st.data(), side=st.sampled_from(["instance", "returned"]))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_files_verify_or_fail_with_one_line(self, data, side):
        doc = NAIVE_INSTANCE if side == "instance" else NAIVE_RETURNED
        path = data.draw(st.sampled_from(list(entry_paths(doc))))
        hostile = edited(doc, path, data.draw(st.just(...) | JSON_VALUES))
        files = (hostile, NAIVE_RETURNED) if side == "instance" else (NAIVE_INSTANCE, hostile)
        code, out, err = verify_files(*files)
        if code == 0:
            assert set(json.loads(out)) == {"believe", "accept_probability"}
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err


def one_amplitude_rows(count):
    return [[f"b{i}", f"c{i}", 1.0, 0.0] for i in range(count)]


class TestFileCaps:
    """A state read from a file holds at most ``SUPPORT_CAP`` amplitude rows,
    a mixture at most ``SUPPORT_CAP`` members and an instance's decode table at
    most ``SUPPORT_CAP`` entries; one past any exits 1 with one line naming the
    entry and the count, before any state or instance is built."""

    @pytest.mark.parametrize("argv", [["unseal"], ["cheat", "--attack", "basis"],
                                      ["verify", "--returned", "{instance}"]],
                             ids=["unseal", "cheat", "verify"])
    def test_instance_one_past_the_cap(self, monkeypatch, tmp_path, capsys, argv):
        def refuse(amps):
            raise AssertionError("a rejected file builds no state")

        monkeypatch.setattr(states, "SparseState", refuse)
        path = tmp_path / "instance.json"
        rows = one_amplitude_rows(SUPPORT_CAP + 1)
        path.write_text(json.dumps(edited(NAIVE_INSTANCE, ("reference", "amps"), rows)))
        command, *rest = argv
        assert run_cli(command, "--instance", str(path), *(a.format(instance=path) for a in rest)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: reference.amps has {SUPPORT_CAP + 1} rows, cap is {SUPPORT_CAP}\n")

    @pytest.mark.parametrize("returned, message", [
        ({"amps": one_amplitude_rows(SUPPORT_CAP + 1)},
         f"state.amps has {SUPPORT_CAP + 1} rows, cap is {SUPPORT_CAP}"),
        ({"members": [NAIVE_RETURNED["members"][0]] * (SUPPORT_CAP + 1)},
         f"members has {SUPPORT_CAP + 1} entries, cap is {SUPPORT_CAP}"),
    ], ids=["rows", "members"])
    def test_returned_one_past_the_cap(self, monkeypatch, returned, message):
        built, build = [], states.SparseState

        def recording(amps):
            built.append(len(amps))
            return build(amps)

        monkeypatch.setattr(states, "SparseState", recording)
        assert verify_files(NAIVE_INSTANCE, returned) == (1, "", f"error: {message}\n")
        assert built == [2]  # the instance's reference, and no returned state

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-cap", "one-past"])
    def test_decode_table_at_and_one_past_the_cap(self, monkeypatch, extra):
        # The naive instance's two outcomes, then garbage outcomes up to the cap.
        decode = NAIVE_INSTANCE["decode"] | {f"g{i}": None for i in range(SUPPORT_CAP - 2 + extra)}
        assert len(decode) == SUPPORT_CAP + extra
        instance = edited(NAIVE_INSTANCE, ("decode",), decode)
        if extra == 0:
            code, out, err = verify_files(instance, NAIVE_RETURNED)
            assert (code, err) == (0, "") and json.loads(out)["accept_probability"] == 1.0
            return

        def refuse(*args, **kwargs):
            raise AssertionError("a rejected table is not copied into an instance")

        monkeypatch.setattr(protocols, "SealedInstance", refuse)
        assert verify_files(instance, NAIVE_RETURNED) == (
            1, "", f"error: decode has {SUPPORT_CAP + 1} entries, cap is {SUPPORT_CAP}\n")


class TestConfigParsing:
    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment line\n"
            "trials = 12\n"
            "garbage_sizes = 1, 2, 4  # inline comment\n"
            "message = 007\n"
            "key = 0011223344556677\n"
            "\n"
        )
        data = load_config(path)
        assert data == {
            "trials": "12",
            "garbage_sizes": "1, 2, 4",
            "message": "007",
            "key": "0011223344556677",
        }

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(harness.ConfigInvalid):
            load_config(path)

    def test_repeated_key_exits_one(self, tmp_path, capsys):
        # Last-wins would let a line the reader skims past decide the output.
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\ntrials = 2\nseed = 2\n")
        assert run_cli("--config", str(path), "experiment", "bound-sweep") == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: config key 'seed' is repeated\n")
