import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseal import harness
from qseal.cli import load_config, main
from qseal.protocols import instance_from_dict, instance_to_dict


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

    def test_missing_protocol_fails(self, capsys):
        assert run_cli("seal") == 1

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

    def test_random_attacks_are_seeded(self, naive_instance, capsys):
        assert run_cli("--seed", "5", "cheat", "--instance", str(naive_instance),
                       "--attack", "random", "--trials", "3") == 0
        first = json.loads(capsys.readouterr().out)
        assert run_cli("--seed", "5", "cheat", "--instance", str(naive_instance),
                       "--attack", "random", "--trials", "3") == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert len(first) == 3
        assert all(row["margin"] >= -1e-9 for row in first)


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

    def test_invariant_violation_exits_two(self, monkeypatch):
        def explode(cfg):
            raise harness.InvariantViolation("synthetic violation")

        monkeypatch.setattr(harness, "run_bound_sweep", explode)
        monkeypatch.setattr("qseal.cli.run_bound_sweep", explode)
        assert run_cli("experiment", "bound-sweep") == 2

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

    def test_bad_hex_key(self, capsys):
        assert run_cli("seal", "--protocol", "oaep", "--k0", "4", "--n", "8",
                       "--key", "00zz") == 1
        self.assert_one_line_error(capsys)

    def test_unknown_seal_config_key(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("protocol = naive\nmesage = Hello\n")
        assert run_cli("--config", str(config), "seal") == 1
        assert "'mesage'" in self.assert_one_line_error(capsys)

    def test_bound_sweep_past_the_chain_cap(self, tmp_path, capsys):
        # garbage-512 has a joint support of 513 keys, one past DENSE_DIM_CAP,
        # so its proof chain cannot be checked and the sweep fails.
        config = tmp_path / "exp.cfg"
        config.write_text("trials = 1\ngarbage_sizes = 512\npicture_counts = 2\n")
        assert run_cli("--config", str(config), "experiment", "bound-sweep") == 1
        err = self.assert_one_line_error(capsys)
        assert "joint basis has dimension 513, cap is 512" in err

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
    """A deep copy of ``doc`` with the entry at ``path`` set to ``value``, or deleted if it is ``...``."""
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
        ],
        ids=["numeric-labels", "bool-amplitude", "missing-amps", "numeric-decode",
             "list-decode", "missing-protocol"],
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
        ],
        ids=["text-weight", "bool-weight", "numeric-label", "missing-amps",
             "non-list-members", "numeric-state-labels", "empty-object", "array"],
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
