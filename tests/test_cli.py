"""The command-line front end: flags, exit codes, report determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from derivring.campaign import CampaignConfig
from derivring.cli import build_parser, main, parse_ring
from derivring.errors import DomainError
from derivring.rings import PolyRing, Zmod


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDefaults:
    def test_parser_defaults_are_campaign_defaults(self):
        args = build_parser().parse_args(["verify", "theorem1"])
        for field in dataclasses.fields(CampaignConfig):
            if field.name in ("suite", "ring"):
                continue
            parsed = getattr(args, field.name)
            assert parsed == getattr(field.default, "value", field.default)


class TestParseRing:
    def test_zmod(self):
        assert parse_ring("zmod:5") == Zmod(5)

    def test_poly(self):
        assert parse_ring("poly:zmod:9") == PolyRing(Zmod(9))

    @pytest.mark.parametrize("text", ["zmod", "zmod:x", "gf:8", "poly:5", "poly:zmod:5:1"])
    def test_rejects_garbage(self, text):
        with pytest.raises(DomainError):
            parse_ring(text)


class TestVerify:
    def test_single_instance_passes(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "theorem1", "--ring", "zmod:5", "--n", "2",
             "--trials", "1", "--seed", "7"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["instances"] == 1
        assert report["failures"] == []
        assert report["config"]["seed"] == 7

    def test_even_modulus_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "theorem1", "--ring", "zmod:6", "--trials", "1"]
        )
        assert code == 2
        assert "2 is invertible" in err

    @pytest.mark.parametrize("suite", ["theorem1", "extend"])
    def test_negative_max_degree_is_config_error(self, capsys, suite):
        # a negative cap would sample only the zero polynomial and pass vacuously
        code, out, err = run_cli(
            capsys,
            ["verify", suite, "--ring", "poly:zmod:5", "--max-degree", "-1",
             "--trials", "3"],
        )
        assert code == 2
        assert out == ""
        assert "max_degree" in err

    @pytest.mark.parametrize("trials", ["0", "1"])
    @pytest.mark.parametrize("suite", ["theorem1", "jordan-diag", "extend"])
    def test_max_degree_on_zmod_is_config_error(self, capsys, suite, trials):
        # Z_m samples are residues: a degree cap would be recorded, never read
        code, out, err = run_cli(
            capsys,
            ["verify", suite, "--ring", "zmod:5", "--max-degree", "9",
             "--trials", trials],
        )
        assert code == 2
        assert out == ""
        assert "Z_5 takes no max_degree; leave it at 3" in err

    def test_n_below_two_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "theorem1", "--ring", "zmod:5", "--n", "1", "--trials", "1"],
        )
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "1"])
    @pytest.mark.parametrize(
        "suite,flags",
        [
            ("theorem1", ["--n", "1"]),
            ("lemma-cross", ["--n", "1"]),
            ("lemma-offdiag", ["--n", "1"]),
            ("lemma-diagdiff", ["--n", "1"]),
            ("jordan-theorem", ["--n", "1"]),
            ("theorem1", ["--samples", "0"]),
            ("jordan-theorem", ["--samples", "0"]),
            ("two-generator", ["--max-len", "0"]),
            ("two-generator", ["--n", "0"]),
            ("two-generator", ["--n", "-1"]),
            ("jordan-diag", ["--n", "0"]),
        ],
    )
    def test_below_suite_minimum_is_checked_before_any_instance(
        self, capsys, suite, flags, trials
    ):
        # a config no instance could run must not pass vacuously at zero trials
        code, out, err = run_cli(
            capsys, ["verify", suite, "--ring", "zmod:5", "--trials", trials] + flags
        )
        assert code == 2
        assert out == ""
        assert flags[0].lstrip("-").replace("-", "_") + " >= " in err

    @pytest.mark.parametrize("trials", ["0", "1"])
    @pytest.mark.parametrize(
        "suite,flags,field,default",
        [
            ("jordan-theorem", ["--noise", "central"], "noise", "none"),
            ("jordan-diag", ["--noise", "x0-commutant"], "noise", "none"),
            ("two-generator", ["--noise", "central"], "noise", "none"),
            ("extend", ["--ring", "poly:zmod:5", "--noise", "central"], "noise", "none"),
            ("theorem1", ["--delta", "d/dt"], "delta", "zero"),
            ("lemma-cross", ["--delta", "d/dt"], "delta", "zero"),
            ("lemma-offdiag", ["--delta", "d/dt"], "delta", "zero"),
            ("lemma-diagdiff", ["--delta", "t*d/dt"], "delta", "zero"),
            ("two-generator", ["--delta", "d/dt"], "delta", "zero"),
            ("jordan-diag", ["--delta", "d/dt"], "delta", "zero"),
            ("jordan-theorem", ["--delta", "bogus"], "delta", "zero"),
            ("theorem1", ["--max-len", "3"], "max_len", 6),
            ("lemma-cross", ["--samples", "0"], "samples", 20),
            ("lemma-cross", ["--max-len", "3"], "max_len", 6),
            ("lemma-offdiag", ["--samples", "5"], "samples", 20),
            ("lemma-offdiag", ["--max-len", "0"], "max_len", 6),
            ("lemma-diagdiff", ["--samples", "5"], "samples", 20),
            ("lemma-diagdiff", ["--max-len", "3"], "max_len", 6),
            (
                "extend",
                ["--ring", "poly:zmod:5", "--samples", "0", "--max-len", "0"],
                "samples",
                20,
            ),
            ("extend", ["--ring", "poly:zmod:5", "--max-len", "3"], "max_len", 6),
            ("two-generator", ["--samples", "0"], "samples", 20),
            ("jordan-diag", ["--samples", "5"], "samples", 20),
            ("jordan-diag", ["--max-len", "3"], "max_len", 6),
            ("jordan-theorem", ["--max-len", "3"], "max_len", 6),
        ],
    )
    def test_unused_setting_is_config_error(
        self, capsys, suite, flags, field, default, trials
    ):
        # a report must not name a setting that had no effect
        code, out, err = run_cli(
            capsys, ["verify", suite, "--trials", trials] + flags
        )
        assert code == 2
        assert out == ""
        assert f"{suite} takes no {field}; leave it at {default!r}" in err

    @pytest.mark.parametrize(
        "suite,flags",
        [
            ("theorem1", ["--noise", "central"]),
            ("theorem1", ["--samples", "5"]),
            ("lemma-cross", ["--noise", "central"]),
            ("lemma-offdiag", ["--noise", "x0-commutant"]),
            ("lemma-diagdiff", ["--noise", "central"]),
            ("extend", ["--ring", "poly:zmod:5", "--delta", "d/dt"]),
            ("two-generator", ["--max-len", "3"]),
            ("jordan-theorem", ["--samples", "5"]),
        ],
    )
    def test_read_setting_is_accepted(self, capsys, suite, flags):
        # the other side of the unused-setting refusal: a setting the suite
        # reads passes the config checks at a value other than its default
        code, out, err = run_cli(capsys, ["verify", suite, "--trials", "0"] + flags)
        assert code == 0
        assert json.loads(out)["instances"] == 0

    def test_zero_trials_vacuous_pass(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "theorem1", "--ring", "zmod:5", "--trials", "0"]
        )
        assert code == 0
        assert json.loads(out)["instances"] == 0

    def test_delta_needs_poly_ring(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "extend", "--ring", "zmod:5", "--delta", "d/dt",
             "--trials", "1"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "ring,delta", [("zmod:5", "bogus"), ("zmod:5", "d/dt"), ("zmod:5", "t*d/dt")]
    )
    def test_delta_is_checked_before_any_instance(self, capsys, ring, delta):
        # with no instance to run, a bad delta must still not pass vacuously
        code, out, err = run_cli(
            capsys,
            ["verify", "extend", "--ring", ring, "--delta", delta, "--trials", "0"],
        )
        assert code == 2
        assert out == ""

    def test_extend_suite(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "extend", "--ring", "poly:zmod:5", "--n", "3",
             "--delta", "t*d/dt", "--trials", "5", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["failures"] == []

    @pytest.mark.parametrize(
        "suite,extra",
        [
            ("lemma-cross", ["--noise", "central"]),
            ("lemma-offdiag", ["--noise", "central"]),
            ("lemma-diagdiff", ["--noise", "x0-commutant"]),
            ("two-generator", []),
            ("jordan-diag", ["--ring", "zmod:9"]),
            ("jordan-theorem", ["--samples", "5"]),
        ],
    )
    def test_all_suites_run_clean(self, capsys, suite, extra):
        code, out, err = run_cli(
            capsys,
            ["verify", suite, "--n", "2", "--trials", "3", "--seed", "3"] + extra,
        )
        assert code == 0

    def test_unknown_suite_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "bogus"])


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys):
        argv = ["verify", "theorem1", "--ring", "zmod:9", "--n", "3",
                "--trials", "5", "--seed", "71", "--noise", "central"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_wall_time_goes_to_stderr_only(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "theorem1", "--ring", "zmod:5", "--trials", "1"]
        )
        assert "wall time" in err
        assert "wall" not in out


class TestExitCodes:
    def test_violation_reports_exit_one(self, capsys, monkeypatch):
        from derivring.campaign import Report

        def fake_run(config):
            failure = {"instance": 0, "seed": 1, "kind": "action",
                       "probe": "sample 0", "lhs": 0, "rhs": 1}
            return Report(config, 1, (failure,), 0.0)

        monkeypatch.setattr("derivring.cli.run_campaign", fake_run)
        code, out, err = run_cli(
            capsys, ["verify", "theorem1", "--ring", "zmod:5", "--trials", "1"]
        )
        assert code == 1
        assert json.loads(out)["failures"][0]["kind"] == "action"


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            ["verify", "theorem1", "--ring", "zmod:5", "--trials", "1",
             "--seed", "4", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["instances"] == 1

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, where):
        # exit 1 would read as a violated property
        target = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
        code, out, err = run_cli(
            capsys,
            ["verify", "theorem1", "--ring", "zmod:5", "--trials", "1",
             "--out", str(target)],
        )
        assert code == 2
        assert out == ""
        assert "derivring: error:" in err

    def test_text_format(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "theorem1", "--ring", "zmod:5", "--trials", "2",
             "--seed", "5", "--format", "text"],
        )
        assert code == 0
        assert "suite=theorem1" in out
        assert "failures=0" in out

    def test_text_header_names_every_config_field(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "extend", "--ring", "poly:zmod:5", "--delta", "d/dt",
             "--max-degree", "2", "--trials", "2", "--seed", "5",
             "--format", "text"],
        )
        assert code == 0
        header = out.splitlines()[0]
        assert "delta=d/dt" in header
        assert "max_degree=2" in header
        for key in CampaignConfig("extend", PolyRing(Zmod(5))).to_obj():
            assert f"{key}=" in header


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "derivring.cli", "verify", "theorem1",
             "--ring", "zmod:5", "--trials", "1", "--seed", "7"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["instances"] == 1

    def test_closed_stdout_is_config_error(self):
        # `derivring verify ... | head -c 1`: the reader is gone before the
        # report is written. Exit 1 would read as a violated property.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "derivring.cli", "verify", "theorem1",
                 "--ring", "zmod:5", "--trials", "1", "--seed", "7"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("derivring: error:")
        assert "Traceback" not in result.stderr
