import json
import re
from dataclasses import fields

import numpy as np
import pytest

from resolvent_kit.cli import main
from resolvent_kit.config import CHOICES, FIELD_TYPES, RunConfig, build_config, file_key, parse_config_file


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


class TestConfig:
    def test_file_parse_and_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "command = smatrix\n"
            "lambda = 2.0   # inline comment\n"
            "N = 17\n"
            "potential = 7.5*r^2*exp(-r)\n"
        )
        overrides = parse_config_file(str(cfg_file))
        cfg = build_config(overrides, {"size": 23})
        assert cfg.lam == 2.0
        assert cfg.size == 23  # CLI wins over file
        assert cfg.potential == "7.5*r^2*exp(-r)"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("lamda = 2.0\n")
        from resolvent_kit.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(cfg_file))

    def test_validation(self):
        from resolvent_kit.errors import ConfigError

        with pytest.raises(ConfigError):
            build_config({}, {"e_min": 5.0, "e_max": 1.0})
        with pytest.raises(ConfigError):
            build_config({}, {"size": 1})
        with pytest.raises(ConfigError):
            build_config({}, {"command": "explode"})


class TestExitCodes:
    def test_bad_grid_exits_one(self, tmp_path, capsys):
        code = run_cli(
            ["smatrix", "--e-min", "5.0", "--e-max", "1.0", "--csv", str(tmp_path / "a.csv"),
             "--json", str(tmp_path / "a.json")]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_potential_exits_one(self, tmp_path, capsys):
        code = run_cli(
            ["smatrix", "--potential", "exp(", "--csv", str(tmp_path / "a.csv"),
             "--json", str(tmp_path / "a.json")]
        )
        assert code == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert run_cli(["smatrix", "--explode"]) == 1

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        # impossible continuation fit threshold forces a numerical error
        code = run_cli(
            [
                "dos", "--family", "oscillator", "--lambda", "0.45", "--N", "40",
                "--potential", "7.5*r^2*exp(-r)", "--method", "continuation",
                "--fit-order", "4", "--fit-threshold", "1e-14",
                "--e-min", "0.3", "--e-max", "6.0", "--steps", "50",
                "--csv", str(tmp_path / "d.csv"), "--json", str(tmp_path / "d.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical error" in err and "FitResidualError" in err

    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 5 and "FAIL" not in out


class TestArtifacts:
    def smatrix_args(self, tmp_path, extra=()):
        return [
            "smatrix", "--potential", "7.5*r^2*exp(-r)", "--N", "24",
            "--e-min", "0.5", "--e-max", "6.0", "--steps", "40",
            "--csv", str(tmp_path / "scan.csv"), "--json", str(tmp_path / "scan.json"),
            *extra,
        ]

    def test_smatrix_artifacts(self, tmp_path):
        assert run_cli(self.smatrix_args(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "scan.csv")
        assert header == ["E_au", "re_s", "im_s", "abs_one_minus_s", "delta"]
        assert rows.shape == (41, 5)
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert list(payload) == ["config", "results", "diagnostics", "version"]
        assert payload["config"]["N"] == 24
        assert payload["results"]["max_unitarity_deviation"] < 1e-9
        assert payload["version"]

    def test_csv_values_reparse_exactly(self, tmp_path):
        from resolvent_kit.analysis import scan_smatrix
        from resolvent_kit.basis import BasisSpec, SystemSpec
        from resolvent_kit.potential import parse_potential

        assert run_cli(self.smatrix_args(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        spec = SystemSpec(
            basis=BasisSpec("laguerre", lam=1.0, ell=0, size=24),
            potential=parse_potential("7.5*r^2*exp(-r)"),
        )
        table = scan_smatrix(spec, np.linspace(0.5, 6.0, 41))
        assert np.array_equal(rows[:, 1], table.columns["re_s"])
        assert np.array_equal(rows[:, 4], table.columns["delta"])

    def test_byte_identical_reruns(self, tmp_path):
        args = self.smatrix_args(tmp_path)
        assert run_cli(args) == 0
        csv1 = (tmp_path / "scan.csv").read_bytes()
        json1 = (tmp_path / "scan.json").read_bytes()
        assert run_cli(args) == 0
        assert (tmp_path / "scan.csv").read_bytes() == csv1
        assert (tmp_path / "scan.json").read_bytes() == json1

    def test_gnuplot_script(self, tmp_path):
        gp = tmp_path / "plot.gp"
        assert run_cli(self.smatrix_args(tmp_path, ("--gnuplot-script", str(gp)))) == 0
        text = gp.read_text()
        assert "plot" in text and "scan.csv" in text

    def test_run_command_from_file(self, tmp_path):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text(
            "command = bound-states\n"
            "lambda = 5.0\n"
            "N = 5\n"
            "potential = 5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)\n"
            f"csv = {tmp_path / 'bs.csv'}\n"
            f"json = {tmp_path / 'bs.json'}\n"
        )
        assert run_cli(["run", str(cfg)]) == 0
        payload = json.loads((tmp_path / "bs.json").read_text())
        found = payload["results"]["bound_states"]
        assert len(found) == 2
        assert abs(found[0] + 4.6) < 0.15 and abs(found[1] + 0.8) < 0.15

    def test_resolvent_command(self, tmp_path):
        code = run_cli(
            [
                "resolvent", "--N", "12", "--potential", "7.5*r^2*exp(-r)",
                "--e-min", "0.2", "--e-max", "4.0", "--steps", "30", "--im-z", "0.3",
                "--csv", str(tmp_path / "g.csv"), "--json", str(tmp_path / "g.json"),
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "g.csv")
        assert header == ["E_au", "re_g", "im_g", "abs_g"]
        # Im z > 0 makes the diagonal element Herglotz: positive imaginary part
        assert np.all(rows[:, 2] > 0)

    def test_resolvent_on_pole_flagged(self, tmp_path):
        # a real grid point exactly on a generalized eigenvalue is flagged
        # as NaN and listed, never written as inf
        from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
        from resolvent_kit.matrix_core import gen_sym_eig
        from resolvent_kit.potential import parse_potential

        spec = SystemSpec(
            basis=BasisSpec("laguerre", lam=1.0, ell=0, size=12),
            potential=parse_potential("7.5*r^2*exp(-r)"),
        )
        mats = build_matrices(spec)
        pole = float(gen_sym_eig(mats.h.data, mats.omega.data).eps[3])
        code = run_cli(
            [
                "resolvent", "--N", "12", "--potential", "7.5*r^2*exp(-r)",
                "--e-min", repr(pole), "--e-max", repr(pole + 2.0), "--steps", "20",
                "--im-z", "0", "--csv", str(tmp_path / "g.csv"), "--json", str(tmp_path / "g.json"),
            ]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "g.csv")
        assert rows[0, 0] == pole
        assert np.all(np.isnan(rows[0, 1:]))
        assert np.all(np.isfinite(rows[1:, 1:]))
        payload = json.loads((tmp_path / "g.json").read_text())
        assert payload["diagnostics"]["flagged_points"] == [0]

    def test_dos_command(self, tmp_path):
        code = run_cli(
            [
                "dos", "--family", "oscillator", "--lambda", "0.45", "--N", "40",
                "--potential", "7.5*r^2*exp(-r)",
                "--e-min", "0.1", "--e-max", "8.0", "--steps", "100",
                "--csv", str(tmp_path / "dos.csv"), "--json", str(tmp_path / "dos.json"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "dos.json").read_text())
        assert payload["results"]["total_weight"] == pytest.approx(1.0, abs=1e-10)
        header, rows = read_csv(tmp_path / "dos.csv")
        assert header == ["E_au", "rho"]
        assert np.all(rows[:, 1] >= -1e-12)

    def test_resonances_command(self, tmp_path):
        code = run_cli(
            [
                "resonances", "--potential", "7.5*r^2*exp(-r)", "--N", "40",
                "--e-min", "2.5", "--e-max", "4.5", "--steps", "120",
                "--csv", str(tmp_path / "r.csv"), "--json", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        peaks = [r["energy"] for r in payload["results"]["resonances"]]
        assert any(abs(p - 3.426) < 0.02 for p in peaks)
        assert "eigenvalues_in_range" in payload["diagnostics"]


class TestSettings:
    """Every run setting has one file key and one flag, ``--`` + key with
    ``_`` written as ``-``, and both set the same value."""

    @staticmethod
    def sample(name):
        """A valid non-default value of a setting, as text."""
        if name in CHOICES:
            return CHOICES[name][-1]
        return {str: f"{name}.txt", int: "3", float: "0.75"}[FIELD_TYPES[name]]

    def test_file_key_and_flag_agree(self, tmp_path):
        from resolvent_kit.cli import _build_argparser

        defaults = RunConfig()
        for f in fields(RunConfig):
            if f.name == "command":
                continue
            key = file_key(f.name)
            raw = self.sample(f.name)
            cfg_file = tmp_path / f"{f.name}.cfg"
            cfg_file.write_text(f"{key} = {raw}\n")
            from_file = build_config(parse_config_file(str(cfg_file)), {})
            args = _build_argparser().parse_args(["smatrix", "--" + key.replace("_", "-"), raw])
            from_flag = build_config({}, {f.name: getattr(args, f.name)})
            assert getattr(from_file, f.name) == getattr(from_flag, f.name) != getattr(defaults, f.name)
            assert type(getattr(from_file, f.name)) is type(getattr(from_flag, f.name))

    def test_help_lists_each_key_once(self, capsys):
        with pytest.raises(SystemExit) as done:
            run_cli(["smatrix", "--help"])
        assert done.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, flags=re.MULTILINE)
        flags = ["--" + key.replace("_", "-") for key in RunConfig().as_dict() if key != "command"]
        assert sorted(listed) == sorted(["--help", "--config", "--version"] + flags)

    def test_bad_choice_in_file_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "bogus.cfg"
        cfg_file.write_text(
            f"command = smatrix\nmethod = bogus\ncsv = {tmp_path / 'a.csv'}\njson = {tmp_path / 'a.json'}\n"
        )
        assert run_cli(["run", str(cfg_file)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()
