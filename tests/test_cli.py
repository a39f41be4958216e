import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sticksoup
from sticksoup.cli import build_parser, run


def read(path):
    return path.read_bytes()


def strict_json(text):
    """json.loads refusing NaN and the infinities, which standard JSON lacks."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def jsonl(*objects):
    """JSON Lines text of the objects, leaving out the keys set to None."""
    return "".join(
        json.dumps({k: v for k, v in d.items() if v is not None}) + "\n" for d in objects
    )


class TestExitCodes:
    def test_unknown_flag_is_2(self, capsys):
        assert run(["estimate", "arm", "--bogus"]) == 2

    def test_unknown_command_is_2(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_is_2(self, capsys):
        assert run(["sample", "--u", "1"]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_bad_value_is_2(self, capsys):
        assert run(["sample", "--u", "-3", "--rmin", "0.1", "--window-radius", "1"]) == 2

    def test_domination_needs_two_trials_is_2(self, capsys):
        argv = ["invasion", "--u", "1", "--m", "4", "--rmin", "0.5", "--domination"]
        assert run(argv) == 2
        assert run(argv + ["--trials", "1"]) == 2
        assert "at least 2 trials" in capsys.readouterr().err

    def test_domination_without_trials_names_flag(self, capsys):
        argv = ["invasion", "--u", "1", "--m", "4", "--rmin", "0.5", "--domination"]
        assert run(argv) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "h1", "--u", "0.2", "--rmin", "0.1", "--k", "1", "--mmax", "2"],
        ["estimate", "void", "--u", "0.3", "--rmin", "0.1", "--balls", "0.2,0.75,0.05"],
    ], ids=["h1", "void"])
    def test_zero_trials_is_2(self, argv, capsys):
        assert run(argv + ["--trials", "0"]) == 2
        assert "n_trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "double-circle", "--alpha", "nan"],
        ["verify", "mu-hit", "--alpha", "nan", "--shape", "ball", "--size", "1",
         "--range", "atleast", "--r", "1"],
        ["verify", "mu-hit", "--alpha", "inf", "--shape", "segment", "--size", "1",
         "--range", "atleast", "--r", "1"],
        ["verify", "mu-hit", "--alpha", "2", "--shape", "ball", "--size", "nan",
         "--range", "atleast", "--r", "1"],
        ["verify", "mu-hit", "--alpha", "2", "--shape", "segment", "--size", "nan",
         "--range", "atleast", "--r", "1"],
        ["verify", "mu-hit", "--alpha", "2", "--shape", "segment", "--size", "1",
         "--range", "atleast", "--r", "nan"],
        ["estimate", "void", "--u", "0.2", "--rmin", "0.1", "--balls", "0.2,0.5,nan",
         "--trials", "5"],
        ["estimate", "void", "--u", "0.2", "--rmin", "0.1", "--balls", "0.2,0.5,inf",
         "--trials", "5"],
        ["estimate", "void", "--u", "0.2", "--rmin", "0.1", "--balls", "nan,0.5,0.1",
         "--trials", "5"],
        ["estimate", "void", "--u", "0.2", "--rmin", "0.1", "--balls", "0.2,0.5,0",
         "--trials", "5"],
        ["verify", "double-circle", "--alpha", "inf"],
        ["verify", "mu-hit", "--alpha", "2", "--shape", "ball", "--size", "inf",
         "--range", "atleast", "--r", "1"],
        ["verify", "mu-hit", "--alpha", "2", "--shape", "segment", "--size", "1",
         "--range", "below", "--r", "-inf"],
        ["trace", "--u", "0.3", "--rmin", "0.08", "--box", "0", "0", "inf", "1"],
    ], ids=["dc-alpha", "mu-hit-alpha", "mu-hit-inf-alpha", "ball-size", "segment-size", "mu-hit-r",
            "void-radius", "void-inf-radius", "void-centre", "void-zero-radius",
            "dc-inf-alpha", "ball-inf-size", "mu-hit-neg-inf-r", "trace-inf-box"])
    def test_nan_is_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sticksoup: error: ")

    def test_infinite_config_value_is_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("alpha = inf\n")
        assert run(["verify", "double-circle", "--config", str(conf)]) == 2
        assert "--alpha: expected a finite number, got 'inf'" in capsys.readouterr().err

    # radii 2^m overflow a float from m = 1024 on
    @pytest.mark.parametrize("argv", [
        ["invasion", "--u", "1", "--m", "2000", "--rmin", "0.5"],
        ["invasion", "--u", "1", "--m", "1024", "--rmin", "0.5", "--domination",
         "--trials", "3"],
        ["estimate", "h1", "--u", "0.2", "--rmin", "0.1", "--k", "1", "--mmax", "2000",
         "--trials", "2"],
        ["estimate", "arm", "--u", "0.15", "--rmin", "0.05", "--scan-mmax", "2000",
         "--trials", "2"],
    ], ids=["invasion", "invasion-domination", "h1", "arm-scan"])
    def test_scale_overflow_is_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sticksoup: error: ")
        assert "expected an integer below 1024" in captured.err

    # the flags no command read; they are gone from the parser
    @pytest.mark.parametrize("argv", [
        ["sample", "--trials", "5"],
        ["trace", "--trials", "5"],
        ["estimate", "lr1", "--rmin", "0.1"],
        ["estimate", "arm", "--window-cx", "0"],
        ["estimate", "arm", "--window-cy", "0"],
        ["verify", "parker-cowan", "--rmin", "0.1"],
        ["verify", "parker-cowan", "--window-cx", "0"],
        ["verify", "parker-cowan", "--window-cy", "0"],
        ["invasion", "--window-radius", "1"],
        ["invasion", "--window-cx", "0"],
        ["invasion", "--window-cy", "0"],
    ], ids=lambda argv: " ".join(argv[:-1]))
    def test_removed_flag_is_2(self, argv, capsys):
        assert run(argv) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_unfittable_scan_is_1(self, capsys):
        # two trials can never give a row five successes, so no fit exists
        assert run(["estimate", "arm", "--u", "0.15", "--rmin", "0.05",
                    "--scan-mmax", "2", "--trials", "2", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sticksoup: failure: ")


class TestSample:
    def test_byte_reproducible(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        argv = ["sample", "--u", "0.4", "--alpha", "2", "--rmin", "0.1",
                "--window-radius", "1", "--seed", "7"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert read(a) == read(b)
        header = json.loads(a.read_text().splitlines()[0])
        assert header["u"] == 0.4 and header["seed"] == 7

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "u = 0.4\nalpha = 2\nrmin = 0.1\nwindow-radius = 1\nseed = 7\n"
        )
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run(["sample", "--config", str(conf), "--out", str(a)]) == 0
        assert run(["sample", "--config", str(conf), "--seed", "8", "--out", str(b)]) == 0
        ha = json.loads(a.read_text().splitlines()[0])
        hb = json.loads(b.read_text().splitlines()[0])
        assert ha["seed"] == 7 and hb["seed"] == 8  # flags win


class TestConfigFile:
    def test_choices_enforced(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("shape = cube\nsize = 1\nrange = atleast\nr = 1\n")
        assert run(["verify", "mu-hit", "--config", str(conf)]) == 2
        assert "invalid choice: 'cube'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, conf, flags", [
        ("verify mu-hit", "alpha = 2\nshape = ball\nsize = 1\nrange = atleast\nr = 1\n",
         "--alpha 2 --shape ball --size 1 --range atleast --r 1"),
        ("trace", "u = 0.3\nrmin = 0.08\nseed = 3\nbox = 0, 0, 1, 1\n",
         "--u 0.3 --rmin 0.08 --seed 3 --box 0 0 1 1"),
        ("sample", "u = 0.4\nrmin = 0.1\nwindow_radius = 1\nseed = 7\n",
         "--u 0.4 --rmin 0.1 --window-radius 1 --seed 7"),
    ], ids=["range", "box", "underscore"])
    def test_keys_are_flag_names(self, command, conf, flags, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text(conf)
        assert run(command.split() + ["--config", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert run(command.split() + flags.split()) == 0
        assert capsys.readouterr().out == from_file

    def test_missing_option_names_the_flag(self, capsys):
        assert run(["render", "--box", "0", "0", "1", "1", "--out", "unused.svg"]) == 2
        assert capsys.readouterr().err == "sticksoup: error: missing required option(s): --in\n"
        assert run(["verify", "mu-hit", "--shape", "ball", "--size", "1", "--r", "1"]) == 2
        assert capsys.readouterr().err == (
            "sticksoup: error: missing required option(s): --range\n"
        )


# every acceptance-criterion-14 command (trial counts cut, output paths added),
# and invasion without --trials, with the config its report echoes, recorded
# before the CLI was table-driven; for sample, the JSONL header
ECHOES = {
    "sample": (
        ["sample", "--u", "0.4", "--rmin", "0.1", "--window-radius", "1", "--seed", "7"],
        {"alpha": 2.0, "r_min": 0.1, "seed": 7, "u": 0.4, "window_a": 1.0,
         "window_cx": 0.0, "window_cy": 0.0},
    ),
    "trace": (
        ["trace", "--u", "0.3", "--rmin", "0.08", "--seed", "3", "--box", "0", "0", "1", "1",
         "--svg", os.devnull],
        {"alpha": 2.0, "box": [0.0, 0.0, 1.0, 1.0], "command": "trace", "rmin": 0.08,
         "seed": 3, "u": 0.3},
    ),
    "est-arm": (
        ["estimate", "arm", "--u", "0.3", "--rmin", "0.2", "--l1", "1", "--l2", "2",
         "--window-radius", "2", "--trials", "8", "--seed", "4"],
        {"alpha": 2.0, "command": "estimate arm", "l1": 1.0, "l2": 2.0, "rmin": 0.2,
         "seed": 4, "trials": 8, "u": 0.3, "window_radius": 2.0},
    ),
    "est-arm-scan": (
        ["estimate", "arm", "--u", "0.15", "--rmin", "0.25", "--scan-mmax", "2",
         "--trials", "60", "--seed", "4", "--csv", os.devnull],
        {"alpha": 2.0, "command": "estimate arm scan", "mmax": 2, "rmin": 0.25, "seed": 4,
         "trials": 60, "u": 0.15},
    ),
    "est-h1": (
        ["estimate", "h1", "--u", "0.2", "--rmin", "0.2", "--k", "1", "--mmax", "2",
         "--trials", "40", "--seed", "5", "--csv", os.devnull],
        {"alpha": 2.0, "command": "estimate h1", "k": 1, "mmax": 2, "rmin": 0.2, "seed": 5,
         "trials": 40, "u": 0.2},
    ),
    "est-lr1": (
        ["estimate", "lr1", "--u", "0.5", "--l", "1", "--k", "1", "--trials", "50",
         "--seed", "2"],
        {"alpha": 2.0, "command": "estimate lr1", "k": 1.0, "l": 1.0, "seed": 2,
         "trials": 50, "u": 0.5},
    ),
    "est-crossing": (
        ["estimate", "crossing", "--u", "0.2", "--rmin", "0.1", "--box", "0", "0", "1", "1",
         "--trials", "4", "--seed", "6"],
        {"alpha": 2.0, "box": [0.0, 0.0, 1.0, 1.0], "command": "estimate crossing",
         "rmin": 0.1, "seed": 6, "trials": 4, "u": 0.2},
    ),
    "est-corr": (
        ["estimate", "correlation", "--u", "0.5", "--rmin", "2", "--l1", "1", "--l2", "8",
         "--trials", "10", "--seed", "6"],
        {"alpha": 2.0, "command": "estimate correlation", "l1": 1.0, "l2": 8.0,
         "rmin": 2.0, "seed": 6, "trials": 10, "u": 0.5},
    ),
    "est-void": (
        ["estimate", "void", "--u", "0.2", "--rmin", "0.1",
         "--balls", "0.2,0.5,0.1;0.7,0.5,0.1", "--trials", "60", "--seed", "2"],
        {"alpha": 2.0, "balls": "0.2,0.5,0.1;0.7,0.5,0.1", "command": "estimate void",
         "rmin": 0.1, "seed": 2, "trials": 60, "u": 0.2},
    ),
    "verify-pc": (
        ["verify", "parker-cowan", "--u", "1", "--r", "0.5", "--t", "2", "--trials", "20",
         "--seed", "1"],
        {"alpha": 2.0, "command": "verify parker-cowan", "r": 0.5, "seed": 1, "t": 2.0,
         "trials": 20, "u": 1.0, "window_radius": 1.0},
    ),
    "verify-dc": (
        ["verify", "double-circle", "--alpha", "2.5"],
        {"alpha": 2.5, "command": "verify double-circle"},
    ),
    "verify-mh": (
        ["verify", "mu-hit", "--alpha", "2", "--shape", "ball", "--size", "1",
         "--range", "atleast", "--r", "1"],
        {"alpha": 2.0, "command": "verify mu-hit", "r": 1.0, "range": "atleast",
         "shape": "ball", "size": 1.0},
    ),
    "invasion": (
        ["invasion", "--u", "1", "--m", "5", "--rmin", "0.25", "--trials", "2", "--seed", "4"],
        {"alpha": 2.0, "command": "invasion", "domination": False, "m": 5, "rmin": 0.25,
         "seed": 4, "trials": 2, "u": 1.0},
    ),
    "invasion-one-trial": (
        ["invasion", "--u", "1", "--m", "5", "--rmin", "0.25", "--seed", "4"],
        {"alpha": 2.0, "command": "invasion", "domination": False, "m": 5, "rmin": 0.25,
         "seed": 4, "trials": 1, "u": 1.0},
    ),
    "inv-dom": (
        ["invasion", "--u", "1", "--m", "5", "--rmin", "0.5", "--trials", "4", "--seed", "4",
         "--domination"],
        {"alpha": 2.0, "command": "invasion", "domination": True, "m": 5, "rmin": 0.5,
         "seed": 4, "trials": 4, "u": 1.0},
    ),
}


@pytest.mark.parametrize("name", list(ECHOES))
def test_echoed_config(name, capsys):
    argv, expected = ECHOES[name]
    assert run(argv) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    echoed = first if name == "sample" else first["config"]
    # compare the JSON text, so that 1 and 1.0 differ
    assert json.dumps(echoed, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("name", list(ECHOES))
def test_output_is_standard_json(name, capsys):
    assert run(ECHOES[name][0]) == 0
    for line in capsys.readouterr().out.splitlines():
        strict_json(line)


ESTIMATE_KEYS = {"ci95", "estimate", "master_seed", "n_trials", "params", "std_error",
                 "successes"}

# the keys of each report's result; the three checks leave out their trial
# count, seed and parameters, which the echoed config carries
RESULT_KEYS = {
    "est-corr": {"bound", "cov_estimate", "degenerate", "p1", "p2", "std_error"},
    "verify-pc": {"empirical_mean", "oracle", "std_error", "z_score"},
    "inv-dom": {"diff_means", "diff_std_errors", "dominated", "mean_iid_sums",
                "mean_invasion_sums", "t_values", "truncated_records"},
    "est-arm": ESTIMATE_KEYS,
    "est-h1": {"eta_hat", "indices", "intercept", "master_seed", "params", "q_hat",
               "r_squared", "rows", "slope", "used_indices"},
}


@pytest.mark.parametrize("name", list(RESULT_KEYS))
def test_result_keys(name, capsys):
    assert run(ECHOES[name][0]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert set(result) == RESULT_KEYS[name]
    for row in result.get("rows", []):
        assert set(row) == ESTIMATE_KEYS


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line) for line in lines if line.startswith("sticksoup ")]
    assert len(examples) >= 15
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")


class TestTraceAndRender:
    def test_trace_json_and_svg(self, tmp_path):
        out = tmp_path / "t.json"
        svg = tmp_path / "t.svg"
        argv = ["trace", "--u", "0.3", "--rmin", "0.08", "--seed", "3",
                "--box", "0", "0", "1", "1", "--out", str(out), "--svg", str(svg)]
        assert run(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["outcome"] in ("Right", "Top")
        first = doc["result"]["vertices"][0]
        assert first == [0.0, 0.0]
        text = svg.read_text()
        assert text.count("<rect") == 1
        assert text.count("<polyline") == 1

    def test_render_empty_configuration(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        # u tiny: zero sticks with overwhelming probability
        assert run(["sample", "--u", "1e-12", "--rmin", "0.5", "--window-radius", "1",
                    "--seed", "1", "--out", str(src)]) == 0
        out = tmp_path / "e.svg"
        assert run(["render", "--in", str(src), "--box", "-1", "-1", "1", "1",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<rect") == 1
        assert text.count("<line") == 0

    def test_render_stick_count(self, tmp_path):
        src = tmp_path / "s.jsonl"
        assert run(["sample", "--u", "0.5", "--rmin", "0.2", "--window-radius", "1",
                    "--seed", "5", "--out", str(src)]) == 0
        n_sticks = len(src.read_text().splitlines()) - 1
        out = tmp_path / "s.svg"
        assert run(["render", "--in", str(src), "--box", "-1", "-1", "1", "1",
                    "--out", str(out)]) == 0
        text = out.read_text()
        # all sampled sticks meet the window disk, hence its bounding box clip
        # keeps at least the ones whose segment enters the box
        assert 0 < text.count("<line") <= n_sticks

    @staticmethod
    def sampled(tmp_path):
        """Header and stick rows of a sampled configuration on the unit disk."""
        src = tmp_path / "good.jsonl"
        assert run(["sample", "--u", "0.5", "--rmin", "0.2", "--window-radius", "1",
                    "--seed", "5", "--out", str(src)]) == 0
        header, *rows = (json.loads(line) for line in src.read_text().splitlines())
        assert rows
        return header, rows

    @staticmethod
    def render(tmp_path, text):
        src = tmp_path / "edited.jsonl"
        src.write_text(text)
        return run(["render", "--in", str(src), "--box", "-0.7", "-0.7", "0.7", "0.7",
                    "--trace", "--out", str(tmp_path / "edited.svg")])

    # (header, one stick row) -> file text
    BAD_FILES = {
        "empty": lambda h, s: "",
        "not-json": lambda h, s: "{\n",
        "header-not-object": lambda h, s: "[1, 2]\n",
        "missing-header-key": lambda h, s: jsonl({**h, "window_a": None}, s),
        "missing-row-key": lambda h, s: jsonl(h, {**s, "v": None}),
        "nan-r": lambda h, s: jsonl(h, {**s, "r": math.nan}),
        "infinite-u": lambda h, s: jsonl({**h, "u": math.inf}, s),
        "string-cx": lambda h, s: jsonl(h, {**s, "cx": "0.1"}),
        "huge-integer-cy": lambda h, s: jsonl(h, {**s, "cy": 10 ** 400}),
        "zero-window": lambda h, s: jsonl({**h, "window_a": 0}, s),
        "negative-rmin": lambda h, s: jsonl({**h, "r_min": -0.1}, s),
        "r-below-rmin": lambda h, s: jsonl(h, {**s, "r": h["r_min"] / 2}),
        "v-7": lambda h, s: jsonl(h, {**s, "v": 7}),
        "v-below-minus-half-pi": lambda h, s: jsonl(h, {**s, "v": -math.pi / 2 - 1e-9}),
        "stick-off-window": lambda h, s: jsonl(h, {**s, "cx": h["window_a"] + 2 * s["r"] + 1}),
    }

    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_bad_configuration_file_is_2(self, name, tmp_path, capsys):
        header, rows = self.sampled(tmp_path)
        text = self.BAD_FILES[name](header, rows[0])
        capsys.readouterr()
        assert self.render(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sticksoup: error: ")

    def test_closed_direction_interval(self, tmp_path):
        # rng.uniform(-pi/2, pi/2) can return -pi/2 itself
        header, rows = self.sampled(tmp_path)
        assert self.render(tmp_path, jsonl(header, {**rows[0], "v": -math.pi / 2})) == 0


class TestVerify:
    def test_parker_cowan_z_small(self, tmp_path):
        out = tmp_path / "pc.json"
        argv = ["verify", "parker-cowan", "--u", "1", "--alpha", "2", "--r", "0.5",
                "--t", "2", "--trials", "3000", "--seed", "1", "--out", str(out)]
        assert run(argv) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["result"]["z_score"]) < 3.5
        assert doc["result"]["oracle"] == pytest.approx(3.75 * math.pi + 12)
        assert doc["version"]

    PC_ARGV = ["verify", "parker-cowan", "--seed", "1"]

    def test_parker_cowan_needs_two_trials(self, capsys):
        argv = self.PC_ARGV + ["--u", "1", "--r", "0.5", "--t", "2", "--trials", "1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 2 trials" in captured.err

    def test_parker_cowan_zero_spread_z_is_null(self, capsys):
        # no stick has R in [5, 5.0001) in any of the five trials
        argv = self.PC_ARGV + ["--u", "0.01", "--r", "5", "--t", "5.0001", "--trials", "5"]
        assert run(argv) == 0
        result = strict_json(capsys.readouterr().out)["result"]
        assert result["empirical_mean"] == 0.0 and result["std_error"] == 0.0
        assert result["z_score"] is None

    def test_double_circle(self, capsys):
        assert run(["verify", "double-circle", "--alpha", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["value"] == pytest.approx(2 * math.pi)
        assert run(["verify", "double-circle", "--alpha", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["value"] == "infinite"

    def test_mu_hit(self, capsys):
        assert run(["verify", "mu-hit", "--alpha", "2", "--shape", "segment",
                    "--size", "1", "--range", "atleast", "--r", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["value"] == pytest.approx(8 / math.pi)


class TestEstimateCommands:
    def test_estimate_arm_reproducible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["estimate", "arm", "--u", "0.3", "--rmin", "0.2", "--l1", "1",
                "--l2", "2", "--window-radius", "2", "--trials", "60", "--seed", "4"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    @pytest.mark.parametrize("name", ["est-arm", "est-arm-scan", "est-crossing"])
    def test_event_names(self, name, capsys):
        assert run(ECHOES[name][0]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        expected = "CrossingEventSpec" if name == "est-crossing" else "ArmEventSpec"
        assert {row["params"]["event"] for row in result.get("rows", [result])} == {expected}

    def test_estimate_lr1(self, capsys):
        assert run(["estimate", "lr1", "--u", "0.5", "--l", "1", "--k", "1",
                    "--trials", "2000", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0 <= doc["result"]["params"]["probability"] <= 1

    def test_estimate_void(self, capsys):
        assert run(["estimate", "void", "--u", "0.2", "--rmin", "0.1",
                    "--balls", "0.2,0.5,0.1;0.7,0.5,0.1", "--trials", "120",
                    "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["result"]["rows"]) == 2

    def test_invasion_records(self, capsys):
        assert run(["invasion", "--u", "1", "--m", "5", "--rmin", "0.25",
                    "--trials", "2", "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["result"]) == 2
        assert all(rec["I"][0] == 5 for rec in doc["result"])


# parser, then clustering commands: sample, h1 scan, trace, render --trace
NO_SCIPY = """
import sys
from sticksoup.cli import build_parser, run
build_parser()
out, jsonl = sys.argv[1] + "/out", sys.argv[1] + "/soup.jsonl"
for argv in (
    ["sample", "--u", "0.3", "--rmin", "0.1", "--window-radius", "1", "--out", jsonl],
    ["estimate", "h1", "--u", "0.2", "--rmin", "0.2", "--k", "1", "--mmax", "2",
     "--trials", "40", "--seed", "5", "--out", out],
    ["trace", "--u", "0.3", "--rmin", "0.08", "--box", "0", "0", "1", "1", "--out", out],
    ["render", "--in", jsonl, "--box", "-0.7", "-0.7", "0.7", "0.7", "--trace",
     "--out", out],
):
    assert run(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: no command imports scipy."""
    src = str(Path(sticksoup.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# trial-running commands: the scan and single-annulus arm, h1, invasion with
# and without the domination check, parker-cowan
TRIAL_COMMANDS = """
from sticksoup.cli import run
for argv in (
    ["estimate", "arm", "--u", "0.15", "--rmin", "0.2", "--scan-mmax", "3",
     "--trials", "20", "--seed", "3"],
    ["estimate", "arm", "--u", "0.3", "--rmin", "0.2", "--l1", "1", "--l2", "2",
     "--window-radius", "2", "--trials", "30", "--seed", "4"],
    ["estimate", "h1", "--u", "0.2", "--rmin", "0.2", "--k", "1", "--mmax", "2",
     "--trials", "30", "--seed", "5"],
    ["invasion", "--u", "1", "--m", "5", "--rmin", "0.25", "--trials", "5", "--seed", "4"],
    ["invasion", "--u", "1", "--m", "5", "--rmin", "0.5", "--domination",
     "--trials", "20", "--seed", "6"],
    ["verify", "parker-cowan", "--u", "1", "--r", "0.5", "--t", "2",
     "--trials", "500", "--seed", "1"],
):
    assert run(argv) == 0, argv
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs at least two CPUs in the affinity set")
def test_stdout_same_on_one_cpu_and_two():
    """Trials run in a pool as wide as the CPU affinity set; the bytes do not
    depend on its width."""
    src = str(Path(sticksoup.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    first = min(os.sched_getaffinity(0))

    def stdout(preexec_fn):
        proc = subprocess.run([sys.executable, "-c", TRIAL_COMMANDS], env=env,
                              preexec_fn=preexec_fn, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    one = stdout(lambda: os.sched_setaffinity(0, {first}))
    assert one.count(b"\n") == 6
    assert stdout(None) == one
