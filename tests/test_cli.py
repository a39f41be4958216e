import json
import math

import pytest

from sticksoup.cli import run


def read(path):
    return path.read_bytes()


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
