"""Command-line flows: units, config precedence, end-to-end runs, exit codes."""

import json

import numpy as np
import pytest

from holoem.cli import RunConfig, format_length, main, parse_length
from holoem.grid import RealGrid2D
from holoem.io import ConfigError, load_image, load_key_values, save_image

from conftest import PITCH


class TestParseLength:
    @pytest.mark.parametrize("text, meters", [
        ("675nm", 675e-9),
        ("1.12um", 1.12e-6),
        ("1.12µm", 1.12e-6),
        ("1.12μm", 1.12e-6),
        ("0.5mm", 0.5e-3),
        ("2cm", 0.02),
        ("5m", 5.0),
        ("1.5 mm", 1.5e-3),
        ("1e-3", 1e-3),
        ("0.001", 1e-3),
    ])
    def test_accepted_forms(self, text, meters):
        assert parse_length(text) == pytest.approx(meters, rel=1e-12)

    @pytest.mark.parametrize("text", ["abc", "nm", "1.2.3mm", ""])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_length(text)


def test_format_length():
    assert format_length(1e-3) == "1 mm"
    assert format_length(675e-9) == "675 nm"
    assert format_length(1.12e-6) == "1.12 um"
    assert format_length(0.0) == "0 mm"


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_mapping({"rogue": "1"})

    def test_manifest_bookkeeping_keys_ignored(self):
        cfg = RunConfig.from_mapping({
            "holoem_version": "0.1.0",
            "output.hologram_pfm": "hologram.pfm",
            "iters": "7",
        })
        assert cfg.iters == 7

    def test_config_values_are_si(self):
        cfg = RunConfig.from_mapping({"wavelength": "6.75e-07",
                                      "slice_distances": "0.001,0.002"})
        assert cfg.wavelength == 675e-9
        assert cfg.slice_distances == (0.001, 0.002)

    def test_flag_values_take_units(self):
        cfg = RunConfig.from_mapping({"wavelength": "675nm",
                                      "slice_distances": "1mm,2mm"},
                                     from_flags=True)
        assert cfg.wavelength == pytest.approx(675e-9)
        assert cfg.slice_distances == (pytest.approx(1e-3), pytest.approx(2e-3))

    def test_auto_and_none_map_to_none(self):
        cfg = RunConfig.from_mapping({"tau": "auto", "noise_seed": "none",
                                      "photon_scale": ""})
        assert cfg.tau is None and cfg.noise_seed is None and cfg.photon_scale is None

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"pad": "maybe"})

    def test_require_names_missing_keys(self):
        cfg = RunConfig()
        cfg.mode = "simulate"
        with pytest.raises(ConfigError, match="width"):
            cfg.require("width", "height")


def simulate_args(out, extra=()):
    return ["simulate", "--out", str(out),
            "--width", "64", "--height", "64",
            "--wavelength", "675nm", "--pitch", "1.12um",
            "--slice-distances", "1mm", "--phantom", "single"] + list(extra)


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "sim"
    assert main(simulate_args(out)) == 0
    for name in ("hologram.pfm", "hologram.pfm.meta", "hologram.pgm",
                 "truth_00_re.pfm", "manifest.txt"):
        assert (out / name).exists(), name
    assert not (out / "truth_00_im.pfm").exists()  # absorbing phantom is real
    manifest = load_key_values(out / "manifest.txt")
    assert manifest["mode"] == "simulate"
    assert float(manifest["wavelength"]) == pytest.approx(675e-9)
    holo = load_image(out / "hologram.pfm")
    assert holo.shape == (64, 64)
    assert holo.pitch_x == pytest.approx(1.12e-6)


def test_complex_phantom_writes_imaginary_truth(tmp_path):
    out = tmp_path / "sim"
    assert main(simulate_args(out, ["--phantom", "complex"])) == 0
    assert (out / "truth_00_im.pfm").exists()


def test_reconstruct_real_end_to_end(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    rec = tmp_path / "rec"
    code = main(["reconstruct-real", "--out", str(rec),
                 "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "1mm",
                 "--truth", str(sim / "truth_00_re.pfm"),
                 "--iters", "5"])
    assert code == 0
    for name in ("slice_00.pfm", "trace.csv", "quality.json", "manifest.txt"):
        assert (rec / name).exists(), name
    quality = json.loads((rec / "quality.json").read_text())
    assert quality["normalized"] is True
    assert "ssim" in quality["slices"][0]
    trace_lines = (rec / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,nll,tv,ssim,millis"
    assert len(trace_lines) == 6  # header + 5 iterations


def test_reconstruct_complex_end_to_end(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--phantom", "complex"])) == 0
    rec = tmp_path / "rec"
    code = main(["reconstruct-complex", "--out", str(rec),
                 "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "1mm",
                 "--truth", f"{sim / 'truth_00_re.pfm'},{sim / 'truth_00_im.pfm'}",
                 "--iters", "3", "--init", "constant"])
    assert code == 0
    assert (rec / "slice_00_amplitude.pfm").exists()
    assert (rec / "slice_00_phase.pfm").exists()
    quality = json.loads((rec / "quality.json").read_text())
    assert set(quality["slices"][0]) == {"real", "imag"}


def test_baseline_end_to_end(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    rec = tmp_path / "base"
    code = main(["baseline", "--out", str(rec),
                 "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "1mm", "--iters", "3"])
    assert code == 0
    assert (rec / "slice_00.pfm").exists()
    assert (rec / "trace.csv").exists()


def test_autofocus_end_to_end(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--width", "128", "--height", "128"])) == 0
    out = tmp_path / "af"
    code = main(["autofocus", "--out", str(out),
                 "--input", str(sim / "hologram.pfm"),
                 "--z-min", "0.8mm", "--z-max", "1.2mm", "--z-step", "0.05mm"])
    assert code == 0
    best = float(load_key_values(out / "autofocus.txt")["best_z"])
    assert abs(best - 1.0e-3) <= 0.05e-3


def test_metrics_end_to_end(tmp_path, rng):
    ref = RealGrid2D(rng.random((32, 32)), PITCH, PITCH)
    test = RealGrid2D(np.clip(ref.data + 0.05 * rng.standard_normal((32, 32)), 0, 1),
                      PITCH, PITCH)
    save_image(tmp_path / "ref.pfm", ref)
    save_image(tmp_path / "test.pfm", test)
    out = tmp_path / "m"
    code = main(["metrics", "--out", str(out),
                 "--input", str(tmp_path / "test.pfm"),
                 "--truth", str(tmp_path / "ref.pfm"), "--peak", "1.0"])
    assert code == 0
    report = json.loads((out / "quality.json").read_text())
    assert set(report) == {"mse", "psnr_db", "ssim", "ssim_after_median"}


def test_resolution_end_to_end(tmp_path):
    out = tmp_path / "res"
    code = main(["resolution", "--out", str(out),
                 "--wavelength", "675nm", "--numerical-aperture", "0.5"])
    assert code == 0
    vals = load_key_values(out / "resolution.txt")
    assert float(vals["lateral"]) == pytest.approx(675e-9)
    assert float(vals["axial"]) == pytest.approx(5.4e-6)


def test_simulate_from_object_images(tmp_path, rng):
    obj = RealGrid2D(-0.04 * (rng.random((32, 32)) > 0.9), PITCH, PITCH)
    save_image(tmp_path / "obj.pfm", obj)
    out = tmp_path / "sim"
    code = main(["simulate", "--out", str(out),
                 "--width", "32", "--height", "32",
                 "--wavelength", "675nm", "--pitch", "1.12um",
                 "--slice-distances", "1mm",
                 "--objects", str(tmp_path / "obj.pfm")])
    assert code == 0
    assert (out / "hologram.pfm").exists()


class TestExitCodes:
    def test_unknown_phantom_is_config_error(self, tmp_path):
        out = tmp_path / "sim"
        code = main(simulate_args(out, ["--phantom", "bogus"]))
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2

    def test_missing_required_key(self, tmp_path):
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--phantom", "single"])
        assert code == 2

    def test_both_object_sources(self, tmp_path):
        out = tmp_path / "sim"
        code = main(simulate_args(out, ["--objects", "whatever.pfm"]))
        assert code == 2

    def test_bad_config_file_key(self, tmp_path):
        conf = tmp_path / "c.txt"
        conf.write_text("nonsense = 1\n")
        code = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        out = tmp_path / "rec"
        code = main(["reconstruct-real", "--out", str(out),
                     "--input", str(tmp_path / "absent.pfm"),
                     "--slice-distances", "1mm"])
        assert code == 4
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 4

    def test_invalid_parameter_is_config_error(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        code = main(["reconstruct-real", "--out", str(tmp_path / "rec"),
                     "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "1mm", "--beta", "1.5"])
        assert code == 2

    def test_divergence_exits_3_with_outputs(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim, ["--width", "128", "--height", "128"])) == 0
        rec = tmp_path / "rec"
        code = main(["reconstruct-real", "--out", str(rec),
                     "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "1mm",
                     "--iters", "30", "--tau", "0.05", "--init", "constant"])
        assert code == 3
        assert (rec / "slice_00.pfm").exists()  # partial outputs still written
        record = json.loads((rec / "error.json").read_text())
        assert record["exit_code"] == 3 and record["error"] == "Divergence"


def test_flags_override_config_document(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("wavelength = 6.75e-07\nwidth = 32\nheight = 32\n"
                    "slice_distances = 0.001\nphantom = single\n")
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(conf), "--out", str(out),
                 "--wavelength", "680nm", "--pitch", "1.12um"])
    assert code == 0
    manifest = load_key_values(out / "manifest.txt")
    assert float(manifest["wavelength"]) == pytest.approx(680e-9)
    assert manifest["width"] == "32"  # config value survives where no flag given


def test_manifest_reruns_bit_identically(tmp_path):
    first = tmp_path / "a"
    assert main(simulate_args(first, ["--noise-seed", "7"])) == 0
    second = tmp_path / "b"
    code = main(["simulate", "--config", str(first / "manifest.txt"),
                 "--out", str(second)])
    assert code == 0
    assert (second / "hologram.pfm").read_bytes() == (first / "hologram.pfm").read_bytes()
    assert (second / "truth_00_re.pfm").read_bytes() == (first / "truth_00_re.pfm").read_bytes()


def test_baseline_manifest_reruns_identically(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--noise-seed", "3"])) == 0
    first = tmp_path / "a"
    code = main(["baseline", "--out", str(first), "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "1mm", "--tv-epsilon", "0.5", "--tau", "1",
                 "--iters", "5"])
    assert float(load_key_values(first / "manifest.txt")["tv_epsilon"]) == 0.5
    second = tmp_path / "b"
    assert main(["baseline", "--config", str(first / "manifest.txt"),
                 "--out", str(second)]) == code
    assert (second / "slice_00.pfm").read_bytes() == (first / "slice_00.pfm").read_bytes()

    def rows(out):  # every trace column but the trailing wall-clock millis
        lines = (out / "trace.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert rows(second) == rows(first)


def test_autofocus_manifest_records_pitch_y(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--pitch-y", "1.5um"])) == 0
    out = tmp_path / "af"
    assert main(["autofocus", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                 "--pitch-y", "1.4um",
                 "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"]) == 0
    assert float(load_key_values(out / "manifest.txt")["pitch_y"]) == pytest.approx(1.4e-6)
