"""Command-line flows: units, config precedence, end-to-end runs, exit codes."""

import argparse
import json
import logging
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoem import cli, forward, grid, io, operators
from holoem.em import NumericError
from holoem.cli import (MODES, RunConfig, _build_parser, _write_manifest, format_length, main,
                        parse_length)
from holoem.grid import RealGrid2D
from holoem.io import ConfigError, load_image, load_key_values, save_image
from holoem.metrics import mse, psnr, ssim
from holoem.phantoms import complex_stack

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
            "numpy_version": "2.0.0",
            "scipy_version": "1.13.0",
            "fft_workers": "4",
            "stop_reason": "iteration_cap",
            "step_halvings": "0",
            "wall_s": "1.25",
            "peak_rss_mib": "118.5",
            "iters": "7",
        })
        assert cfg.iters == 7

    def test_config_values_are_si(self):
        cfg = RunConfig.from_mapping({"wavelength": "6.75e-07",
                                      "slice_distances": "0.001,0.002"})
        assert cfg.wavelength == 675e-9
        assert cfg.slice_distances == (0.001, 0.002)

    def test_flag_values_take_units(self):
        # flags and config documents share one parser: units everywhere
        cfg = RunConfig.from_mapping({"wavelength": "675nm",
                                      "slice_distances": "1mm,2mm"})
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


def _strict_json(text: str):
    """json.loads refusing NaN, Infinity and -Infinity, which strict JSON lacks."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


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
    assert holo.data.shape == (64, 64)
    assert holo.pitch_x == pytest.approx(1.12e-6)


@pytest.mark.parametrize("flags,contrasts", [
    ((), {}),
    (("--contrast", "0.03", "--phase-contrast", "0.02"),
     {"contrast": 0.03, "phase_contrast": 0.02})])
def test_complex_phantom_is_the_library_object(tmp_path, flags, contrasts):
    # the truth carries an imaginary part; with no contrast flag the CLI builds
    # complex_stack(cfg)'s own object (the one the acceptance criteria test),
    # and explicit flags override it
    out = tmp_path / "sim"
    assert main(simulate_args(out, ["--phantom", "complex", *flags])) == 0
    cfg = forward.OpticalConfig(675e-9, 1.12e-6, 64, 64, (1e-3,))
    obj = complex_stack(cfg, **contrasts)[0]
    for part, name in ((obj.real, "re"), (obj.imag, "im")):
        saved = load_image(out / f"truth_00_{name}.pfm").data
        assert saved.tobytes() == part.astype(np.float32).astype(saved.dtype).tobytes(), name
    again = tmp_path / "again"
    assert main(["simulate", "--config", str(out / "manifest.txt"), "--out", str(again)]) == 0
    for name in ("hologram.pfm", "truth_00_re.pfm", "truth_00_im.pfm"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


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
    assert list(quality) == ["slices"]
    assert list(quality["slices"][0]) == ["ssim", "psnr_db", "rel_error"]
    trace_lines = (rec / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,nll,tv,ssim,rel_error,millis"
    assert len(trace_lines) == 6  # header + 5 iterations


def test_unit_reference_bounds_the_written_slices(tmp_path):
    # a written slice holds 1 + 2o, so a flat reference of 1.0 is the
    # passive-absorber limit and engages at 1 mm
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--width", "128", "--height", "128"])) == 0
    save_image(tmp_path / "ref.pfm", RealGrid2D(np.ones((128, 128)), PITCH, PITCH))
    solve = ["reconstruct-real", "--input", str(sim / "hologram.pfm"),
             "--slice-distances", "1mm", "--iters", "20"]
    free, bounded = tmp_path / "free", tmp_path / "bounded"
    assert main([*solve, "--out", str(free)]) == 0
    assert main([*solve, "--out", str(bounded), "--reference", str(tmp_path / "ref.pfm")]) == 0
    slices = [load_image(out / "slice_00.pfm").data for out in (free, bounded)]
    assert slices[1].tobytes() != slices[0].tobytes()
    assert slices[0].max() > 1.0 and slices[1].max() <= 1.0


def test_last_trace_ssim_is_the_mean_of_the_reported_slices(tmp_path):
    # the trace and quality.json score the final estimate through one scorer
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--slice-distances", "0.5mm,1mm,1.25mm",
                                    "--phantom", "multi-depth", "--noise-seed", "3"])) == 0
    rec = tmp_path / "rec"
    truths = ",".join(str(sim / f"truth_{i:02d}_re.pfm") for i in range(3))
    assert main(["reconstruct-real", "--out", str(rec), "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "0.5mm,1mm,1.25mm", "--truth", truths,
                 "--iters", "6"]) == 0
    assert load_key_values(rec / "manifest.txt")["stop_reason"] == "iteration_cap"
    last = (rec / "trace.csv").read_text().splitlines()[-1].split(",")
    slices = json.loads((rec / "quality.json").read_text())["slices"]
    assert len(slices) == 3
    assert abs(float(last[3]) - float(np.mean([s["ssim"] for s in slices]))) <= 1e-12
    # the trace's relative error is over all slices: the reported ones, norm-weighted
    norms = [np.sum(load_image(sim / f"truth_{i:02d}_re.pfm").data ** 2) for i in range(3)]
    weighted = sum(s["rel_error"] ** 2 * n for s, n in zip(slices, norms)) / sum(norms)
    assert float(last[4]) == pytest.approx(np.sqrt(weighted), rel=1e-12)


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


@pytest.mark.parametrize("mode,truths", [
    ("reconstruct-complex", ("truth_00_re.pfm", "zeros.pfm")),
    ("reconstruct-real", ("zeros.pfm",)),
    ("baseline", ("zeros.pfm",)),
    ("reconstruct-real", ("truth_00_re.pfm",)),
])
def test_relative_error_is_absent_exactly_for_a_zero_truth(tmp_path, mode, truths):
    # a zero truth part keeps span 1, so its ssim and psnr_db are finite; its
    # rel_error is null in quality.json, and the trace's cell is empty when
    # every part of the truth is zero
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    save_image(sim / "zeros.pfm", RealGrid2D(np.zeros((64, 64)), PITCH, PITCH))
    rec = tmp_path / "rec"
    assert main([mode, "--out", str(rec), "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "1mm", "--iters", "3",
                 "--truth", ",".join(str(sim / name) for name in truths)]) == 0
    report = _strict_json((rec / "quality.json").read_text(encoding="utf-8"))["slices"][0]
    parts = [report["real"], report["imag"]] if mode == "reconstruct-complex" else [report]
    for part, name in zip(parts, truths):
        assert np.isfinite(part["ssim"]) and np.isfinite(part["psnr_db"]), name
        assert (part["rel_error"] is None) == (name == "zeros.pfm"), name
    header, *rows = [line.split(",") for line in
                     (rec / "trace.csv").read_text(encoding="utf-8").splitlines()]
    cells = [row[header.index("rel_error")] for row in rows]
    if all(name == "zeros.pfm" for name in truths):
        assert cells == ["", "", ""]
    else:
        assert all(np.isfinite(float(cell)) for cell in cells)


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
    assert set(report) == {"mse", "psnr_db", "ssim"}
    a, b = load_image(tmp_path / "test.pfm").data, load_image(tmp_path / "ref.pfm").data
    assert report["mse"] == mse(a, b)
    assert report["psnr_db"] == psnr(a, b, peak=1.0)
    assert report["ssim"] == ssim(a, b, peak=1.0)


def test_metrics_of_identical_images_writes_a_null_psnr(tmp_path, capsys):
    # strict JSON has no infinity: the PSNR of identical images is written as null
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    holo = str(sim / "hologram.pfm")
    out = tmp_path / "m"
    assert main(["metrics", "--out", str(out), "--input", holo, "--truth", holo,
                 "--peak", "2"]) == 0
    report = _strict_json((out / "quality.json").read_text(encoding="utf-8"))
    assert report["psnr_db"] is None and report["mse"] == 0.0
    assert "psnr inf dB" in capsys.readouterr().out


def test_metrics_default_peak_against_simulated_absorber_truth(tmp_path):
    # an absorbing phantom's truth is <= 0 everywhere (max -0.0)
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--width", "64", "--height", "64",
                 "--wavelength", "675nm", "--pitch", "1.12um",
                 "--slice-distances", "0.5mm,1mm,1.25mm", "--phantom", "multi-depth",
                 "--noise-seed", "1"]) == 0
    rec = tmp_path / "rec"
    assert main(["reconstruct-real", "--out", str(rec),
                 "--input", str(sim / "hologram.pfm"),
                 "--slice-distances", "0.5mm,1mm,1.25mm", "--iters", "3"]) == 0
    out = tmp_path / "m"
    code = main(["metrics", "--out", str(out),
                 "--input", str(rec / "slice_00.pfm"),
                 "--truth", str(sim / "truth_00_re.pfm")])
    assert code == 0
    report = json.loads((out / "quality.json").read_text())
    assert all(np.isfinite(v) for v in report.values())


def test_resolution_end_to_end(tmp_path):
    out = tmp_path / "res"
    code = main(["resolution", "--out", str(out),
                 "--wavelength", "675nm", "--numerical-aperture", "0.5"])
    assert code == 0
    vals = load_key_values(out / "resolution.txt")
    assert float(vals["lateral"]) == pytest.approx(675e-9)
    assert float(vals["axial"]) == pytest.approx(5.4e-6)


def test_resolution_with_a_non_finite_wavelength_is_config_error(tmp_path):
    out = tmp_path / "res"
    code = main(["resolution", "--out", str(out),
                 "--wavelength", "inf", "--numerical-aperture", "0.5"])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["exit_code"] == 2 and "wavelength" in record["message"]
    assert not (out / "resolution.txt").exists()


@pytest.mark.parametrize("aperture", ["1e-160", "1e-200"])
def test_resolution_with_a_vanishing_aperture_is_config_error(tmp_path, aperture):
    out = tmp_path / "res"
    assert main(["resolution", "--out", str(out), "--numerical-aperture", aperture]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["exit_code"] == 2 and "numerical aperture" in record["message"]
    assert not (out / "resolution.txt").exists()


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


def test_object_images_take_the_run_pitch(tmp_path, rng):
    # an object image without a sidecar is taken at the run's pitch, as one with it is
    save_image(tmp_path / "obj.pfm", RealGrid2D(-0.04 * (rng.random((32, 32)) > 0.9), 2e-6, 2e-6))
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "obj.pfm").write_bytes((tmp_path / "obj.pfm").read_bytes())
    holograms = []
    for obj in (tmp_path / "obj.pfm", bare / "obj.pfm"):
        out = obj.parent / "sim"
        assert main(["simulate", "--out", str(out), "--width", "32", "--height", "32",
                     "--pitch", "2um", "--slice-distances", "1mm", "--objects", str(obj)]) == 0
        holograms.append((out / "hologram.pfm").read_bytes())
    assert holograms[0] == holograms[1]


class TestExitCodes:
    def test_unknown_phantom_is_config_error(self, tmp_path):
        out = tmp_path / "sim"
        code = main(simulate_args(out, ["--phantom", "bogus"]))
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2

    @pytest.mark.parametrize("source, flags, key", [
        (["--phantom", "single"], ["--phase-contrast", "0.3"], "phase_contrast"),
        (["--phantom", "multi-depth"], ["--phase-contrast", "0.3"], "phase_contrast"),
        (["--objects", "obj.pfm"], ["--contrast", "0.3"], "contrast"),
        (["--objects", "obj.pfm"], ["--phase-contrast", "0.2"], "phase_contrast"),
    ], ids=["single", "multi-depth", "objects-contrast", "objects-phase-contrast"])
    def test_contrast_the_object_does_not_read_is_config_error(self, tmp_path, monkeypatch,
                                                               source, flags, key):
        # a phantom takes only the keys its builder reads; object images take none
        monkeypatch.chdir(tmp_path)
        save_image("obj.pfm", RealGrid2D(np.zeros((32, 32)), PITCH, PITCH))
        distances = "1mm,2mm,3mm" if "multi-depth" in source else "1mm"
        code = main(["simulate", "--out", "sim", "--width", "32", "--height", "32",
                     "--slice-distances", distances, *source, *flags])
        assert code == 2
        record = json.loads(Path("sim/error.json").read_text())
        assert record["exit_code"] == 2 and f"'{key}'" in record["message"]
        assert not Path("sim/hologram.pfm").exists()

    @pytest.mark.parametrize("source, model, key", [
        (["--phantom", "single", "--contrast", "1e300"], "linear", "contrast"),
        (["--phantom", "single", "--contrast", "1e300"], "full", "contrast"),
        (["--phantom", "single", "--contrast", "1e30"], "full", "contrast"),
        (["--objects", "obj.pfm"], "full", "objects"),
    ], ids=["linear", "full", "full-hologram", "objects"])
    def test_object_beyond_the_image_range_is_config_error(self, tmp_path, monkeypatch,
                                                           source, model, key):
        # an object or hologram that no float32 image holds is refused before
        # anything is written, naming the key that built the object; a 1e30
        # object fits, and its full-model hologram of about 1e60 does not
        monkeypatch.chdir(tmp_path)
        save_image("obj.pfm", RealGrid2D(np.full((32, 32), 1e30), PITCH, PITCH))
        code = main(["simulate", "--out", "sim", "--width", "32", "--height", "32",
                     "--slice-distances", "1mm", "--model", model, *source])
        assert code == 2
        record = json.loads(Path("sim/error.json").read_text())
        assert record["exit_code"] == 2 and record["message"].startswith(f"{key}: ")
        assert "float32" in record["message"]
        assert not list(Path("sim").glob("*.p?m"))

    def test_negative_noise_seed_is_config_error(self, tmp_path):
        out = tmp_path / "sim"
        assert main(simulate_args(out, ["--noise-seed", "-1"])) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2
        assert "noise seed must be a non-negative integer, got -1" in record["message"]
        assert not (out / "hologram.pfm").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("flag", ["--pitch", "--pitch-y"])
    def test_vanishing_pitch_is_simulated(self, tmp_path, flag):
        # at --pitch 1e-300 the squared feature radii overflow to inf, so each
        # disk covers the grid: a valid object, not a traceback
        out = tmp_path / "sim"
        assert main(simulate_args(out, [flag, "1e-300"])) == 0
        assert (out / "hologram.pfm").exists()

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
                     "--slice-distances", "1mm", "--iters", "0"])
        assert code == 2

    @pytest.mark.parametrize("mode", ["reconstruct-real", "reconstruct-complex"])
    def test_truth_off_the_hologram_grid_is_config_error(self, tmp_path, monkeypatch, mode):
        # the mismatch is caught as the image loads, before any transform runs
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0  # 64 x 64
        small = tmp_path / "small.pfm"
        save_image(small, RealGrid2D(np.zeros((48, 48)), PITCH, PITCH))
        truth = [small] if mode == "reconstruct-real" else [sim / "truth_00_re.pfm", small]

        def no_transform(*args, **kwargs):
            raise AssertionError("a transform ran before the truth was checked")

        monkeypatch.setattr(operators, "_half_spectrum", no_transform)
        out = tmp_path / "rec"
        code = main([mode, "--out", str(out), "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "1mm", "--iters", "2",
                     "--truth", ",".join(map(str, truth))])
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2 and str(small) in record["message"]
        assert "(48, 48)" in record["message"]

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
        rows = len((rec / "trace.csv").read_text().splitlines()) - 1
        assert record["message"].endswith(f"the slices written are iteration {rows - 5}")
        assert load_key_values(rec / "manifest.txt")["stop_reason"] == "diverged"

    def test_numeric_failure_exits_3_with_an_error_record(self, tmp_path, monkeypatch):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0

        def failing_solver(*args, **kwargs):
            raise NumericError("iteration 1: update non-finite after 4 gradient halvings")

        monkeypatch.setattr(cli, "reconstruct_real", failing_solver)
        out = tmp_path / "rec"
        code = main(["reconstruct-real", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "1mm"])
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 3 and record["error"] == "NumericError"

    def test_estimate_beyond_float32_range_is_numeric_failure(self, tmp_path):
        # 5000 times the default tau blows the explicit TV step up to finite
        # values beyond 1e43 by iteration 5, which no PFM can hold: a numeric
        # failure, not an I/O failure, and no slice is written (a sixth
        # iteration would trip the divergence rule, which writes an earlier one)
        sim = tmp_path / "sim"
        assert main(simulate_args(sim, ["--width", "96", "--height", "96",
                                        "--slice-distances", "0.5mm,1mm,1.25mm",
                                        "--phantom", "multi-depth", "--model", "full",
                                        "--noise-seed", "7"])) == 0
        out = tmp_path / "rec"
        code = main(["reconstruct-real", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "0.5mm,1mm,1.25mm", "--tau", "10", "--iters", "5"])
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 3 and record["error"] == "NumericError"
        magnitude = float(record["message"].split("magnitude ")[1].split()[0])
        assert magnitude > float(np.finfo(np.float32).max)
        assert not list(out.glob("slice_*"))

    @pytest.mark.parametrize("content", [
        b"P2\n4 4\n255\n" + b"\x80" * 16,  # bad magic: an ASCII graymap
        b"P5\n4 4\n255\n" + b"\x80" * 10,  # 10 of 16 data bytes
    ], ids=["bad-magic", "truncated"])
    def test_malformed_pgm_is_io_error(self, tmp_path, content):
        holo = tmp_path / "hologram.pgm"
        holo.write_bytes(content)
        out = tmp_path / "af"
        code = main(["autofocus", "--out", str(out), "--input", str(holo),
                     "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"])
        assert code == 4
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 4 and str(holo) in record["message"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--truth", "{truth},{truth}", "expected 1 truth image"),
    ], ids=["truth-count"])
    def test_input_that_disagrees_with_the_hologram(self, tmp_path, flag, value, message):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        out = tmp_path / "rec"
        code = main(["reconstruct-real", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "1mm", "--iters", "2",
                     flag, value.format(truth=sim / "truth_00_re.pfm")])
        assert code == 2
        assert message in json.loads((out / "error.json").read_text())["message"]

    def test_photon_scale_without_a_seed_is_config_error(self, tmp_path):
        # the scale sets shot noise; a noise-free run would drop it and record 'auto'
        out = tmp_path / "sim"
        assert main(simulate_args(out, ["--photon-scale", "100"])) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2 and "seed" in record["message"]
        assert not (out / "hologram.pfm").exists()
        # a noise-free manifest records photon_scale = auto, and reruns
        clean, again = tmp_path / "clean", tmp_path / "again"
        assert main(simulate_args(clean)) == 0
        assert load_key_values(clean / "manifest.txt")["photon_scale"] == "auto"
        assert main(["simulate", "--config", str(clean / "manifest.txt"),
                     "--out", str(again)]) == 0
        assert (again / "hologram.pfm").read_bytes() == (clean / "hologram.pfm").read_bytes()

    def test_config_reference_for_complex_mode_is_config_error(self, tmp_path):
        # no flag takes it there, but a config document may set it
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        conf = tmp_path / "c.txt"
        conf.write_text(f"reference = {sim / 'hologram.pfm'}\n")
        out = tmp_path / "rec"
        assert main(["reconstruct-complex", "--config", str(conf), "--out", str(out),
                     "--input", str(sim / "hologram.pfm"), "--slice-distances", "1mm"]) == 2
        assert "real mode only" in json.loads((out / "error.json").read_text())["message"]

    def test_object_count_off_the_distances_is_config_error(self, tmp_path, rng):
        # two object images for three slice distances: the library refuses the stack
        obj = tmp_path / "obj.pfm"
        save_image(obj, RealGrid2D(-0.04 * (rng.random((32, 32)) > 0.9), PITCH, PITCH))
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--width", "32", "--height", "32",
                     "--slice-distances", "1mm,2mm,3mm", "--objects", f"{obj},{obj}"]) == 2
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2
        assert not (out / "hologram.pfm").exists()

    @pytest.mark.parametrize("truth_shape, message", [
        ((16, 16), "exactly one truth image"),  # given twice
        ((16, 17), "shapes differ"),
    ])
    def test_metrics_truth_that_does_not_fit_is_config_error(self, tmp_path, truth_shape,
                                                              message):
        test, truth = tmp_path / "test.pfm", tmp_path / "truth.pfm"
        save_image(test, RealGrid2D(np.ones((16, 16)), PITCH, PITCH))
        save_image(truth, RealGrid2D(np.ones(truth_shape), PITCH, PITCH))
        truths = f"{truth},{truth}" if truth_shape == (16, 16) else str(truth)
        out = tmp_path / "m"
        assert main(["metrics", "--out", str(out), "--input", str(test), "--truth", truths]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2 and message in record["message"]
        assert not (out / "quality.json").exists()

    def test_non_finite_peak_is_config_error(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        holo = str(sim / "hologram.pfm")
        out = tmp_path / "m"
        assert main(["metrics", "--out", str(out), "--input", holo, "--truth", holo,
                     "--peak", "inf"]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2
        assert "peak must be positive and finite" in record["message"]
        assert not (out / "quality.json").exists()

    @pytest.mark.parametrize("mode, flags, key", [
        ("reconstruct-real", ["--tau", "inf"], "tau"),
        ("baseline", ["--tau", "inf"], "tau"),
        ("reconstruct-real", ["--stop", "relative_change", "--stop-delta", "inf"], "stop_delta"),
        ("simulate", ["--noise-seed", "1", "--photon-scale", "inf"], "photon_scale"),
        ("simulate", ["--contrast", "inf"], "contrast"),
    ], ids=["real-tau", "baseline-tau", "stop-delta", "photon-scale", "contrast"])
    def test_non_finite_setting_is_config_error(self, tmp_path, mode, flags, key):
        # not a numeric failure, a one-iteration stop or numpy's unnamed error
        distances = ["--slice-distances", "0.5mm,1mm,1.25mm"]
        sim, out = tmp_path / "sim", tmp_path / "out"
        assert main(simulate_args(sim, [*distances, "--phantom", "multi-depth"])) == 0
        argv = (simulate_args(out, [*distances, "--phantom", "multi-depth", *flags])
                if mode == "simulate" else
                [mode, "--out", str(out), "--input", str(sim / "hologram.pfm"), *distances, *flags])
        assert main(argv) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2 and f"{key} must be" in record["message"]
        assert not list(out.glob("*.pfm")) and not list(out.glob("*.pgm"))

    @pytest.mark.parametrize("bound, value", [("--z-max", "inf"), ("--z-step", "nan")])
    def test_non_finite_scan_bound_is_config_error(self, tmp_path, bound, value):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        scan = {"--z-min": "0.5mm", "--z-max": "1.5mm", "--z-step": "1um", bound: value}
        out = tmp_path / "af"
        code = main(["autofocus", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                     *(item for pair in scan.items() for item in pair)])
        assert code == 2
        assert "finite" in json.loads((out / "error.json").read_text())["message"]

    def test_grid_the_reader_refuses_is_config_error(self, tmp_path):
        out = tmp_path / "sim"
        code = main(simulate_args(out, ["--width", "40000", "--height", "2"]))
        assert code == 2
        assert "40000x2" in json.loads((out / "error.json").read_text())["message"]
        assert not (out / "hologram.pfm").exists()

    @pytest.mark.parametrize("mode", ["autofocus", "metrics", "reconstruct-real"])
    def test_malformed_sidecar_value_is_io_error(self, tmp_path, mode):
        # an optical value that does not parse, or is not a positive finite number
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        holo = sim / "hologram.pfm"
        side = sim / "hologram.pfm.meta"
        recorded = side.read_text()
        flags = {"autofocus": ["--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"],
                 "metrics": ["--truth", str(holo)],
                 "reconstruct-real": ["--slice-distances", "1mm", "--iters", "1"]}[mode]
        cases = [("pitch_x", v) for v in ("abc", "-1e-6", "0", "nan", "inf")]
        cases += [("wavelength", v) for v in ("-675e-9", "0", "nan")]
        for i, (key, value) in enumerate(cases):
            side.write_text(recorded.replace(f"{key} = ", f"{key} = {value} # "))
            out = tmp_path / f"{mode}{i}"
            assert main([mode, "--out", str(out), "--input", str(holo), *flags]) == 4, value
            record = json.loads((out / "error.json").read_text())
            assert record["exit_code"] == 4
            assert f"hologram.pfm.meta: {key} must be positive and finite, got {value}" \
                in record["message"]
            assert not (out / "slice_00.pfm").exists()

    @pytest.mark.parametrize("mode", ["autofocus", "metrics"])
    def test_malformed_pgm_range_is_io_error(self, tmp_path, mode):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        holo = sim / "hologram.pgm"
        side = sim / "hologram.pgm.meta"
        side.write_text(side.read_text().replace("pgm_min = ", "pgm_min = abc # "))
        flags = {"autofocus": ["--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"],
                 "metrics": ["--truth", str(sim / "hologram.pfm")]}[mode]
        out = tmp_path / mode
        assert main([mode, "--out", str(out), "--input", str(holo), *flags]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 4 and "hologram.pgm.meta" in record["message"]

    @pytest.mark.parametrize("z_step", ["1e-320", "0.05um"])  # inf and 20001 planes
    def test_scan_with_too_many_planes_is_config_error(self, tmp_path, z_step):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        out = tmp_path / "af"
        code = main(["autofocus", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                     "--z-min", "0.5mm", "--z-max", "1.5mm", "--z-step", z_step])
        assert code == 2
        assert "at most 10000" in json.loads((out / "error.json").read_text())["message"]

    def test_config_failures_leave_an_error_record(self, tmp_path, monkeypatch):
        # the record goes to --out, else the config's output_dir, else 'out'
        monkeypatch.chdir(tmp_path)
        Path("bad_key.txt").write_text("nonsense = 1\n")
        Path("own_out.txt").write_text("output_dir = from_config\n")
        cases = [
            (["simulate", "--out", "pad", "--pad", "maybe"], "pad", 2),
            (["baseline", "--out", "iters", "--iters", "abc"], "iters", 2),
            (["simulate", "--config", "bad_key.txt", "--out", "key"], "key", 2),
            (["simulate", "--config", "own_out.txt", "--pad", "maybe"], "from_config", 2),
            (["simulate", "--config", "absent.txt"], "out", 4),
        ]
        for argv, out, code in cases:
            assert main(argv) == code, argv
            record = json.loads((tmp_path / out / "error.json").read_text())
            assert record["exit_code"] == code, argv

    def test_flag_the_mode_does_not_read(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim)) == 0
        out = tmp_path / "base"
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                  "--slice-distances", "1mm", "--reference", "/nonexistent.pfm",
                  "--stop", "relative_change", "--beta", "7"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--reference", "--stop", "--beta"))
        assert not out.exists()
        # the sweep reads no object geometry
        with pytest.raises(SystemExit) as exc:
            main(["autofocus", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                  "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm",
                  "--slice-distances", "1mm", "--illumination-amplitude", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--slice-distances", "--illumination-amplitude"))
        assert not out.exists()
        # no mode reads an illumination amplitude: intensities are in its units
        with pytest.raises(SystemExit) as exc:
            main(simulate_args(out, ["--illumination-amplitude", "2"]))
        assert exc.value.code == 2
        assert "--illumination-amplitude" in capsys.readouterr().err
        assert not out.exists()
        # nor a solver, and no mode takes the retired relaxation of the upper bound
        solve = ["--input", str(sim / "hologram.pfm"), "--slice-distances", "1mm"]
        for mode, flag, value in [("reconstruct-real", "--illumination-amplitude", "3"),
                                  ("reconstruct-complex", "--illumination-amplitude", "3"),
                                  ("baseline", "--illumination-amplitude", "3"),
                                  ("reconstruct-real", "--beta", "0.5"),
                                  ("reconstruct-complex", "--beta", "0.5")]:
            with pytest.raises(SystemExit) as exc:
                main([mode, "--out", str(out), *solve, flag, value])
            assert exc.value.code == 2, (mode, flag)
            assert flag in capsys.readouterr().err
            assert not out.exists()


def test_flag_surface():
    # every (mode, flag) pair the command line takes; a new knob means a reviewed edit here
    optics = "wavelength pitch pitch-y pad"
    solve = f"{optics} slice-distances input truth iters tau"
    expected = {
        "simulate": f"{optics} width height slice-distances model photon-scale noise-seed "
                    "phantom contrast phase-contrast objects",
        "reconstruct-real": f"{solve} reference init stop stop-delta",
        "reconstruct-complex": f"{solve} init stop stop-delta",
        "baseline": solve,
        "autofocus": f"{optics} input z-min z-max z-step",
        "metrics": "input truth peak",
        "resolution": "wavelength numerical-aperture",
    }
    expected = {(mode, "--" + flag) for mode, flags in expected.items() for flag in flags.split()}
    (modes,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    pairs = {(mode, a.option_strings[0]) for mode, p in modes.choices.items()
             for a in p._actions if a.dest.startswith("key_")}
    assert len(expected) == 61
    assert pairs == expected


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
                 "--slice-distances", "1mm", "--tau", "1", "--iters", "5"])
    assert float(load_key_values(first / "manifest.txt")["tau"]) == 1.0
    second = tmp_path / "b"
    assert main(["baseline", "--config", str(first / "manifest.txt"),
                 "--out", str(second)]) == code
    assert (second / "slice_00.pfm").read_bytes() == (first / "slice_00.pfm").read_bytes()

    def rows(out):  # every trace column but the trailing wall-clock millis
        lines = (out / "trace.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert rows(second) == rows(first)


def test_baseline_config_ignores_the_em_keys(tmp_path):
    # the baseline reads iters and tau alone: a config document that also sets
    # the EM modes' stop, stop_delta and reference, and the retired beta at its
    # one value, runs the same solve, and its manifest records none of them
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--noise-seed", "3"])) == 0
    holo = sim / "hologram.pfm"
    conf = tmp_path / "c.txt"
    conf.write_text(f"stop = relative_change\nstop_delta = 0.5\nbeta = 0.5\nreference = {holo}\n")
    common = ["--input", str(holo), "--slice-distances", "1mm", "--iters", "5"]
    plain, keyed = tmp_path / "a", tmp_path / "b"
    assert main(["baseline", "--out", str(plain), *common]) == 0
    assert main(["baseline", "--config", str(conf), "--out", str(keyed), *common]) == 0
    assert (keyed / "slice_00.pfm").read_bytes() == (plain / "slice_00.pfm").read_bytes()

    def recorded(out):  # the manifest but its measured fields, the trace but its millis
        manifest = load_key_values(out / "manifest.txt")
        lines = (out / "trace.csv").read_text().splitlines()
        return ({k: v for k, v in manifest.items() if k not in ("wall_s", "peak_rss_mib")},
                [line.rsplit(",", 1)[0] for line in lines])

    assert recorded(keyed) == recorded(plain)


# what manifests of each mode recorded before the solver knobs, the illumination
# amplitude and the upper bound's relaxation beta were retired
_OLDER_MANIFEST_KEYS = {
    "simulate": "illumination_amplitude = 1.0\n",
    "reconstruct-real": "illumination_amplitude = 1.0\nbeta = 0.5\ntv_epsilon = auto\n"
                        "ratio_floor = auto\n",
    "reconstruct-complex": "illumination_amplitude = 1.0\nbeta = 0.5\ntv_epsilon = auto\n"
                           "ratio_floor = auto\n",
    "baseline": "illumination_amplitude = 1.0\ntv_epsilon = auto\npower_iters = 20\n"
                "power_seed = 0\nstep_size = auto\n",
}


@pytest.mark.parametrize("mode", sorted(_OLDER_MANIFEST_KEYS))
def test_older_manifest_reruns_identically(tmp_path, mode):
    first = tmp_path / "a"
    assert main(simulate_args(first, ["--noise-seed", "3"])) == 0
    if mode != "simulate":
        sim, first = first, tmp_path / "solve"
        assert main([mode, "--out", str(first), "--input", str(sim / "hologram.pfm"),
                     "--slice-distances", "1mm", "--iters", "3"]) == 0
    manifest = (first / "manifest.txt").read_text()
    assert not any(key in manifest for key in ("illumination_amplitude", "tv_epsilon", "beta"))
    old = tmp_path / "old.txt"
    old.write_text(manifest + _OLDER_MANIFEST_KEYS[mode])
    second = tmp_path / "b"
    assert main([mode, "--config", str(old), "--out", str(second)]) == 0
    images = sorted(first.glob("*.p?m"))
    assert images
    for path in images:
        assert (second / path.name).read_bytes() == path.read_bytes(), path.name
    # a retired key set to anything but its fixed value is refused, by name
    for key, value in (("tv_epsilon", "0.5"), ("illumination_amplitude", "3")):
        old.write_text(manifest + f"{key} = {value}\n")
        third = tmp_path / f"c_{key}"
        assert main([mode, "--config", str(old), "--out", str(third)]) == 2
        assert f"'{key}'" in json.loads((third / "error.json").read_text())["message"]
        assert not list(third.glob("*.p?m"))


def test_older_metrics_manifest_reruns_identically(tmp_path):
    # metrics manifests recorded median_size before the quality report fixed it at 3
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--noise-seed", "3"])) == 0
    first = tmp_path / "a"
    assert main(["metrics", "--out", str(first), "--input", str(sim / "hologram.pfm"),
                 "--truth", str(sim / "truth_00_re.pfm")]) == 0
    manifest = (first / "manifest.txt").read_text()
    assert "median_size" not in manifest
    old = tmp_path / "old.txt"
    for value, code in (("3", 0), ("5", 2)):
        old.write_text(manifest + f"median_size = {value}\n")
        again = tmp_path / value
        assert main(["metrics", "--config", str(old), "--out", str(again)]) == code
        if code:
            assert "'median_size'" in json.loads((again / "error.json").read_text())["message"]
            assert not (again / "quality.json").exists()
        else:
            assert ((again / "quality.json").read_bytes()
                    == (first / "quality.json").read_bytes())


@pytest.mark.parametrize("mode", ["reconstruct-real", "reconstruct-complex"])
def test_init_is_retired_at_the_flat_start(tmp_path, mode):
    # --init constant, which the benchmark passes, runs the one start; any
    # other start, by flag or in a manifest, is refused by name
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    solve = [mode, "--input", str(sim / "hologram.pfm"), "--slice-distances", "1mm",
             "--iters", "3"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([*solve, "--out", str(first)]) == 0
    assert main([*solve, "--out", str(second), "--init", "constant"]) == 0
    manifest = (first / "manifest.txt").read_text()
    assert "init = constant\n" in manifest
    images = sorted(first.glob("slice_*.pfm"))
    assert images
    for path in images:
        assert (second / path.name).read_bytes() == path.read_bytes(), path.name
    conf = tmp_path / "old.txt"
    conf.write_text(manifest.replace("init = constant", "init = backpropagation"))
    for name, argv in (("flag", [*solve, "--init", "backpropagation"]),
                       ("manifest", [mode, "--config", str(conf)])):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 2, name
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2 and "'init'" in record["message"], name
        assert not list(out.glob("slice_*")), name


def test_truth_path_with_a_comma_runs_and_reruns(tmp_path):
    # a paths value naming an existing file as a whole is that one file
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--noise-seed", "3"])) == 0
    truth = tmp_path / "t,1.pfm"
    (sim / "truth_00_re.pfm").replace(truth)
    (sim / "truth_00_re.pfm.meta").replace(tmp_path / "t,1.pfm.meta")
    first = tmp_path / "a"
    assert main(["metrics", "--out", str(first), "--input", str(sim / "hologram.pfm"),
                 "--truth", str(truth)]) == 0
    assert load_key_values(first / "manifest.txt")["truth"] == str(truth)
    again = tmp_path / "b"
    assert main(["metrics", "--config", str(first / "manifest.txt"), "--out", str(again)]) == 0
    assert (again / "quality.json").read_bytes() == (first / "quality.json").read_bytes()


@pytest.mark.parametrize("mode", ["reconstruct-real", "reconstruct-complex", "baseline"])
def test_beta_is_retired_at_one_half(tmp_path, mode):
    # beta, the retired relaxation of the upper bound, parses only at 0.5, the
    # value older manifests record, and runs the same solve; any other value
    # is refused by name
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--noise-seed", "3"])) == 0
    solve = [mode, "--input", str(sim / "hologram.pfm"), "--slice-distances", "1mm",
             "--iters", "3"]
    first = tmp_path / "a"
    assert main([*solve, "--out", str(first)]) == 0
    assert "beta" not in load_key_values(first / "manifest.txt")
    manifest = (first / "manifest.txt").read_text()
    conf = tmp_path / "old.txt"
    for value, code in (("0.5", 0), ("7", 2), ("0.25", 2)):
        conf.write_text(manifest + f"beta = {value}\n")
        again = tmp_path / value
        assert main([mode, "--config", str(conf), "--out", str(again)]) == code, value
        if code:
            assert "'beta'" in json.loads((again / "error.json").read_text())["message"]
            assert not list(again.glob("slice_*")), value
            continue
        images = sorted(first.glob("slice_*.pfm"))
        assert images
        for path in images:
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


# an 8 MiB block, freed, then a second one allocated and filled; prints the second's faults
_REFILL_FAULTS = """
import resource
import numpy as np
from holoem.cli import _keep_freed_pages
_keep_freed_pages()
np.ones(1 << 20).sum()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.empty(1 << 20).fill(1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the CLI tunes glibc's allocator only")
def test_cli_process_keeps_freed_pages():
    # without the tuning glibc unmaps the freed block and the refill faults in
    # hundreds of pages; with it the heap keeps them
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _REFILL_FAULTS], capture_output=True,
                          text=True, env=env, check=True, timeout=60)
    assert int(proc.stdout) < 100


def _unknown_name(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("confstr", [lambda name: "", _unknown_name], ids=["empty", "unknown"])
def test_allocator_hook_does_nothing_off_glibc(monkeypatch, confstr):
    # off glibc (musl, macOS) os.confstr holds no glibc version or refuses the
    # name; the hook returns before it loads the C library, so no mallopt runs
    def no_library(*args, **kwargs):
        pytest.fail("the hook loaded the C library off glibc")

    monkeypatch.setattr(cli.os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    assert cli._keep_freed_pages() is None


# each mode on a 48 px hologram in one process; prints the scipy modules it
# loaded and then its OS thread count, where /proc lists the threads
_MODES_ON_NUMPY_ALONE = """
import os
import sys
from pathlib import Path
from holoem.cli import main
out = Path(sys.argv[1])
holo, truth = str(out / "simulate" / "hologram.pfm"), str(out / "simulate" / "truth_00_re.pfm")
solve = ["--input", holo, "--slice-distances", "1mm", "--iters", "2", "--truth", truth]
runs = {
    "simulate": ["--width", "48", "--height", "48", "--slice-distances", "1mm",
                 "--phantom", "single", "--noise-seed", "1"],
    "reconstruct-real": solve + ["--reference", holo],
    "reconstruct-complex": ["--input", holo, "--slice-distances", "1mm", "--iters", "2"],
    "baseline": solve,
    "autofocus": ["--input", holo, "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"],
    "metrics": ["--input", holo, "--truth", truth],
    "resolution": ["--wavelength", "675nm", "--numerical-aperture", "0.5"],
}
for mode, flags in runs.items():
    assert main([mode, "--out", str(out / mode)] + flags) == 0, mode
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
tasks = "/proc/self/task"
print("threads:", len(os.listdir(tasks)) if os.path.isdir(tasks) else None)
"""


def _fresh_env(**overrides) -> dict:
    # the source tree on the path; OPENBLAS_NUM_THREADS only as the overrides set it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **overrides}


def test_cli_runs_without_importing_scipy(tmp_path):
    # checked after the runs, so that a lazy import cannot move the cost of
    # scipy from start-up into the solve; one thread, so that no pool (OpenBLAS's
    # or a later one) starts in a CLI process
    proc = subprocess.run([sys.executable, "-c", _MODES_ON_NUMPY_ALONE, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env(), check=True,
                          timeout=120)
    scipy_modules, threads = proc.stdout.splitlines()[-2:]
    assert scipy_modules == "scipy modules:"
    if threads != "threads: None":
        assert threads == "threads: 1"


@pytest.mark.parametrize("preset, before, expected", [
    (None, "", "1"),
    ("3", "", "3"),
    (None, "import numpy; ", "None"),
])
def test_cli_import_asks_for_one_blas_thread(preset, before, expected):
    # only where numpy is not yet loaded, and never over the caller's own value
    env = _fresh_env() if preset is None else _fresh_env(OPENBLAS_NUM_THREADS=preset)
    script = before + "import os, holoem.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert proc.stdout.strip() == expected


def test_hologram_load_reads_the_sidecar_once_and_builds_one_grid(tmp_path, monkeypatch):
    # one checked copy of the pixels, made where the hologram enters
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    calls = {"load_metadata": 0, "_checked_samples": 0}

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for module, name in ((cli, "load_metadata"), (io, "load_metadata"),
                         (forward, "_checked_samples"), (grid, "_checked_samples")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert main(["autofocus", "--out", str(tmp_path / "af"), "--input", str(sim / "hologram.pfm"),
                 "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"]) == 0
    assert calls == {"load_metadata": 1, "_checked_samples": 1}


def test_manifest_records_why_the_run_stopped(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    common = ["--input", str(sim / "hologram.pfm"), "--slice-distances", "1mm"]
    runs = {
        "iteration_cap": ["reconstruct-real", *common, "--iters", "3"],
        "relative_change": ["reconstruct-real", *common, "--iters", "50",
                            "--stop", "relative_change", "--stop-delta", "0.5"],
        "baseline": ["baseline", *common, "--iters", "3"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        manifest = load_key_values(out / "manifest.txt")
        assert manifest["stop_reason"] == ("iteration_cap" if name == "baseline" else name)
        assert manifest["step_halvings"] == "0"
    assert len((tmp_path / "relative_change" / "trace.csv").read_text().splitlines()) < 51


def test_autofocus_scan_may_start_at_zero(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    out = tmp_path / "af"
    assert main(["autofocus", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                 "--z-min", "0", "--z-max", "0", "--z-step", "1um"]) == 0
    assert load_key_values(out / "autofocus.txt")["best_z"] == "0.0"


def test_autofocus_manifest_with_geometry_keys_still_reruns(tmp_path):
    # autofocus manifests once recorded a placeholder slice distance and the
    # illumination amplitude; as config input both are legal and unread
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    first = tmp_path / "a"
    assert main(["autofocus", "--out", str(first), "--input", str(sim / "hologram.pfm"),
                 "--z-min", "0.8mm", "--z-max", "1.2mm", "--z-step", "0.1mm"]) == 0
    manifest = load_key_values(first / "manifest.txt")
    assert "slice_distances" not in manifest and "illumination_amplitude" not in manifest
    old = tmp_path / "old_manifest.txt"
    old.write_text((first / "manifest.txt").read_text()
                   + "slice_distances = 0.001\nillumination_amplitude = 1.0\n")
    second = tmp_path / "b"
    assert main(["autofocus", "--config", str(old), "--out", str(second)]) == 0
    assert ((second / "autofocus.txt").read_text()
            == (first / "autofocus.txt").read_text() == "best_z = 0.001\n")


def test_missing_sidecar_warns_only_for_defaulted_optics(tmp_path, caplog):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim)) == 0
    (sim / "hologram.pfm.meta").unlink()
    scan = ["--input", str(sim / "hologram.pfm"),
            "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"]

    def warnings(*flags):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(["autofocus", "--out", str(tmp_path / "af"), *scan, *flags]) == 0
        return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING
                and "scan boundary" not in r.getMessage()]

    # the optics come from the flags: the one warning is true and names no value
    given = warnings("--pitch", "2um", "--wavelength", "500nm")
    assert len(given) == 1 and given[0].endswith("no sidecar metadata")
    manifest = load_key_values(tmp_path / "af" / "manifest.txt")
    assert float(manifest["pitch"]) == pytest.approx(2e-6)
    assert float(manifest["wavelength"]) == pytest.approx(500e-9)
    # nothing configured: one more warning for each value the run defaults
    assert sorted(warnings()[1:]) == ["no pitch configured or recorded; assuming 1.12 um",
                                      "no wavelength configured or recorded; assuming 675 nm"]


def test_autofocus_manifest_records_pitch_y(tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--pitch-y", "1.5um"])) == 0
    out = tmp_path / "af"
    assert main(["autofocus", "--out", str(out), "--input", str(sim / "hologram.pfm"),
                 "--pitch-y", "1.4um",
                 "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"]) == 0
    assert float(load_key_values(out / "manifest.txt")["pitch_y"]) == pytest.approx(1.4e-6)


@pytest.mark.parametrize("mode", ["reconstruct-real", "autofocus"])
def test_configured_pitch_is_square_over_the_sidecar(tmp_path, mode):
    # --pitch sets both pitches; the sidecar's pitch_y goes with its pitch_x
    sim = tmp_path / "sim"
    assert main(simulate_args(sim, ["--pitch-y", "1.5um"])) == 0
    flags = (["--slice-distances", "1mm", "--iters", "1"] if mode == "reconstruct-real" else
             ["--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"])
    out = tmp_path / mode
    assert main([mode, "--out", str(out), "--input", str(sim / "hologram.pfm"),
                 "--pitch", "2um", *flags]) == 0
    manifest = load_key_values(out / "manifest.txt")
    assert float(manifest["pitch"]) == float(manifest["pitch_y"]) == 2e-6
    for meta in out.glob("*.meta"):
        assert float(load_key_values(meta)["pitch_y"]) == 2e-6, meta.name
    # without --pitch both come from the sidecar
    again = tmp_path / f"{mode}-sidecar"
    assert main([mode, "--out", str(again), "--input", str(sim / "hologram.pfm"), *flags]) == 0
    manifest = load_key_values(again / "manifest.txt")
    assert (float(manifest["pitch"]), float(manifest["pitch_y"])) == (1.12e-6, 1.5e-6)


def test_manifest_with_hash_in_a_path_reruns(tmp_path):
    # '#' inside a value is kept: the manifest of a run on 'd#1/...' reruns
    sim = tmp_path / "d#1"
    assert main(simulate_args(sim)) == 0
    scan = ["--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"]
    first = tmp_path / "a"
    assert main(["autofocus", "--out", str(first), "--input", str(sim / "hologram.pfm"),
                 *scan]) == 0
    assert load_key_values(first / "manifest.txt")["input"] == str(sim / "hologram.pfm")
    second = tmp_path / "b"
    assert main(["autofocus", "--config", str(first / "manifest.txt"), "--out", str(second)]) == 0
    assert (second / "autofocus.txt").read_text() == (first / "autofocus.txt").read_text()


@pytest.mark.parametrize("value", ["#x.pfm", "a #b.pfm", "a\nb.pfm", " a.pfm"])
def test_value_that_would_not_read_back_is_refused(tmp_path, value):
    out = tmp_path / "out"
    assert main(["autofocus", "--out", str(out), "--input", value,
                 "--z-min", "0.9mm", "--z-max", "1.1mm", "--z-step", "0.1mm"]) == 2
    assert "'input'" in json.loads((out / "error.json").read_text())["message"]
    assert not (out / "manifest.txt").exists()


def test_manifest_records_every_key_the_mode_reads(tmp_path):
    sim = tmp_path / "simulate"
    holo, truth = str(sim / "hologram.pfm"), str(sim / "truth_00_re.pfm")
    solve = {"input": holo, "slice_distances": "1mm", "pad": "false", "iters": "2"}
    runs = {  # mode -> the keys set by flag
        "simulate": {"width": "32", "height": "32", "wavelength": "675nm", "pitch": "1.12um",
                     "slice_distances": "1mm", "phantom": "single", "noise_seed": "4"},
        "reconstruct-real": {**solve, "truth": truth, "reference": holo, "tau": "0.01"},
        "reconstruct-complex": {**solve, "init": "constant", "stop": "relative_change"},
        "baseline": {**solve, "tau": "0.5"},
        "autofocus": {"input": holo, "z_min": "0.9mm", "z_max": "1.1mm", "z_step": "0.1mm"},
        "metrics": {"input": holo, "truth": holo, "peak": "2"},
        "resolution": {"numerical_aperture": "0.5"},
    }
    for mode, flags in runs.items():
        out = tmp_path / mode
        argv = [mode, "--out", str(out)]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), value]
        assert main(argv) == 0, mode
        # every text file a run writes ends its last line, and its JSON is strict
        for path in out.iterdir():
            if path.suffix in (".txt", ".csv", ".json", ".meta"):
                assert path.read_bytes().endswith(b"\n"), (mode, path.name)
            if path.suffix == ".json":
                _strict_json(path.read_text(encoding="utf-8"))
        manifest = load_key_values(out / "manifest.txt")
        assert manifest["numpy_version"] == np.__version__
        given = RunConfig.from_mapping(flags)
        again = RunConfig.from_mapping(manifest)
        for f in fields(RunConfig):
            if f.name == "mode":
                continue
            if mode not in f.metadata["modes"]:
                assert f.name not in manifest, (mode, f.name)
            elif f.name in flags:
                assert getattr(again, f.name) == getattr(given, f.name), (mode, f.name)
            elif f.metadata["kind"] == "optfloat" and f.name != "photon_scale":
                assert manifest[f.name] == "auto", (mode, f.name)
    # simulate resolves the photon scale: the default for a noisy run, auto without noise
    assert float(load_key_values(sim / "manifest.txt")["photon_scale"]) > 0
    assert main(simulate_args(tmp_path / "clean")) == 0
    clean = load_key_values(tmp_path / "clean" / "manifest.txt")
    assert clean["photon_scale"] == "auto" and "noise_seed" not in clean


# raw values of each RunConfig kind, written as a config document or a flag would
_text = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./#", min_size=1, max_size=12)
_number = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
_length = st.builds(lambda x, unit: x + unit, _number,
                    st.sampled_from(["", "nm", "um", "µm", "μm", " mm", "cm", "m"]))
_RAW = {
    "str": _text,
    "path": _text,
    "paths": st.lists(_text, min_size=1, max_size=4).map(",".join),
    "int": st.integers(-10**6, 10**6).map(str),
    "optint": st.one_of(st.sampled_from(["none", "None", ""]),
                        st.integers(-10**6, 10**6).map(str)),
    "float": _number,
    "optfloat": st.one_of(st.sampled_from(["auto", "AUTO", "none", ""]), _number),
    "bool": st.sampled_from(["1", "true", "Yes", "on", "0", "false", "no", "OFF"]),
    "length": _length,
    "lengths": st.lists(_length, min_size=1, max_size=5).map(",".join),
}


def _mode_and_values(mode):
    # a retired key that keeps its flag (init) takes its one value
    raw = {f.name: st.just(cli._RETIRED[f.name][1]) if f.name in cli._RETIRED
           else _RAW[f.metadata["kind"]] for f in fields(RunConfig) if mode in f.metadata["modes"]}
    return st.tuples(st.just(mode), st.fixed_dictionaries({}, optional=raw))


@settings(max_examples=150)
@given(st.sampled_from(MODES).flatmap(_mode_and_values))
def test_config_manifest_config_round_trip(mode_and_values):
    # any subset of the keys a mode reads, defaults for the rest
    mode, values = mode_and_values
    if any(v.startswith("#") for v in values.values()):
        # a manifest would read such a value as a comment, so it is refused
        with pytest.raises(ConfigError):
            RunConfig.from_mapping(values)
        return
    cfg = RunConfig.from_mapping(values)
    cfg.mode = mode
    with tempfile.TemporaryDirectory() as tmp:
        manifest = load_key_values(
            _write_manifest(Path(tmp), cfg, {}, time.perf_counter() - 1.0))
    # the time since the given start and the peak memory are recorded, and
    # ignored on the way back
    assert float(manifest["wall_s"]) >= 1.0 and float(manifest["peak_rss_mib"]) > 0
    again = RunConfig.from_mapping(manifest)
    assert again == cfg
