"""Image files, sidecars, key-value documents, trace CSV."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage as ndi

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holoem.em import ReconTrace
from holoem.grid import RealGrid2D
from holoem.io import (
    DEFAULT_PITCH,
    ConfigError,
    HoloIOError,
    apply_reference_illumination,
    load_image,
    load_key_values,
    load_metadata,
    parse_key_values,
    save_image,
    sidecar_path,
    write_error_record,
    write_key_values,
    write_trace,
)

from conftest import PITCH


def grid_from(rng, shape=(7, 5)):
    # float32-representable values so a PFM round trip is bit-exact
    data = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    return RealGrid2D(data, PITCH, 2 * PITCH)


class TestPfm:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        g = grid_from(rng)
        paths = save_image(tmp_path / "img.pfm", g, wavelength=675e-9)
        assert [p.name for p in paths] == ["img.pfm", "img.pfm.meta"]
        back = load_image(tmp_path / "img.pfm")
        np.testing.assert_array_equal(back.data, g.data)
        assert back.pitch_x == g.pitch_x and back.pitch_y == g.pitch_y

    def test_numpy_scalar_pitch_and_wavelength_round_trip(self, rng, tmp_path):
        # the sidecar records the values, not numpy's repr of them
        pitch = np.float64(1.12e-6)
        g = RealGrid2D(grid_from(rng).data, pitch, np.float64(2 * pitch))
        save_image(tmp_path / "img.pfm", g, wavelength=np.float64(675e-9))
        back = load_image(tmp_path / "img.pfm")
        assert (back.pitch_x, back.pitch_y) == (1.12e-6, 2 * 1.12e-6)
        assert float(load_metadata(tmp_path / "img.pfm")["wavelength"]) == 675e-9

    def test_big_endian_variant(self, tmp_path):
        # positive scale marks big-endian samples; rows run bottom-to-top
        data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
        payload = np.flipud(data).astype(">f4").tobytes()
        (tmp_path / "be.pfm").write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        back = load_image(tmp_path / "be.pfm")
        np.testing.assert_array_equal(back.data, data)
        assert back.pitch_x == DEFAULT_PITCH  # no sidecar

    def test_missing_sidecar_warns(self, rng, tmp_path, caplog):
        g = grid_from(rng)
        save_image(tmp_path / "img.pfm", g)
        sidecar_path(tmp_path / "img.pfm").unlink()
        import logging
        with caplog.at_level(logging.WARNING, logger="holoem.io"):
            back = load_image(tmp_path / "img.pfm")
        assert back.pitch_x == DEFAULT_PITCH
        assert any("sidecar" in r.message for r in caplog.records)

    @pytest.mark.parametrize("blob, complaint", [
        (b"PF\n2 2\n-1.0\n" + b"\x00" * 32, "color"),
        (b"P5\n2 2\n-1.0\n" + b"\x00" * 16, "magic"),
        (b"Pf\n2 x\n-1.0\n" + b"\x00" * 16, "integer"),
        (b"Pf\n2 2\n0.0\n" + b"\x00" * 16, "scale"),
        (b"Pf\n2 2\nnope\n" + b"\x00" * 16, "scale"),
        (b"Pf\n2 2\n-1.0\n" + b"\x00" * 7, "bytes"),
        (b"Pf\n2", "truncated"),
        (b"Pf\n0 2\n-1.0\n", "dimensions"),
    ])
    def test_malformed_files_rejected(self, tmp_path, blob, complaint):
        p = tmp_path / "bad.pfm"
        p.write_bytes(blob)
        with pytest.raises(HoloIOError, match=complaint):
            load_image(p)

    def test_non_finite_payload_rejected(self, tmp_path):
        payload = np.array([[np.inf, 0.0], [0.0, 0.0]], dtype="<f4").tobytes()
        p = tmp_path / "inf.pfm"
        p.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        with pytest.raises(HoloIOError, match="non-finite"):
            load_image(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(HoloIOError, match="no such file"):
            load_image(tmp_path / "absent.pfm")

    def test_unknown_suffix(self, rng, tmp_path):
        with pytest.raises(HoloIOError, match="suffix"):
            save_image(tmp_path / "img.tiff", grid_from(rng))
        png = tmp_path / "img.png"
        png.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(HoloIOError, match="suffix"):
            load_image(png)


class TestPgm:
    def test_quantization_error_bounded(self, rng, tmp_path):
        g = RealGrid2D(rng.random((9, 4)) * 3.0 - 1.0, PITCH, PITCH)
        save_image(tmp_path / "img.pgm", g)
        back = load_image(tmp_path / "img.pgm")
        assert (tmp_path / "img.pgm").read_bytes().startswith(b"P5\n4 9\n65535\n")
        maxval = 65535
        span = float(g.data.max() - g.data.min())
        # rounding to the integer grid costs at most half a step
        assert np.max(np.abs(back.data - g.data)) <= 0.5 * span / maxval + 1e-12
        meta = load_metadata(tmp_path / "img.pgm")
        assert float(meta["pgm_min"]) == g.data.min()
        assert float(meta["pgm_max"]) == g.data.max()

    def test_constant_image(self, tmp_path):
        g = RealGrid2D(np.full((3, 3), 4.2), PITCH, PITCH)
        save_image(tmp_path / "c.pgm", g)
        back = load_image(tmp_path / "c.pgm")
        np.testing.assert_allclose(back.data, 4.2, atol=1e-12)

    def test_without_range_sidecar_maps_to_unit_interval(self, tmp_path):
        payload = np.array([[0, 127], [255, 0]], dtype="u1").tobytes()
        p = tmp_path / "raw.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + payload)
        back = load_image(p)
        assert back.data.min() == 0.0 and back.data.max() == 1.0

    def test_header_comments_allowed(self, tmp_path):
        payload = np.zeros((2, 2), dtype="u1").tobytes()
        p = tmp_path / "comment.pgm"
        p.write_bytes(b"P5\n# made by hand\n2 2\n255\n" + payload)
        assert load_image(p).data.shape == (2, 2)

    def test_bad_maxval_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 2\n0\n" + b"\x00" * 4)
        with pytest.raises(HoloIOError, match="maxval"):
            load_image(p)

    @pytest.mark.parametrize("blob, complaint", [
        (b"P5\n2", "truncated"),
        (b"P5\n2 x\n255\n" + b"\x00" * 4, "integer"),
        (b"P5\n0 2\n255\n", "dimensions"),
        (b"P5\n2 2\n255\n" + b"\x00" * 3, "bytes"),
        (b"P5\n2 2\n65535\n" + b"\x00" * 7, "bytes"),
    ], ids=["truncated", "non-integer-width", "zero-dimensions", "short-8-bit",
            "short-16-bit"])
    def test_malformed_headers_rejected_as_for_pfm(self, tmp_path, blob, complaint):
        # the same header grammar and data-size check as PFM, with the same words
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(HoloIOError, match=complaint):
            load_image(p)


@pytest.mark.parametrize("name, blob, size, found", [
    ("crlf.pfm", b"Pf\r\n3 2\r\n-1.0\r\n" + b"\x01" * 24, 24, 25),
    ("crlf.pgm", b"P5\r\n3 2\r\n255\r\n" + b"\x01" * 6, 6, 7),
    ("trailing.pfm", b"Pf\n2 2\n-1.0\n" + b"\x00" * 16 + b"\n", 16, 17),
    ("trailing.pgm", b"P5\n2 2\n65535\n" + b"\x00" * 8 + b"\n", 8, 9),
], ids=["crlf-pfm", "crlf-pgm", "trailing-pfm", "trailing-pgm"])
def test_data_must_end_the_file(tmp_path, name, blob, size, found):
    # one whitespace byte ends the header, so a CRLF header leaves its LF in
    # front of the data; a file longer than its header's data is refused,
    # not read shifted by a byte or cut short
    p = tmp_path / name
    p.write_bytes(blob)
    with pytest.raises(HoloIOError, match=f"expected {size} data bytes, found {found}"):
        load_image(p)


F32 = np.finfo(np.float32)
_shapes = st.tuples(st.integers(2, 17), st.integers(2, 17))
_pitches = st.floats(0.5e-6, 20e-6)
_wavelengths = st.floats(300e-9, 2e-6)


def _round_trip(grid, name, wavelength):
    """Save and reload through a fresh directory; returns the grid and sidecar."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save_image(path, grid, wavelength=wavelength)
        return load_image(path), load_metadata(path)


@settings(max_examples=80)
@given(st.data(), _shapes, _pitches, _pitches, _wavelengths)
def test_pfm_round_trip_is_bit_exact_over_the_float32_range(data, shape, pitch_x, pitch_y,
                                                            wavelength):
    values = data.draw(hnp.arrays(np.float32, shape, elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True)))
    # the extremes of the range in every example: both maxima, a subnormal
    values.flat[:3] = (F32.max, -F32.max, F32.smallest_subnormal)
    back, meta = _round_trip(RealGrid2D(values, pitch_x, pitch_y), "img.pfm", wavelength)
    assert back.data.astype(np.float32).tobytes() == values.tobytes()
    assert (back.pitch_x, back.pitch_y) == (pitch_x, pitch_y)
    assert float(meta["wavelength"]) == wavelength


@settings(max_examples=80)
@given(st.data(), _shapes, _pitches, _pitches, _wavelengths)
def test_pgm_round_trip_is_within_half_a_quantization_step(data, shape, pitch_x, pitch_y,
                                                           wavelength):
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
        -1e300, 1e300, allow_nan=False, allow_subnormal=True)))
    back, meta = _round_trip(RealGrid2D(values, pitch_x, pitch_y), "img.pgm", wavelength)
    lo, hi = float(values.min()), float(values.max())
    assert (float(meta["pgm_min"]), float(meta["pgm_max"])) == (lo, hi)
    # half a step, plus the float64 rounding of the two affine maps
    step = (hi - lo) / 65535
    slack = 4 * np.finfo(np.float64).eps * (hi - lo + max(abs(lo), abs(hi)))
    assert np.max(np.abs(back.data - values)) <= 0.5 * step + slack
    assert (back.pitch_x, back.pitch_y) == (pitch_x, pitch_y)
    assert float(meta["wavelength"]) == wavelength


def test_pfm_refuses_values_beyond_float32(tmp_path):
    # 1e39 is finite in float64 but would be stored as inf, which
    # load_image rejects; nothing is written
    g = RealGrid2D(np.array([[0.0, 1e39], [-1.0, 2.0]]), PITCH, PITCH)
    with pytest.raises(HoloIOError, match="float32"):
        save_image(tmp_path / "big.pfm", g)
    assert not (tmp_path / "big.pfm").exists()


def test_pgm_refuses_a_range_too_wide_to_quantize(tmp_path):
    # max - min overflows float64, so the scaling would write NaN casts
    g = RealGrid2D(np.array([[-1e308, 1e308], [0.0, 1.0]]), PITCH, PITCH)
    with pytest.raises(HoloIOError, match="too wide"):
        save_image(tmp_path / "wide.pgm", g)
    assert not (tmp_path / "wide.pgm").exists()


def test_pgm_sidecar_range_that_overflows_is_an_io_error(tmp_path):
    p = tmp_path / "hand.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + np.array([[0, 127], [255, 0]], dtype="u1").tobytes())
    write_key_values(sidecar_path(p), {"pitch_x": PITCH, "pgm_min": -1e308, "pgm_max": 1e308})
    with pytest.raises(HoloIOError, match="finite"):
        load_image(p)


def test_apply_reference_illumination_is_windowed_mean():
    raw = np.zeros((9, 9))
    raw[4, 4] = 25.0
    out = apply_reference_illumination(raw)
    assert out[4, 4] == pytest.approx(1.0)  # 25 spread over a 5x5 window
    assert out[2, 2] == pytest.approx(1.0) and out[1, 4] == 0.0
    assert out[0, 0] == 0.0
    assert out.sum() == pytest.approx(25.0)
    assert raw[4, 4] == 25.0  # the input is left as it was


@pytest.mark.parametrize("shape", [(2, 3), (9, 9), (37, 64)])
def test_apply_reference_illumination_matches_ndimage_bit_for_bit(rng, shape):
    # the running window sums round as ndimage's uniform filter does
    raw = 1e4 * rng.random(shape)
    out = apply_reference_illumination(raw)
    assert np.array_equal(out, ndi.uniform_filter(raw, size=5, mode="nearest"))


class TestKeyValues:
    def test_parse_comments_and_spacing(self):
        # '#' starts a comment only first on a line or after whitespace
        text = ("# leading comment\n a = 1 \nb=two words # trailing\n\nc = 3=4\n"
                "d = d#1/hologram.pfm\ne = x\t# tab comment\nf = #\n")
        out = parse_key_values(text)
        assert out == {"a": "1", "b": "two words", "c": "3=4", "d": "d#1/hologram.pfm",
                       "e": "x", "f": ""}

    def test_duplicate_key_warns_and_overrides(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="holoem.io"):
            out = parse_key_values("k = 1\nk = 2\n")
        assert out["k"] == "2"
        assert any("duplicate" in r.message for r in caplog.records)

    @pytest.mark.parametrize("text", ["just words\n", " = value\n"])
    def test_malformed_lines_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_key_values(text)

    def test_float_repr_round_trip(self, tmp_path):
        path = tmp_path / "conf.txt"
        write_key_values(path, {"pitch": 1.12e-6, "name": "run1", "n": 3})
        out = load_key_values(path)
        assert float(out["pitch"]) == 1.12e-6
        assert out["name"] == "run1" and out["n"] == "3"

    def test_numpy_scalars_bools_and_sequences_round_trip(self, tmp_path):
        # numpy 2 reprs a float64 as 'np.float64(...)', which no reader parses
        values = {"pitch": np.float64(1.12e-6), "narrow": np.float32(0.1), "pad": True,
                  "off": np.bool_(False), "zs": (1e-3, np.float64(2.5e-3)), "paths": ["a", "b"]}
        out = load_key_values(write_key_values(tmp_path / "conf.txt", values))
        assert out == {"pitch": "1.12e-06", "narrow": repr(float(np.float32(0.1))),
                       "pad": "true", "off": "false", "zs": "0.001,0.0025", "paths": "a,b"}

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(HoloIOError):
            load_key_values(tmp_path / "none.txt")


class TestTraceCsv:
    @staticmethod
    def _rows(path):
        with open(path, newline="", encoding="utf-8") as f:
            return list(csv.reader(f))

    def test_round_trip_with_and_without_ssim(self, tmp_path):
        trace = ReconTrace()
        trace.append(1, 10.5, 3.25, None, None, 12.0)
        trace.append(2, 9.125, 3.0, 0.875, 0.25, 11.5)
        trace.append(3, 9.0, 2.5, 0.5, None, 11.0)  # a zero truth has no relative error
        header, *rows = self._rows(write_trace(tmp_path / "t.csv", trace))
        assert header == list(ReconTrace.COLUMNS) == ["iteration", "nll", "tv", "ssim",
                                                      "rel_error", "millis"]
        assert rows == [["1", "10.5", "3.25", "", "", "12.0"],
                        ["2", "9.125", "3.0", "0.875", "0.25", "11.5"],
                        ["3", "9.0", "2.5", "0.5", "", "11.0"]]

    def test_full_precision_floats(self, tmp_path):
        trace = ReconTrace()
        trace.append(1, 1.0 / 3.0, 2.0 / 7.0, 1.0 / 9.0, 1.0 / 11.0, 0.1)
        trace.append(2, 1e-300, -5e307, None, None, 1.0 / 7.0)
        header, *rows = self._rows(write_trace(tmp_path / "t.csv", trace))
        assert header == list(ReconTrace.COLUMNS)
        columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        assert [int(v) for v in columns["iteration"]] == trace.iterations
        for name in ("nll", "tv", "millis"):
            assert [float(v) for v in columns[name]] == getattr(trace, name), name
        for name in ("ssim", "rel_error"):
            assert [float(v) if v else None for v in columns[name]] == getattr(trace, name), name


def test_write_error_record(tmp_path):
    import json
    path = write_error_record(tmp_path / "out", 3, "NumericError", "diverged")
    assert path is not None and path.name == "error.json"
    record = json.loads(path.read_text())
    assert record == {"exit_code": 3, "error": "NumericError", "message": "diverged"}


def test_write_error_record_into_a_file_returns_none(tmp_path, caplog):
    # best effort: an output path that is a file leaves no record and raises nothing
    blocker = tmp_path / "out"
    blocker.write_text("not a directory")
    assert write_error_record(blocker, 2, "ConfigError", "bad key") is None
    assert "could not write error record" in caplog.text
