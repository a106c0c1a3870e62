"""Packaged acceptance runs: nine numbered end-to-end checks, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines; every
verdict is also a hard assertion, so the suite fails if a criterion regresses.
The multi-depth and autofocus checks run at full 512-pixel scale and together
take a couple of minutes. Numeric thresholds that are not analytic identities
were frozen from reference runs of this implementation (values quoted in the
comments) so later changes cannot silently degrade them.
"""

import time

import numpy as np
import pytest
import scipy.fft

from holoem.baseline import baseline_reconstruct
from holoem.cli import main
from holoem import em
from holoem.em import ReconParams, reconstruct_complex, reconstruct_real
from holoem.forward import OpticalConfig, simulate
from holoem.io import load_key_values
from holoem.metrics import autofocus, ncc, object_units, psnr, resolution_limits, ssim
from holoem.operators import _transfer_array, propagate, stack_adjoint, stack_forward
from holoem.phantoms import (
    REFERENCE_EXTENT,
    complex_stack,
    multi_depth_masks,
    multi_depth_stack,
    single_slice_stack,
)

from conftest import PITCH, SHORT_DISTANCES, WAVELENGTH, binned_hologram


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _config(n: int, distances) -> OpticalConfig:
    return OpticalConfig(wavelength=WAVELENGTH, pitch_x=PITCH,
                         width=n, height=n, slice_distances=tuple(distances))


# --- criterion 1: operator correctness on random fields ---

def _loop_gradient_error(w, d, g, pad):
    """Relative gap between the gradient _iterate takes (em._data_gradient of
    em._poisson_term's residual; the real part for real slices, both parts
    for complex ones) and a central difference of the Poisson term along d."""
    optics = (PITCH, PITCH, WAVELENGTH, SHORT_DISTANCES, pad)
    floor = em._resolve_floor(g)

    def objective(x):
        return em._poisson_term(g, stack_forward(x, *optics), floor)

    grad = em._data_gradient(objective(w)[1], optics, real=not np.iscomplexobj(w))
    analytic = float(sum(np.sum(gr * dp) for gr, dp in zip(grad, (d.real, d.imag))))
    t = 1e-6
    numeric = (objective(w + t * d)[0] - objective(w - t * d)[0]) / (2 * t)
    return abs(numeric - analytic) / abs(analytic)


def test_c1_adjoint_identity_and_gradient_accuracy(rng):
    distance_sets = [(2.0e-6,), SHORT_DISTANCES, (0.9e-3, 1.1e-3, 1.3e-3)]
    worst_dot = 0.0
    for distances in distance_sets:
        for pad in (False, True):
            w = rng.standard_normal((len(distances), 8, 8))
            r = rng.standard_normal((8, 8))
            fwd = stack_forward(w, PITCH, PITCH, WAVELENGTH, distances, pad=pad)
            adj = stack_adjoint(r, PITCH, PITCH, WAVELENGTH, distances, pad=pad)
            lhs = float(np.sum(fwd * r))
            rhs = float(sum(np.sum(w[i] * adj[i].real) for i in range(len(distances))))
            worst_dot = max(worst_dot, abs(lhs - rhs) / abs(lhs))

    worst_fd = 0.0
    for pad in (False, True):
        w = 0.5 + 0.05 * rng.standard_normal((2, 8, 8))
        g = rng.uniform(0.5, 1.5, (8, 8))
        d = rng.standard_normal((2, 8, 8))
        worst_fd = max(worst_fd, _loop_gradient_error(w, d, g, pad))

        wc = w + 1j * 0.05 * rng.standard_normal((2, 8, 8))
        dc = d + 1j * rng.standard_normal((2, 8, 8))
        worst_fd = max(worst_fd, _loop_gradient_error(wc, dc, g, pad))

    ok = worst_dot < 1e-10 and worst_fd < 1e-4
    _verdict(1, ok, f"adjoint dot-product gap {worst_dot:.2e} (<1e-10), "
                    f"finite-difference gradient error {worst_fd:.2e} (<1e-4)")


# --- criterion 2: propagation is unitary and kernel sums match the lattice ---

def test_c2_round_trip_energy_and_kernel_sums(rng):
    field = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    ref_energy = float(np.sum(np.abs(field) ** 2))
    z = 1.0e-3
    fwd = propagate(field, PITCH, PITCH, WAVELENGTH, z)
    back = propagate(fwd, PITCH, PITCH, WAVELENGTH, -z)
    round_trip = float(np.max(np.abs(back - field)) / np.max(np.abs(field)))
    energy_gap = abs(float(np.sum(np.abs(fwd) ** 2)) - ref_energy) / ref_energy

    # spatial-sum oracle: summing the real and imaginary kernels over the
    # whole lattice picks out the zero-frequency transfer sample, the mean
    # response (1, 0) that padding relies on: propagation is relative to the
    # unscattered plane wave
    worst_kernel = 0.0
    for zk in (0.5e-3, 1.0e-3, 1.25e-3):
        re_h, im_h = _transfer_array(16, 16, PITCH, PITCH, WAVELENGTH, zk)
        spatial = complex(scipy.fft.irfft2(re_h.T, s=(16, 16)).sum(),
                          scipy.fft.irfft2(im_h.T, s=(16, 16)).sum())
        worst_kernel = max(worst_kernel, abs(spatial - 1.0))

    ok = round_trip < 1e-10 and energy_gap < 1e-10 and worst_kernel < 1e-10
    _verdict(2, ok, f"round trip {round_trip:.2e}, energy drift {energy_gap:.2e}, "
                    f"kernel-sum gap {worst_kernel:.2e} (all <1e-10)")


# --- criterion 3: multi-depth separation beats plain backpropagation ---

def _anchored_scores(rec_parts, truth, masks):
    """Per-slice SSIM and relative error in object units, plus leaked-energy fraction.

    SSIM and the relative error are holoem's object-unit scores
    (``metrics.object_units``); a blank estimate's relative error is 1.
    Leakage for slice i is the background-subtracted energy over the other
    slices' supports divided by the energy over slice i's own support.
    """
    all_feat = np.zeros(masks[0].shape, dtype=bool)
    for m in masks:
        all_feat |= m
    ssims, errors, leaks = [], [], []
    for i, r in enumerate(rec_parts):
        rn, tn, error = object_units(r, truth[i])
        ssims.append(ssim(rn, tn, peak=1.0))
        errors.append(error)
        other = all_feat & ~masks[i]
        bg = np.median(r[~all_feat])
        leaks.append(float(np.sum((r[other] - bg) ** 2) / np.sum((r[masks[i]] - bg) ** 2)))
    return ssims, errors, leaks


def test_c3_multi_depth_em_beats_backpropagation():
    distances = (0.5e-3, 1.0e-3, 1.25e-3)
    all_ok = True
    details = []
    # reference run: 128 px/300 its ssim (0.749, 0.737, 0.765) vs backprop
    # (0.003, 0.006, -0.003), worst leak 0.045, 1.3 s; 512 px/200 its ssim
    # (0.840, 0.849, 0.856) vs (0.114, 0.006, 0.005), worst leak 0.048, 18 s
    # (2 vCPU); relative error in object units 0.43/0.50/0.50 and
    # 0.61/0.61/0.65, where a blank estimate scores 1.00; the 128 px case's
    # error is also frozen below 0.55 on every slice
    for n, iters, budget, frozen in ((128, 300, 10.0, 0.55), (512, 200, 120.0, 1.0)):
        cfg = _config(n, distances)
        truth = multi_depth_stack(cfg)
        masks = [m.astype(bool) for m in
                 multi_depth_masks(n, n, REFERENCE_EXTENT / cfg.pitch_x)]
        holo = simulate(truth, cfg, model="linear")
        start = time.perf_counter()
        rec, trace = reconstruct_real(holo, ReconParams(max_iters=iters))
        elapsed = time.perf_counter() - start
        em_ssim, errors, leaks = _anchored_scores(list(rec), truth, masks)
        bp = stack_adjoint(holo.intensity, PITCH, PITCH, WAVELENGTH,
                           distances, pad=True).real
        bp_ssim, _, _ = _anchored_scores(list(bp), truth, masks)
        ok = (not trace.diverged
              and all(e > b for e, b in zip(em_ssim, bp_ssim))
              and max(leaks) < 0.10
              and max(errors) < 1.0
              and max(errors) < frozen
              and elapsed < budget)
        all_ok = all_ok and ok
        details.append(
            f"{n}px/{iters}it em ssim ({', '.join(f'{s:.3f}' for s in em_ssim)}) vs "
            f"bp ({', '.join(f'{s:.3f}' for s in bp_ssim)}), leak<= {max(leaks):.3f}, "
            f"rel err ({', '.join(f'{e:.2f}' for e in errors)}) (<{frozen:.2f}), "
            f"{elapsed:.1f}s/{budget:.0f}s")
    _verdict(3, all_ok, "; ".join(details))


def test_c3_off_model_holograms():
    # beside criterion 3: its 128 px case on data the solver did not make, the
    # object on a grid twice as fine with the full model, binned to the sensor
    # (conftest.binned_hologram), clean and on noisy seed 1, scored against the
    # binned truth. Reference run (300 its): ssim 0.730/0.726/0.744 clean and
    # 0.509/0.532/0.582 noisy; relative error 0.45/0.55/0.56 and
    # 0.55/0.63/0.63; worst leak 0.063 and 0.060, both below criterion 3's
    # 0.10
    distances = (0.5e-3, 1.0e-3, 1.25e-3)
    cfg = _config(128, distances)
    masks = multi_depth_masks(128, 128, REFERENCE_EXTENT / cfg.pitch_x)
    for seed in (None, 1):
        truth, holo = binned_hologram(multi_depth_stack, cfg, seed=seed)
        rec, trace = reconstruct_real(holo, ReconParams(max_iters=300))
        em_ssim, errors, leaks = _anchored_scores(list(rec), truth, masks)
        bp = stack_adjoint(holo.intensity, PITCH, PITCH, WAVELENGTH, distances, pad=True).real
        bp_ssim, _, _ = _anchored_scores(list(bp), truth, masks)
        assert not trace.diverged, seed
        assert all(e > b for e, b in zip(em_ssim, bp_ssim)), (seed, em_ssim, bp_ssim)
        assert max(errors) < 0.70, (seed, errors)
        assert max(leaks) < 0.08, (seed, leaks)


# Axial sectioning beside criterion 3: three planes at 1 mm - dz, 1 mm and
# 1 mm + dz, 128 px, 300 iterations, clean and noisy seed 1. Worst-slice
# leak of the reference run, (clean, noisy) per dz of 500/250/100/50 um:
# disjoint masks 0.027/0.035, 0.076/0.075, 0.153/0.176, 0.307/0.350;
# one mask shifted 3 px down and right per slice 0.010/0.024, 0.015/0.023,
# 0.029/0.024, 0.089/0.091. Back-propagation leaks 3.74-4.40 and 0.59-1.03.
# Each bound is the larger reference leak plus at least 20%; lambda/NA^2 is
# about 131 um at this aperture.
_SECTIONING_BOUNDS = {
    False: {500e-6: 0.045, 250e-6: 0.091, 100e-6: 0.22, 50e-6: 0.43},
    True: {500e-6: 0.030, 250e-6: 0.028, 100e-6: 0.036, 50e-6: 0.11},
}


@pytest.mark.parametrize("overlap", [False, True], ids=["disjoint", "overlapping"])
def test_axial_sectioning_leak_by_slice_spacing(overlap):
    masks = [m.astype(bool) for m in multi_depth_masks(128, 128, REFERENCE_EXTENT / PITCH)]
    if overlap:
        masks = [np.roll(masks[0], (3 * i, 3 * i), axis=(0, 1)) for i in range(3)]
    truth = np.stack([-0.04 * m for m in masks])
    for seed in (None, 1):
        sectioned = []
        for dz, bound in _SECTIONING_BOUNDS[overlap].items():
            cfg = _config(128, (1e-3 - dz, 1e-3, 1e-3 + dz))
            holo = simulate(truth, cfg, seed=seed)
            rec, _ = reconstruct_real(holo, ReconParams(max_iters=300))
            leak = max(_anchored_scores(list(rec), truth, masks)[2])
            bp = stack_adjoint(holo.intensity, PITCH, PITCH, WAVELENGTH,
                               cfg.slice_distances, pad=True).real
            bp_leak = max(_anchored_scores(list(bp), truth, masks)[2])
            assert leak < bp_leak and leak < bound, (seed, dz, leak, bp_leak, bound)
            if leak < 0.10:
                sectioned.append(dz)
        print(f"{'overlapping' if overlap else 'disjoint'} masks, seed {seed}: smallest "
              f"spacing with leak < 0.10 is {min(sectioned) * 1e6:.0f} um")


# --- criterion 4: the upper bound accelerates settling ---

def _settle(off) -> int:
    """The settling point of a curve: the first 1-indexed iteration from
    which it stays within 5% of its final value, off marking the rows that
    are not."""
    rows = np.nonzero(off)[0]
    return int(rows[-1]) + 2 if rows.size else 1


def test_c4_upper_bound_speeds_convergence():
    # a unit upper bound is the passive-absorber limit of the estimate's
    # 1 + 2o and engages at any depth; this one is 1481 wavelengths, about 1 mm
    z = 1481 * WAVELENGTH
    cfg = _config(256, (z,))
    truth = single_slice_stack(cfg)
    holo = simulate(truth, cfg, model="linear")

    _, tr_bound = reconstruct_real(
        holo, ReconParams(max_iters=100, upper_bound=1.0),
        ground_truth=truth)
    curve = np.array(tr_bound.ssim, dtype=float)
    # stays at or above 95% of the final ssim (reference run settles at 1: in
    # object units the curve falls from row 1, 0.932 -> 0.756)
    settle = _settle(curve < 0.95 * curve[-1])

    _, tr_free = reconstruct_real(holo, ReconParams(max_iters=100),
                                  ground_truth=truth)
    _, tr_base = baseline_reconstruct(holo, ReconParams(max_iters=100), ground_truth=truth)
    target = float(tr_base.ssim[-1])
    hits = np.nonzero(np.array(tr_free.ssim, dtype=float) >= target)[0]
    reach = int(hits[0]) + 1 if hits.size else 101

    # stays at or below 105% of the final relative error (reference run: the
    # bounded error reads 0.550/0.248/0.242 at rows 1/10/100 and settles at
    # 8, the unbounded one 0.591/0.395/0.329 and settles at 76)
    err_settle = [_settle(e > 1.05 * e[-1]) for e in
                  (np.array(tr.rel_error, dtype=float) for tr in (tr_bound, tr_free))]

    ok = settle <= 15 and reach <= 70 and err_settle[1] - err_settle[0] >= 30
    _verdict(4, ok, f"bounded run settles at iteration {settle} (<=15); unbounded run "
                    f"matches the baseline's 100-iteration ssim {target:.3f} at "
                    f"iteration {reach} (<=70, i.e. at least 30 iterations sooner); "
                    f"relative error settles at {err_settle[0]} bounded, "
                    f"{err_settle[1]} unbounded (at least 30 iterations sooner)")


# --- criterion 5: Poisson-noise reconstruction quality and the dB table ---

def test_c5_poisson_psnr_beats_baseline_and_db_identities():
    cfg = _config(256, (1.0e-3,))
    truth = single_slice_stack(cfg)
    holo = simulate(truth, cfg, model="linear", seed=2024)
    rec_em, _ = reconstruct_real(holo, ReconParams(max_iters=100))
    rec_base, _ = baseline_reconstruct(holo, ReconParams(max_iters=100))
    # in object units (reference run: 22.96 dB against 18.29 dB)
    em_db = psnr(*object_units(rec_em[0], truth[0])[:2], peak=1.0)
    base_db = psnr(*object_units(rec_base[0], truth[0])[:2], peak=1.0)

    # quoted mse <-> dB pairs for 8-bit scale must agree within 0.01 dB
    worst_gap = 0.0
    for mse_val, quoted_db in ((372.95, 22.41), (315.40, 23.14)):
        got = psnr(np.full((4, 4), np.sqrt(mse_val)), np.zeros((4, 4)), peak=255.0)
        worst_gap = max(worst_gap, abs(got - quoted_db))

    ok = em_db > base_db and worst_gap <= 0.01
    _verdict(5, ok, f"Poisson run psnr {em_db:.2f} dB (em) > {base_db:.2f} dB (baseline); "
                    f"mse<->dB table gap {worst_gap:.4f} dB (<=0.01)")


# --- criterion 6: complex retrieval, and a purely real object stays real ---

def test_c6_complex_object_recovery():
    cfg = _config(192, (1.0e-3,))
    params = ReconParams(max_iters=1000)

    truth = complex_stack(cfg)
    stack, _ = reconstruct_complex(simulate(truth, cfg, model="linear"), params)
    rec = stack[0]
    ncc_re = ncc(rec.real, truth[0].real)
    ncc_im = ncc(rec.imag, truth[0].imag)

    real_truth = single_slice_stack(cfg)
    stack_r, _ = reconstruct_complex(simulate(real_truth, cfg, model="linear"), params)
    leak = float(np.linalg.norm(stack_r[0].imag) / np.linalg.norm(stack_r[0].real))
    # the leak above is small for a blank imaginary part whatever its offset;
    # the spread about the mean is the structure that leaked (reference 0.0080)
    spread = float(np.std(stack_r[0].imag) / np.std(stack_r[0].real))

    ok = ncc_re > 0.8 and ncc_im > 0.8 and leak < 0.05 and spread < 0.05
    _verdict(6, ok, f"ncc real {ncc_re:.3f} / imag {ncc_im:.3f} (>0.8); "
                    f"imaginary leakage for a real object {leak:.4f} (<0.05), "
                    f"its spread over the real part's {spread:.4f} (<0.05)")


# --- criterion 7: autofocus lands on the simulated depth ---

def test_c7_autofocus_recovers_depth():
    cfg = _config(512, (1.0e-3,))
    holo = simulate(single_slice_stack(cfg), cfg, model="linear")
    z_best = autofocus(holo, 0.5e-3, 1.5e-3, 5e-6)
    err = abs(z_best - 1.0e-3)
    _verdict(7, err <= 10e-6, f"best focus {z_best * 1e3:.4f} mm over a 0.5-1.5 mm sweep, "
                              f"error {err * 1e6:.1f} um (<=10)")


def test_c7_off_model_holograms():
    # beside criterion 7: its sweep on the object made on a grid twice as fine
    # with the full model and binned to the sensor, clean and on noisy seed 1
    # (reference run: 1.005 mm clean, 1.000 mm noisy)
    cfg = _config(512, (1.0e-3,))
    for seed in (None, 1):
        _, holo = binned_hologram(single_slice_stack, cfg, seed=seed)
        z_best = autofocus(holo, 0.5e-3, 1.5e-3, 5e-6)
        assert abs(z_best - 1.0e-3) <= 10e-6, (seed, z_best)


# --- criterion 8: resolution figures and their aperture scaling ---

def test_c8_resolution_figures_and_scaling():
    # aperture implied by the quoted 1.17 um lateral figure at 675 nm
    na = WAVELENGTH / (2 * 1.17e-6)
    lateral, axial = resolution_limits(WAVELENGTH, na)
    lateral_gap = abs(lateral - 1.17e-6) / 1.17e-6

    double_lat, double_ax = resolution_limits(WAVELENGTH, 2 * na)
    scaling_exact = (abs(2 * double_lat - lateral) <= 1e-12 * lateral
                     and abs(4 * double_ax - axial) <= 1e-12 * axial)

    ok = lateral_gap < 0.01 and scaling_exact
    _verdict(8, ok, f"na {na:.5f}: lateral {lateral * 1e6:.3f} um (within 1% of 1.17), "
                    f"axial {axial * 1e6:.2f} um; 1/na and 1/na^2 scaling exact")


# --- criterion 9: identical manifests give bit-identical outputs ---

def _pfm_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.pfm"))}


def _manifest_without_measurements(directory):
    # wall time and peak memory are measured, like the trace's millis
    entries = load_key_values(directory / "manifest.txt")
    return {k: v for k, v in entries.items() if k not in ("wall_s", "peak_rss_mib")}


def _trace_rows_without_millis(path):
    # drop the wall-clock column, the one field that legitimately varies
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    millis = header.index("millis")
    return [row[:millis] + row[millis + 1:] for row in [header, *rows]]


def test_c9_manifest_rerun_is_bit_identical(tmp_path):
    sim_a = tmp_path / "sim_a"
    assert main(["simulate", "--out", str(sim_a), "--width", "128", "--height", "128",
                 "--wavelength", "675nm", "--pitch", "1.12um",
                 "--slice-distances", "1mm", "--phantom", "single",
                 "--noise-seed", "11"]) == 0
    sim_b = tmp_path / "sim_b"
    assert main(["simulate", "--config", str(sim_a / "manifest.txt"),
                 "--out", str(sim_b)]) == 0
    holograms_same = _pfm_bytes(sim_a) == _pfm_bytes(sim_b)

    rec_a = tmp_path / "rec_a"
    assert main(["reconstruct-real", "--out", str(rec_a),
                 "--input", str(sim_a / "hologram.pfm"),
                 "--slice-distances", "1mm", "--iters", "25",
                 "--init", "constant"]) == 0
    rec_b = tmp_path / "rec_b"
    assert main(["reconstruct-real", "--config", str(rec_a / "manifest.txt"),
                 "--out", str(rec_b)]) == 0
    slices_same = _pfm_bytes(rec_a) == _pfm_bytes(rec_b)
    traces_same = (_trace_rows_without_millis(rec_a / "trace.csv")
                   == _trace_rows_without_millis(rec_b / "trace.csv"))
    manifests_same = all(_manifest_without_measurements(a) == _manifest_without_measurements(b)
                         for a, b in ((sim_a, sim_b), (rec_a, rec_b)))

    ok = holograms_same and slices_same and traces_same and manifests_same
    _verdict(9, ok, f"hologram bytes identical: {holograms_same}; reconstruction bytes "
                    f"identical: {slices_same}; traces identical up to wall-clock "
                    f"times: {traces_same}; manifests identical up to wall_s and "
                    f"peak_rss_mib: {manifests_same}")
