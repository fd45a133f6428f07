import dataclasses
import importlib.util
import math
import re
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import demoire.cli
import demoire.spectral
import demoire.transform
from demoire import (
    BilateralParams,
    DiffusionParams,
    GrayImage,
    MedianParams,
    ModeParams,
    MoireComponent,
    MoireSpec,
    NlmParams,
    QualityReport,
    RepairParams,
    TvParams,
    add_salt_pepper,
    anisotropic_diffusion,
    bilateral_filter,
    center_shift,
    denoise_moire,
    detect_peaks,
    dft2d,
    idft2d,
    median_filter,
    mode_filter,
    nlm_denoise,
    notch_reject,
    psnr,
    read_pgm,
    spectral_median,
    spectral_mse,
    synthesize_moire,
    tv_denoise,
    write_pgm,
)
from demoire.cli import main
from demoire.noise import default_noise_corpus
from demoire.synth import default_bench_images, make_filtered_field

from test_noise import per_pixel_moire
from test_spatial import bilateral_full_offsets, nlm_full_offsets, tv_iterated_steps
from test_transform import fft2_dft2d, ifft2_idft2d


def write_image(path, pixels):
    path.write_bytes(write_pgm(GrayImage(pixels)))


def fft2_spectrum_view(img):
    """`--dump-spectrum` reference: log(1 + |fft2|), DC moved to the center by
    fftshift, rescaled to [0, 255] and written as a PGM."""
    scaled = np.log1p(np.abs(np.fft.fftshift(np.fft.fft2(img.pixels))))
    lo, hi = scaled.min(), scaled.max()
    return write_pgm(GrayImage((scaled - lo) * (255.0 / (hi - lo))))


@pytest.fixture
def constant_image(tmp_path):
    path = tmp_path / "flat.pgm"
    write_image(path, np.full((64, 64), 128.0))
    return path


@pytest.fixture
def moire_spec_file(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("amplitude,freq_u,freq_v,phase\n20.0,0.1875,0.0,0.0\n")  # 12/64 cycles
    return path


class TestAddNoise:
    def test_moire_run_writes_valid_pgm(self, tmp_path, constant_image, moire_spec_file):
        out = tmp_path / "noisy.pgm"
        rc = main(
            ["add-noise", "--in", str(constant_image), "--out", str(out), "--noise-spec", str(moire_spec_file)]
        )
        assert rc == 0
        img = read_pgm(out.read_bytes())
        assert img.shape == (64, 64)
        assert img.pixels.std() > 5.0

    def test_conflicting_noise_flags_usage_error(self, tmp_path, constant_image):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "add-noise", "--in", str(constant_image), "--out", str(tmp_path / "x.pgm"),
                    "--gaussian", "5", "--salt-pepper", "0.1", "--seed", "1",
                ]
            )
        assert err.value.code == 2

    def test_gaussian_requires_seed(self, tmp_path, constant_image):
        with pytest.raises(SystemExit) as err:
            main(["add-noise", "--in", str(constant_image), "--out", str(tmp_path / "x.pgm"), "--gaussian", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--gaussian", "5"), ("--salt-pepper", "0.1")])
    def test_random_noise_without_seed_names_its_flag(self, tmp_path, constant_image, capsys, flag, value):
        out = tmp_path / "x.pgm"
        with pytest.raises(SystemExit) as err:
            main(["add-noise", "--in", str(constant_image), "--out", str(out), flag, value])
        assert err.value.code == 2
        assert f"--seed is required with {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_byte_identical(self, tmp_path, constant_image):
        out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (out1, out2):
            rc = main(
                ["add-noise", "--in", str(constant_image), "--out", str(out), "--gaussian", "7.5", "--seed", "42"]
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_float_full_precision(self, tmp_path, constant_image, moire_spec_file):
        out = tmp_path / "noisy.pgm"
        outf = tmp_path / "noisy.txt"
        rc = main(
            [
                "add-noise", "--in", str(constant_image), "--out", str(out),
                "--noise-spec", str(moire_spec_file), "--out-float", str(outf),
            ]
        )
        assert rc == 0
        matrix = np.loadtxt(outf)
        assert matrix.shape == (64, 64)
        x = np.arange(64)[:, None]
        want = 128.0 + 20.0 * np.sin(2 * np.pi * 0.1875 * x) * np.ones((1, 64))
        assert np.max(np.abs(matrix - want)) <= 1e-9

    def test_unreadable_input_runtime_error(self, tmp_path, capsys):
        rc = main(
            ["add-noise", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "x.pgm"),
             "--gaussian", "5", "--seed", "1"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_spec_file_runtime_error(self, tmp_path, constant_image, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")
        rc = main(
            ["add-noise", "--in", str(constant_image), "--out", str(tmp_path / "x.pgm"), "--noise-spec", str(bad)]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_spec_field_named(self, tmp_path, constant_image, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("nan,0.1,0.1,0\n")
        rc = main(
            ["add-noise", "--in", str(constant_image), "--out", str(tmp_path / "x.pgm"), "--noise-spec", str(bad)]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: moire amplitude must be finite, got nan\n"
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_gaussian_sigma_named(self, tmp_path, constant_image, capsys, value):
        out = tmp_path / "x.pgm"
        rc = main(["add-noise", "--in", str(constant_image), "--out", str(out), "--gaussian", value, "--seed", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(f" sigma must be finite, got {value}")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_salt_pepper_matches_library(self, tmp_path, constant_image):
        out = tmp_path / "sp.pgm"
        rc = main(["add-noise", "--in", str(constant_image), "--out", str(out), "--salt-pepper", "0.2", "--seed", "3"])
        assert rc == 0
        assert out.read_bytes() == write_pgm(add_salt_pepper(read_pgm(constant_image.read_bytes()), 0.2, 3))


class TestDenoise:
    def test_spectral_median_dumps_true_peaks(self, tmp_path, constant_image, moire_spec_file):
        noisy = tmp_path / "noisy.pgm"
        main(["add-noise", "--in", str(constant_image), "--out", str(noisy), "--noise-spec", str(moire_spec_file)])
        out = tmp_path / "denoised.pgm"
        peaks_csv = tmp_path / "peaks.csv"
        spectrum_pgm = tmp_path / "spectrum.pgm"
        rc = main(
            [
                "denoise", "--in", str(noisy), "--out", str(out), "--method", "spectral-median",
                "--dump-peaks", str(peaks_csv), "--dump-spectrum", str(spectrum_pgm),
            ]
        )
        assert rc == 0
        lines = peaks_csv.read_text().strip().split("\n")
        assert lines[0] == "u,v,magnitude"
        coords = sorted(tuple(map(int, ln.split(",")[:2])) for ln in lines[1:])
        # The synthesized pair must be listed; the 8-bit quantization of the
        # sinusoid adds deterministic harmonics on the same column, which are
        # genuine impulses and may be listed too.
        assert {(20, 32), (44, 32)} <= set(coords)
        assert all(v == 32 for _, v in coords)
        assert read_pgm(spectrum_pgm.read_bytes()).shape == (64, 64)
        denoised = read_pgm(out.read_bytes())
        assert np.max(np.abs(denoised.pixels - 128.0)) <= 1.0

    @pytest.mark.parametrize("method", ["notch", "median"])
    def test_dump_spectrum_transforms_once(self, tmp_path, monkeypatch, method):
        rng = np.random.default_rng(4)
        img = read_pgm(write_pgm(GrayImage(128.0 + 12.0 * rng.standard_normal((32, 48)))))
        src, spectrum_pgm = tmp_path / "in.pgm", tmp_path / "spectrum.pgm"
        src.write_bytes(write_pgm(img))
        calls = []
        for module in (demoire.cli, demoire.spectral):
            monkeypatch.setattr(module, "dft2d", lambda x: calls.append(1) or dft2d(x))
        argv = ["denoise", "--in", str(src), "--out", str(tmp_path / "out.pgm"), "--method", method]
        assert main([*argv, "--dump-spectrum", str(spectrum_pgm)]) == 0
        assert len(calls) == 1
        assert spectrum_pgm.read_bytes() == fft2_spectrum_view(img)

    def test_center_shift_only_for_spectrum_dump(self, tmp_path, monkeypatch):
        # The pipeline keeps dft2d order; only the spectrum dump centres, in
        # log_magnitude.
        rng = np.random.default_rng(4)
        noisy = synthesize_moire(GrayImage(128.0 + 12.0 * rng.standard_normal((32, 48))),
                                 MoireSpec((MoireComponent(25.0, 0.25, 0.125, 0.3),)))
        images = tmp_path / "images"
        images.mkdir()
        src = images / "in.pgm"
        src.write_bytes(write_pgm(noisy))
        calls = []
        for module in (demoire.cli, demoire.spectral, demoire.transform):
            monkeypatch.setattr(module, "center_shift", lambda x: calls.append(1) or center_shift(x))
        argv = ["denoise", "--in", str(src), "--out", str(tmp_path / "out.pgm")]
        for method in ("notch", "spectral-median"):
            assert main([*argv, "--method", method]) == 0
        assert main(["bench", "--images", str(images), "--out", str(tmp_path / "b.csv")]) == 0
        assert len(calls) == 0
        assert main([*argv, "--method", "notch", "--dump-spectrum", str(tmp_path / "spectrum.pgm")]) == 0
        assert len(calls) == 1

    def test_notch_on_clean_image_round_trips(self, tmp_path, constant_image):
        out = tmp_path / "out.pgm"
        rc = main(["denoise", "--in", str(constant_image), "--out", str(out), "--method", "notch"])
        assert rc == 0
        assert out.read_bytes() == constant_image.read_bytes()

    def test_missing_input_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["denoise", "--out", str(tmp_path / "x.pgm"), "--method", "notch"])
        assert err.value.code == 2

    def test_unknown_method_usage_error(self, tmp_path, constant_image):
        with pytest.raises(SystemExit) as err:
            main(["denoise", "--in", str(constant_image), "--out", str(tmp_path / "x.pgm"), "--method", "wiener"])
        assert err.value.code == 2

    def test_dump_peaks_requires_spectral_method(self, tmp_path, constant_image):
        with pytest.raises(SystemExit) as err:
            main(
                ["denoise", "--in", str(constant_image), "--out", str(tmp_path / "x.pgm"),
                 "--method", "median", "--dump-peaks", str(tmp_path / "p.csv")]
            )
        assert err.value.code == 2

    def test_dump_peaks_usage_checked_before_reading(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                ["denoise", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "x.pgm"),
                 "--method", "median", "--dump-peaks", str(tmp_path / "p.csv")]
            )
        assert err.value.code == 2
        assert "--dump-peaks requires a spectral method (notch, spectral-median)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, library",
        [
            ("notch", lambda img: denoise_moire(img, notch_reject, RepairParams())[0]),
            ("spectral-median", lambda img: denoise_moire(img, spectral_median, RepairParams())[0]),
            ("bilateral", lambda img: bilateral_filter(img, BilateralParams())),
            ("diffusion", lambda img: anisotropic_diffusion(img, DiffusionParams())),
            ("median", lambda img: median_filter(img, MedianParams())),
            ("mode", lambda img: mode_filter(img, ModeParams())),
            ("nlm", lambda img: nlm_denoise(img, NlmParams())),
            ("tv", lambda img: tv_denoise(img, TvParams())),
        ],
    )
    def test_unset_flags_keep_library_defaults(self, tmp_path, method, library):
        rng = np.random.default_rng(11)
        texture = GrayImage(128.0 + 12.0 * rng.standard_normal((32, 32)))
        img = read_pgm(write_pgm(synthesize_moire(texture, MoireSpec((MoireComponent(25.0, 0.25, 0.125, 0.3),)))))
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(write_pgm(img))
        assert main(["denoise", "--in", str(src), "--out", str(out), "--method", method]) == 0
        assert out.read_bytes() == write_pgm(library(img))

    @pytest.mark.parametrize("method", ["median", "mode", "bilateral", "diffusion", "tv", "nlm"])
    def test_spatial_methods_run(self, tmp_path, method):
        src = tmp_path / "small.pgm"
        rng = np.random.default_rng(1)
        write_image(src, rng.random((16, 16)) * 255)
        out = tmp_path / f"{method}.pgm"
        rc = main(["denoise", "--in", str(src), "--out", str(out), "--method", method])
        assert rc == 0
        assert read_pgm(out.read_bytes()).shape == (16, 16)

    def test_spectral_flag_overrides(self, tmp_path, constant_image, moire_spec_file):
        noisy = tmp_path / "noisy.pgm"
        main(["add-noise", "--in", str(constant_image), "--out", str(noisy), "--noise-spec", str(moire_spec_file)])
        out = tmp_path / "out.pgm"
        rc = main(
            [
                "denoise", "--in", str(noisy), "--out", str(out), "--method", "spectral-median",
                "--repair-radius", "2", "--window", "7", "--guard-dc", "4", "--threshold", "8.0",
            ]
        )
        assert rc == 0
        denoised = read_pgm(out.read_bytes())
        assert np.max(np.abs(denoised.pixels - 128.0)) <= 2.0

    @pytest.mark.parametrize("method", ["notch", "spectral-median"])
    def test_non_finite_threshold_named(self, tmp_path, constant_image, moire_spec_file, capsys, method):
        # An infinite threshold would turn detection off and copy the input through.
        noisy = tmp_path / "noisy.pgm"
        main(["add-noise", "--in", str(constant_image), "--out", str(noisy), "--noise-spec", str(moire_spec_file)])
        out, peaks_csv = tmp_path / "out.pgm", tmp_path / "peaks.csv"
        rc = main(["denoise", "--in", str(noisy), "--out", str(out), "--method", method, "--threshold", "inf",
                   "--dump-peaks", str(peaks_csv)])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(" detect_threshold must be finite, got inf")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists() and not peaks_csv.exists()

    def test_minimum_size_spectral(self, tmp_path):
        src = tmp_path / "tiny.pgm"
        write_image(src, np.full((16, 16), 64.0))
        out = tmp_path / "tiny_out.pgm"
        rc = main(["denoise", "--in", str(src), "--out", str(out), "--method", "spectral-median"])
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()

    def test_below_minimum_size_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "toosmall.pgm"
        write_image(src, np.full((8, 8), 64.0))
        rc = main(["denoise", "--in", str(src), "--out", str(tmp_path / "x.pgm"), "--method", "notch"])
        assert rc == 1
        assert "16x16" in capsys.readouterr().err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "method, flag, value, field",
        [
            ("bilateral", "--sigma-s", "inf", "sigma_s"),
            ("bilateral", "--sigma-s", "nan", "sigma_s"),
            ("bilateral", "--sigma-r", "inf", "sigma_r"),
            ("mode", "--bin-width", "nan", "bin_width"),
            ("mode", "--bin-width", "inf", "bin_width"),
            ("diffusion", "--k", "nan", "k"),
            ("tv", "--tv-lambda", "nan", "lam"),
            ("tv", "--step", "inf", "step"),
            ("tv", "--epsilon", "nan", "epsilon"),
            ("nlm", "--h", "inf", "h"),
        ],
    )
    def test_non_finite_spatial_parameter_named(self, tmp_path, constant_image, capsys, method, flag, value, field):
        out = tmp_path / "x.pgm"
        rc = main(["denoise", "--in", str(constant_image), "--out", str(out), "--method", method, flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(f" {field} must be finite, got {value}")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_huge_p2_header_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "forged.pgm"
        src.write_bytes(b"P2\n1000000 1000000\n255\n0 1 2\n")
        rc = main(["denoise", "--in", str(src), "--out", str(tmp_path / "x.pgm"), "--method", "notch"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "x.pgm").exists()


HOSTILE_PGMS = {
    "bad-magic": b"P7\n2 2\n255\n0 1 2 3\n",
    "truncated-p2": b"P2\n2 2\n255\n0 1 2\n\n\n\n",
    "non-digit-pixel": b"P2\n2 1\n255\n12 x4\n",
    "over-long-token": b"P2\n1 1\n255\n" + b"7" * 400 + b"\n",
    "above-maxval": b"P2\n2 1\n100\n12 200\n",
    "forged-header": b"P2\n1000000 1000000\n255\n0 1 2\n",
}


class TestHostileInput:
    """Every command fails on bad PGM data with exit 1 and one error line."""

    @pytest.fixture(params=sorted(HOSTILE_PGMS))
    def hostile(self, request, tmp_path):
        src = tmp_path / "images" / f"{request.param}.pgm"
        src.parent.mkdir()
        src.write_bytes(HOSTILE_PGMS[request.param])
        return src

    @pytest.mark.parametrize("command", ["denoise", "psnr", "bench"])
    def test_exit_1_with_one_error_line(self, command, hostile, tmp_path, capsys):
        out = tmp_path / "out"
        argv = {
            "denoise": ["denoise", "--in", str(hostile), "--out", str(out), "--method", "median"],
            "psnr": ["psnr", "--ref", str(hostile), "--test", str(hostile)],
            "bench": ["bench", "--images", str(hostile.parent), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    # Each radius asks for more than a 64-bit address space holds, so numpy
    # refuses the allocation before it touches any memory.
    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "nlm", "--search-radius", "10000000"],
            ["--method", "bilateral", "--sigma-s", "1e7"],
        ],
        ids=["flags1", "flags2"],  # stable ids, so test reports keep naming each row the same
    )
    def test_huge_radius_exit_1_with_one_error_line(self, flags, constant_image, tmp_path, capsys):
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--in", str(constant_image), "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()


@pytest.fixture(scope="module")
def moire_bench_inputs(tmp_path_factory):
    # Two 256x256 bench images, each with a corpus pattern, as PGM files.
    root = tmp_path_factory.mktemp("moire-bench")
    images = default_bench_images(256)
    corpus = default_noise_corpus(256, 256)
    paths = []
    for k, (name, clean) in enumerate((images[0], images[2])):
        path = root / f"{name}.pgm"
        path.write_bytes(write_pgm(synthesize_moire(clean, corpus[k][1])))
        paths.append(path)
    return paths


@pytest.mark.parametrize(
    "method, reference",
    [
        pytest.param("nlm", lambda img: nlm_full_offsets(img, NlmParams()), id="nlm"),
        pytest.param("bilateral", lambda img: bilateral_full_offsets(img, BilateralParams()), id="bilateral"),
        pytest.param("tv", lambda img: tv_iterated_steps(img, TvParams()), id="tv"),
    ],
)
def test_spatial_denoise_bytes_match_reference_loops(tmp_path, moire_bench_inputs, method, reference):
    for src in moire_bench_inputs:
        out = tmp_path / f"{src.stem}-{method}.pgm"
        assert main(["denoise", "--in", str(src), "--out", str(out), "--method", method]) == 0
        assert out.read_bytes() == write_pgm(GrayImage(reference(read_pgm(src.read_bytes()))))


class TestDonorRule:
    """Only the median repair takes donors, and it counts them per bin; any radius builds at most the covering disk."""

    def test_notch_takes_no_donors(self, tmp_path, moire_bench_inputs):
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--in", str(moire_bench_inputs[0]), "--out", str(out), "--method", "notch",
                     "--repair-radius", "5"]) == 0
        assert read_pgm(out.read_bytes()).shape == (256, 256)

    def test_starving_median_names_its_bin(self, tmp_path, moire_bench_inputs, capsys):
        out = tmp_path / "out.pgm"
        assert main(["denoise", "--in", str(moire_bench_inputs[0]), "--out", str(out), "--method",
                     "spectral-median", "--repair-radius", "5"]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        expected = r"^error: only \d+ uncontaminated donor bins around spectrum bin \(\d+, \d+\); increase window above 9$"
        assert len(err) == 1 and re.match(expected, err[0])
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("radius, window", [(46, 93), (46, 9), (40, 81)])
    def test_covering_disks_ask_for_a_smaller_radius(self, tmp_path, capsys, radius, window):
        # The disks around the pair cover every bin of the 64x64 spectrum: no window can find a donor.
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        moire = MoireSpec((MoireComponent(30.0, 10 / 64, 6 / 64, 0.2),))
        write_image(src, synthesize_moire(make_filtered_field(64, 64, sigma=1.2, seed=3), moire).pixels)
        assert main(["denoise", "--in", str(src), "--out", str(out), "--method", "spectral-median",
                     "--repair-radius", str(radius), "--window", str(window)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: repair disks of radius {radius} leave only 0 uncontaminated bins in the whole spectrum, "
            "fewer than 5; reduce the repair radius"
        ]
        assert captured.out == "" and not out.exists()

    def test_median_without_peaks_needs_no_donors(self, tmp_path):
        src, out, peaks_csv = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "peaks.csv"
        write_image(src, make_filtered_field(64, 64, sigma=0.7, seed=0).pixels)
        assert main(["denoise", "--in", str(src), "--out", str(out), "--method", "spectral-median",
                     "--repair-radius", "5", "--dump-peaks", str(peaks_csv)]) == 0
        assert peaks_csv.read_text() == "u,v,magnitude\n"
        assert out.read_bytes() == write_pgm(read_pgm(src.read_bytes()))

    def test_huge_notch_radius_gives_the_covering_radius_bytes(self, tmp_path, moire_bench_inputs):
        src = str(moire_bench_inputs[0])
        cap = math.isqrt(128**2 + 128**2) + 1
        capped, huge = tmp_path / "capped.pgm", tmp_path / "huge.pgm"
        tracemalloc.start()
        try:
            code = main(["denoise", "--in", src, "--out", str(huge), "--method", "notch", "--repair-radius", "100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 64 * 2**20
        assert main(["denoise", "--in", src, "--out", str(capped), "--method", "notch", "--repair-radius", str(cap)]) == 0
        assert huge.read_bytes() == capped.read_bytes()


@pytest.fixture(scope="module")
def transform_pin_inputs(tmp_path_factory):
    # A directory of the four 256x256 bench images for `bench`, and for
    # `denoise` each of them with a corpus pattern plus one off-grid case per
    # off-grid workload shape: a texture with two sinusoids off the bin grid.
    root = tmp_path_factory.mktemp("transform-pin")
    bench = root / "bench"
    bench.mkdir()
    corpus = default_noise_corpus(256, 256)
    inputs = []
    for k, (name, clean) in enumerate(default_bench_images(256)):
        (bench / f"{name}.pgm").write_bytes(write_pgm(clean))
        inputs.append(root / f"{name}-moire.pgm")
        inputs[-1].write_bytes(write_pgm(synthesize_moire(clean, corpus[k][1])))
    for h, w in ((240, 256), (256, 320), (257, 256)):
        spec = MoireSpec(
            (
                MoireComponent(25.0, (h // 5 + 0.37) / h, (w // 7 + 0.29) / w, 0.3),
                MoireComponent(15.0, (h // 9 + 0.61) / h, -(w // 4 + 0.43) / w, 1.9),
            )
        )
        inputs.append(root / f"offgrid-{h}x{w}.pgm")
        inputs[-1].write_bytes(write_pgm(synthesize_moire(make_filtered_field(h, w, sigma=0.7, seed=h + w), spec)))
    return bench, inputs


def spectral_outputs(out_dir, bench, inputs):
    """PGM bytes and peaks of `denoise` per input and spectral method, and the `bench` CSV."""
    out_dir.mkdir()
    pgms, peaks = {}, {}
    for src in inputs:
        for method in ("notch", "spectral-median"):
            out, csv = out_dir / f"{src.stem}.{method}.pgm", out_dir / f"{src.stem}.{method}.csv"
            argv = ["denoise", "--in", str(src), "--out", str(out), "--method", method, "--dump-peaks", str(csv)]
            assert main(argv) == 0
            pgms[out.name] = out.read_bytes()
            rows = (line.split(",") for line in csv.read_text().splitlines()[1:])
            peaks[out.name] = [(int(u), int(v), float(m)) for u, v, m in rows]
    assert main(["bench", "--images", str(bench), "--out", str(out_dir / "bench.csv")]) == 0
    return pgms, peaks, (out_dir / "bench.csv").read_bytes()


def test_spectrum_dump_bytes_match_fft2_reference(tmp_path, transform_pin_inputs):
    _, inputs = transform_pin_inputs
    for src in inputs:
        out, spectrum_pgm = tmp_path / "out.pgm", tmp_path / f"{src.stem}.spectrum.pgm"
        argv = ["denoise", "--in", str(src), "--out", str(out), "--method", "notch", "--dump-spectrum", str(spectrum_pgm)]
        assert main(argv) == 0
        assert spectrum_pgm.read_bytes() == fft2_spectrum_view(read_pgm(src.read_bytes()))


def test_spectral_bytes_match_full_plane_transforms(tmp_path, transform_pin_inputs, monkeypatch):
    bench, inputs = transform_pin_inputs
    pgms, peaks, csv = spectral_outputs(tmp_path / "half-plane", bench, inputs)
    calls = []
    for module in (demoire.cli, demoire.spectral):
        monkeypatch.setattr(module, "dft2d", lambda img: calls.append(1) or fft2_dft2d(img))
        monkeypatch.setattr(module, "idft2d", lambda spec: calls.append(2) or ifft2_idft2d(spec))
    want_pgms, want_peaks, want_csv = spectral_outputs(tmp_path / "full-plane", bench, inputs)
    # One transform pair per denoise. Bench inverts nothing and transforms only
    # each clean image: a case's noisy spectrum is that spectrum plus the
    # moire's closed form, and the repaired spectra are scored against it.
    assert (calls.count(1), calls.count(2)) == (2 * len(inputs) + 4, 2 * len(inputs))
    assert csv == want_csv
    assert pgms == want_pgms
    for name, got in peaks.items():
        want = want_peaks[name]
        assert len(got) > 0 and [p[:2] for p in got] == [p[:2] for p in want]
        assert all(abs(g[2] - m[2]) <= 1e-12 * m[2] for g, m in zip(got, want))
        # The spectrum is exactly Hermitian, so a peak and its mirror report one magnitude.
        h, w = read_pgm(next(s for s in inputs if name.startswith(s.stem)).read_bytes()).shape
        mags = {(u, v): m for u, v, m in got}
        assert all(mags[(2 * (h // 2) - u) % h, (2 * (w // 2) - v) % w] == m for (u, v), m in mags.items())


def bench_csv(rows):
    """`bench` CSV text of (image, noise, method, noisy report, denoised report) rows, untimed."""
    rows = sorted(rows, key=lambda r: r[:3])
    lines = ["image,noise,method,psnr_noisy,psnr_denoised,runtime_ms"]
    lines += [f"{i},{n},{m},{a.psnr_label()},{b.psnr_label()},0.000" for i, n, m, a, b in rows]
    for name in sorted({r[2] for r in rows}):
        means = [[r[k].psnr_db for r in rows if r[2] == name] for k in (3, 4)]
        labels = ["inf" if None in m else f"{sum(m) / len(m):.2f}" for m in means]
        lines.append(f"mean,all,{name},{labels[0]},{labels[1]},0.000")
    return "\n".join(lines) + "\n"


def spatial_bench_csv(image_dir):
    """The default `bench` CSV with every spectral row scored through the image:
    PSNR of the clean image against the inverse of the repaired spectrum."""
    rows = []
    for path in sorted(image_dir.glob("*.pgm")):
        clean = read_pgm(path.read_bytes())
        for noise_id, mspec in default_noise_corpus(clean.height, clean.width):
            noisy = synthesize_moire(clean, mspec)
            spec = dft2d(noisy)
            peaks = detect_peaks(spec, RepairParams())
            for name, repair in (("notch", notch_reject), ("spectral-median", spectral_median)):
                denoised = idft2d(repair(spec, peaks, RepairParams()))
                rows.append((path.stem, noise_id, name, psnr(clean, noisy), psnr(clean, denoised)))
    return bench_csv(rows)


def per_pixel_bench_csv(image_dir, names):
    """The `bench` CSV over ``names`` (spectral methods and the median filter) as built
    from the images: each noisy case synthesized per pixel and transformed on its own,
    its PSNR taken on the image, and each spectral row scored by Parseval."""
    repairs = {"notch": notch_reject, "spectral-median": spectral_median}
    rows = []
    for path in sorted(image_dir.glob("*.pgm")):
        clean = read_pgm(path.read_bytes())
        clean_spec = dft2d(clean)
        for noise_id, mspec in default_noise_corpus(clean.height, clean.width):
            noisy = per_pixel_moire(clean, mspec)
            spec = dft2d(noisy)
            peaks = detect_peaks(spec, RepairParams())
            for name in names:
                if name in repairs:
                    err = spectral_mse(clean_spec, repairs[name](spec, peaks, RepairParams()))
                    report = QualityReport.from_mse(err)
                else:
                    report = psnr(clean, median_filter(noisy, MedianParams()))
                rows.append((path.stem, noise_id, name, psnr(clean, noisy), report))
    return bench_csv(rows)


def test_bench_spectrum_scores_match_image_psnr(tmp_path, transform_pin_inputs):
    # The four bench images and one off-grid field per off-grid workload shape.
    bench, inputs = transform_pin_inputs
    images = tmp_path / "images"
    shutil.copytree(bench, images)
    for src in inputs:
        if src.stem.startswith("offgrid-"):
            shutil.copy(src, images)
    assert len(list(images.glob("*.pgm"))) == 7
    assert main(["bench", "--images", str(images), "--out", str(tmp_path / "bench.csv")]) == 0
    assert (tmp_path / "bench.csv").read_text() == spatial_bench_csv(images)


def test_tracer_records_inverse_of_spectral_denoise(tmp_path, monkeypatch, constant_image):
    # `denoise` inverts the repaired spectrum through the name the benchmark
    # tracer wraps in demoire.cli; the one in demoire.spectral must not run.
    spans_py = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses resolve the module by name
    spec.loader.exec_module(spans)
    monkeypatch.setattr(demoire.spectral, "idft2d", lambda s: pytest.fail("spectral.idft2d called"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["denoise", "--in", str(constant_image), "--out", str(tmp_path / "out.pgm"), "--method", "notch"]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("transform.idft2d") == 1
    assert names.index("spectral.notch_reject") < names.index("transform.idft2d")


def test_bench_bytes_match_per_pixel_synthesis(tmp_path, transform_pin_inputs, monkeypatch):
    # The four bench images and one clean field per off-grid workload shape.
    # Bench adds the moire in the spectrum; the reference synthesizes every
    # noisy image per pixel and transforms it. Only a spatial row synthesizes.
    bench, _ = transform_pin_inputs
    images = tmp_path / "images"
    shutil.copytree(bench, images)
    for h, w in ((240, 256), (256, 320), (257, 256)):
        write_image(images / f"field-{h}x{w}.pgm", make_filtered_field(h, w, sigma=0.7, seed=h * w).pixels)
    synthesized = []
    monkeypatch.setattr(demoire.cli, "synthesize_moire", lambda *a: synthesized.append(1) or synthesize_moire(*a))
    for names in (["notch", "spectral-median"], ["notch", "spectral-median", "median"]):
        synthesized.clear()
        out = tmp_path / f"{len(names)}-methods.csv"
        assert main(["bench", "--images", str(images), "--out", str(out), "--methods", ",".join(names)]) == 0
        assert len(synthesized) == (7 * 6 if "median" in names else 0)
        assert out.read_text() == per_pixel_bench_csv(images, names)


class TestParser:
    def test_built_once(self):
        assert demoire.cli.build_parser() is demoire.cli.build_parser()

    def test_calls_do_not_leak_into_each_other(self, tmp_path, transform_pin_inputs):
        # A usage error that had already parsed --threshold, then a run with
        # --threshold, then one without: each writes what it writes alone.
        src = next(p for p in transform_pin_inputs[1] if p.stem == "offgrid-240x256")
        base = ["denoise", "--in", str(src), "--method", "spectral-median"]
        calls = {
            "usage": [*base, "--out", str(tmp_path / "usage.pgm"), "--threshold", "5", "--window", "x"],
            "threshold": [*base, "--out", str(tmp_path / "threshold.pgm"), "--threshold", "5"],
            "plain": [*base, "--out", str(tmp_path / "plain.pgm")],
        }

        def run_all():
            with pytest.raises(SystemExit) as err:
                main(calls["usage"])
            assert err.value.code == 2
            assert main(calls["threshold"]) == 0 and main(calls["plain"]) == 0
            return {name: (tmp_path / f"{name}.pgm").read_bytes() for name in ("threshold", "plain")}

        together = run_all()
        alone = {}
        for name in ("threshold", "plain"):
            demoire.cli.build_parser.cache_clear()
            assert main(calls[name]) == 0
            alone[name] = (tmp_path / f"{name}.pgm").read_bytes()
        assert not (tmp_path / "usage.pgm").exists()
        assert together == alone
        assert alone["threshold"] != alone["plain"]  # so a leaked --threshold would show

    @pytest.mark.parametrize("name", demoire.cli.ALL_METHODS)
    def test_each_params_field_binds_to_its_flag(self, name):
        # Every field of the method's params class is read from the denoise flag whose dest
        # is its name (or its renamed dest), and setting that flag changes that field alone.
        method = demoire.cli.METHODS[name]
        args = demoire.cli.build_parser().parse_args(["denoise", "--in", "a", "--out", "b", "--method", name])
        flags = {action.dest: action for action in args.parser._actions}
        default = method.params()
        for field in dataclasses.fields(method.params):
            action = flags[method.renamed.get(field.name, field.name)]
            old = getattr(default, field.name)
            if action.choices:
                value = next(c for c in action.choices if c != old)
            elif old is None:
                value = 2
            else:
                value = old + 2 if isinstance(old, int) else old / 2
            argv = ["denoise", "--in", "a", "--out", "b", "--method", name, action.option_strings[0], str(value)]
            got = demoire.cli._params(method, demoire.cli.build_parser().parse_args(argv))
            assert got == dataclasses.replace(default, **{field.name: value}) != default, (name, field.name)

    def test_help_is_stable(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["denoise", "--help"])
            assert err.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "--threshold" in texts[0]


class TestPsnr:
    def test_identical_prints_inf(self, constant_image, capsys):
        rc = main(["psnr", "--ref", str(constant_image), "--test", str(constant_image)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "psnr_db=inf"

    def test_peak_difference_prints_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(a, np.zeros((8, 8)))
        write_image(b, np.full((8, 8), 255.0))
        rc = main(["psnr", "--ref", str(a), "--test", str(b)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "psnr_db=0.00"

    def test_uniform_difference_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(a, np.full((8, 8), 100.0))
        write_image(b, np.full((8, 8), 101.0))
        rc = main(["psnr", "--ref", str(a), "--test", str(b)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "psnr_db=48.13"

    def test_dimension_mismatch_exit_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(a, np.zeros((8, 8)))
        write_image(b, np.zeros((8, 9)))
        rc = main(["psnr", "--ref", str(a), "--test", str(b)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_named(self, tmp_path, capsys):
        good, bad = tmp_path / "good.pgm", tmp_path / "bad.pgm"
        write_image(good, np.zeros((32, 32)))
        bad.write_bytes(good.read_bytes()[:-1014])
        rc = main(["psnr", "--ref", str(good), "--test", str(bad)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {bad}: truncated PGM payload: expected 1024 pixel bytes, found 10"
        assert "good.pgm" not in line


def donor_starved_pixels(size=32):
    """Texture under a 3x3 lattice of strong sinusoids: the moire's repair
    disks find too few uncontaminated donors among the lattice's peaks."""
    rows, cols = np.mgrid[0:size, 0:size] / size
    img = 128.0 + np.random.default_rng(0).normal(0.0, 2.0, (size, size))
    for du in range(0, 6, 2):
        for dv in range(0, 6, 2):
            img += 30.0 * np.cos(2.0 * np.pi * ((6 + du) * rows + (6 + dv) * cols))
    return np.clip(img, 0.0, 255.0)


class TestBench:
    @pytest.fixture
    def image_dir(self, tmp_path):
        # Lightly textured flats: white noise keeps the spectrum floor flat, so
        # detection sees only the injected impulses at any size, while the
        # texture gives the repair real content to preserve.
        d = tmp_path / "images"
        d.mkdir()
        rng = np.random.default_rng(77)
        write_image(d / "tex128.pgm", 128.0 + rng.normal(0.0, 2.0, (32, 32)))
        write_image(d / "tex200.pgm", 200.0 + rng.normal(0.0, 2.0, (32, 32)))
        return d

    def test_row_counts_and_structure(self, tmp_path, image_dir):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--images", str(image_dir), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "image,noise,method,psnr_noisy,psnr_denoised,runtime_ms"
        data = [ln for ln in lines[1:] if not ln.startswith("mean,")]
        summaries = [ln for ln in lines[1:] if ln.startswith("mean,")]
        assert len(data) == 2 * 6 * 2
        assert len(summaries) == 2
        assert data == sorted(data)
        for ln in data:
            fields = ln.split(",")
            assert len(fields) == 6
            assert fields[2] in ("notch", "spectral-median")
            assert fields[5] == "0.000"

    def test_rerun_byte_identical(self, tmp_path, image_dir):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(["bench", "--images", str(image_dir), "--out", str(out1)]) == 0
        assert main(["bench", "--images", str(image_dir), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_median_summary_beats_notch(self, tmp_path, image_dir):
        out = tmp_path / "bench.csv"
        main(["bench", "--images", str(image_dir), "--out", str(out)])
        means = {}
        for ln in out.read_text().strip().split("\n"):
            if ln.startswith("mean,"):
                fields = ln.split(",")
                means[fields[2]] = float(fields[4])
        assert means["spectral-median"] >= means["notch"]

    def test_empty_directory_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["bench", "--images", str(empty), "--out", str(tmp_path / "b.csv")])
        assert rc == 1
        assert "no PGM images" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("write", "problem"),
        [
            (lambda p: p.write_bytes(write_pgm(GrayImage(np.zeros((32, 32))))[:-1014]), "truncated PGM payload"),
            (lambda p: write_image(p, np.full((20, 20), 128.0)), "at least 24 rows and 22 columns, got 20x20"),
            (lambda p: write_image(p, donor_starved_pixels()), "uncontaminated donor bins"),
        ],
        ids=["truncated", "20x20", "donor-starved"],
    )
    def test_failing_image_named_once(self, tmp_path, image_dir, capsys, write, problem):
        bad = image_dir / "zz-bad.pgm"  # sorts last: the good images' rows are built first
        write(bad)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--images", str(image_dir), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {bad}: ") and problem in line
        assert line.count("zz-bad") == 1 and "tex128" not in line and "tex200" not in line
        assert not out.exists()

    def test_unknown_method_usage_error(self, tmp_path, image_dir):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--images", str(image_dir), "--out", str(tmp_path / "b.csv"), "--methods", "magic"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "methods, problem",
        [("", "lists no method"), (",", "lists no method"), ("notch,notch", "lists 'notch' more than once")],
    )
    def test_empty_or_duplicate_methods_usage_error(self, tmp_path, image_dir, capsys, methods, problem):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", "--images", str(image_dir), "--out", str(out), "--methods", methods])
        assert err.value.code == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_timing_shares_detection_and_keeps_columns(self, tmp_path, image_dir, monkeypatch):
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        argv = ["bench", "--images", str(image_dir), "--methods", "notch,spectral-median"]
        assert main([*argv, "--out", str(plain)]) == 0
        calls = []
        detect = demoire.cli.detect_peaks
        monkeypatch.setattr(demoire.cli, "detect_peaks", lambda *a: calls.append(1) or detect(*a))
        assert main([*argv, "--out", str(timed), "--timing"]) == 0
        assert len(calls) == 2 * 6  # 2 images x 6 patterns: one detection per case for both methods
        plain_lines, timed_lines = plain.read_text().splitlines(), timed.read_text().splitlines()
        assert [ln.rsplit(",", 1)[0] for ln in timed_lines] == [ln.rsplit(",", 1)[0] for ln in plain_lines]

    def test_clean_spectrum_analysed_once_per_image(self, tmp_path, monkeypatch):
        # At 64x64 every corpus pattern changes few enough bins to be re-tested
        # against the clean spectrum, so tier 1 runs once per image, not per pattern.
        d = tmp_path / "images"
        d.mkdir()
        for name, img in default_bench_images(64)[:2]:
            (d / f"{name}.pgm").write_bytes(write_pgm(img))
        calls = []
        count_bound, detect = demoire.spectral._count_bound, demoire.cli.detect_peaks
        monkeypatch.setattr(demoire.spectral, "_count_bound", lambda *a: calls.append(1) or count_bound(*a))
        monkeypatch.setattr(demoire.cli, "detect_peaks", lambda spec, params, base=None: detect(spec, params))
        full = tmp_path / "full.csv"
        assert main(["bench", "--images", str(d), "--out", str(full)]) == 0
        assert len(calls) == 2 * 6
        monkeypatch.setattr(demoire.cli, "detect_peaks", detect)
        calls.clear()
        plain = tmp_path / "plain.csv"
        assert main(["bench", "--images", str(d), "--out", str(plain)]) == 0
        assert len(calls) == 2
        assert plain.read_bytes() == full.read_bytes()

    def test_timing_flag_fills_runtime(self, tmp_path, image_dir):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--images", str(image_dir), "--out", str(out), "--methods", "notch", "--timing"])
        assert rc == 0
        data = [ln for ln in out.read_text().strip().split("\n")[1:] if not ln.startswith("mean,")]
        runtimes = [float(ln.split(",")[5]) for ln in data]
        assert all(ms > 0.0 for ms in runtimes)

    def test_spatial_method_rows(self, tmp_path, image_dir):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--images", str(image_dir), "--out", str(out), "--methods", "median"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        data = [ln for ln in lines[1:] if not ln.startswith("mean,")]
        assert len(data) == 2 * 6
        assert all(ln.split(",")[2] == "median" for ln in data)
