import numpy as np
import pytest

import demoire.cli
import demoire.spectral
from demoire import (
    BilateralParams,
    DiffusionParams,
    GrayImage,
    MedianParams,
    MoireComponent,
    MoireSpec,
    NlmParams,
    RepairParams,
    TvParams,
    anisotropic_diffusion,
    bilateral_filter,
    center_shift,
    denoise_moire,
    dft2d,
    median_filter,
    mode_filter,
    log_magnitude,
    nlm_denoise,
    read_pgm,
    synthesize_moire,
    tv_denoise,
    write_pgm,
)
from demoire.cli import main


def write_image(path, pixels):
    path.write_bytes(write_pgm(GrayImage(pixels)))


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
        assert spectrum_pgm.read_bytes() == write_pgm(log_magnitude(center_shift(dft2d(img))))

    def test_center_shift_only_for_spectrum_dump(self, tmp_path, monkeypatch):
        # The pipeline keeps dft2d order; only the spectrum dump centres.
        rng = np.random.default_rng(4)
        noisy = synthesize_moire(GrayImage(128.0 + 12.0 * rng.standard_normal((32, 48))),
                                 MoireSpec((MoireComponent(25.0, 0.25, 0.125, 0.3),)))
        images = tmp_path / "images"
        images.mkdir()
        src = images / "in.pgm"
        src.write_bytes(write_pgm(noisy))
        calls = []
        for module in (demoire.cli, demoire.spectral):
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
            ("notch", lambda img: denoise_moire(img, "notch", RepairParams())[0]),
            ("spectral-median", lambda img: denoise_moire(img, "median", RepairParams())[0]),
            ("bilateral", lambda img: bilateral_filter(img, BilateralParams())),
            ("diffusion", lambda img: anisotropic_diffusion(img, DiffusionParams())),
            ("median", lambda img: median_filter(img, MedianParams())),
            ("mode", lambda img: mode_filter(img)),
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
        detect = demoire.spectral.detect_peaks
        monkeypatch.setattr(demoire.spectral, "detect_peaks", lambda *a: calls.append(1) or detect(*a))
        assert main([*argv, "--out", str(timed), "--timing"]) == 0
        assert len(calls) == 2 * 6  # 2 images x 6 patterns: one detection per case for both methods
        plain_lines, timed_lines = plain.read_text().splitlines(), timed.read_text().splitlines()
        assert [ln.rsplit(",", 1)[0] for ln in timed_lines] == [ln.rsplit(",", 1)[0] for ln in plain_lines]

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
