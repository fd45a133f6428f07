"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with `-v -s` to see
them all). Criterion 5 contains a deliberate, documented red: with the
default step size and gradient regularizer, fixed-step descent on the TV
objective is provably not monotone per-step near flat gradients, so that
sub-check fails; see the test body for the analysis.
"""

import math
import time

import numpy as np
import pytest

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
    detect_peaks,
    dft2d,
    edge_conductance,
    idft2d,
    median_filter,
    mode_filter,
    nlm_denoise,
    notch_reject,
    synthesize_moire,
    tv_energy,
    write_pgm,
)
from demoire.cli import main
from demoire.spatial import _forward_diff
from demoire.synth import default_bench_images

from test_spatial import gaussian_convolution_oracle, nlm_oracle, sort_median_oracle
from test_transform import dft2d_oracle, mirror


def report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    img_dir = root / "images"
    img_dir.mkdir()
    for name, img in default_bench_images(256):
        (img_dir / f"{name}.pgm").write_bytes(write_pgm(img))
    out = root / "bench.csv"
    started = time.monotonic()
    rc = main(["bench", "--images", str(img_dir), "--out", str(out)])
    elapsed = time.monotonic() - started
    assert rc == 0
    rows = []
    for line in out.read_text().strip().split("\n")[1:]:
        if line.startswith("mean,"):
            continue
        image, noise, method, p_noisy, p_den, _ = line.split(",")
        to_f = lambda s: math.inf if s == "inf" else float(s)
        rows.append((image, noise, method, to_f(p_noisy), to_f(p_den)))
    return rows, elapsed


def test_criterion_1_median_beats_notch_direction(bench_run):
    rows, elapsed = bench_run
    by_case = {}
    for image, noise, method, p_noisy, p_den in rows:
        by_case.setdefault((image, noise), {})[method] = p_den
    assert len(by_case) == 24  # 4 images x 6 noise specs
    wins = sum(1 for case in by_case.values() if case["spectral-median"] >= case["notch"])
    improvements = [
        case["spectral-median"] - case["notch"]
        for case in by_case.values()
        if math.isfinite(case["spectral-median"]) and math.isfinite(case["notch"])
    ]
    mean_gain = sum(improvements) / len(improvements)
    ok = wins >= 0.9 * len(by_case) and mean_gain > 0.0 and elapsed < 60.0
    report(
        "1 direction-of-comparison",
        ok,
        f"wins {wins}/{len(by_case)}, mean improvement {mean_gain:+.2f} dB, bench {elapsed:.1f}s",
    )


def test_criterion_2_denoising_efficacy(bench_run):
    rows, _ = bench_run
    median_rows = [r for r in rows if r[2] == "spectral-median"]
    assert len(median_rows) == 24
    failures = [(r[0], r[1]) for r in median_rows if not r[4] > r[3]]
    report(
        "2 denoising-efficacy",
        not failures,
        f"{len(median_rows) - len(failures)}/{len(median_rows)} cases improved over noisy"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_3_transform_correctness():
    rng = np.random.default_rng(301)
    img = GrayImage(rng.random((64, 64)) * 255)
    round_trip = float(np.max(np.abs(idft2d(dft2d(img)).pixels - img.pixels)))

    parseval_worst = 0.0
    for h, w in [(16, 16), (33, 31), (64, 64), (128, 128)]:
        x = GrayImage(rng.random((h, w)) * 255)
        lhs = float(np.sum(x.pixels**2))
        rhs = float(np.sum(np.abs(dft2d(x).data) ** 2)) / (h * w)
        parseval_worst = max(parseval_worst, abs(lhs - rhs) / lhs)

    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    started = time.monotonic()
    hermitian_worst = 0.0
    for case in range(200):
        if case % 3 == 0:
            h, w = int(rng.choice(primes)), int(rng.choice(primes))
        else:
            h, w = (int(v) for v in rng.integers(1, 33, 2))
        s = dft2d(GrayImage(rng.random((h, w)) * 255)).data
        err = float(np.max(np.abs(s - np.conj(mirror(s)))))
        hermitian_worst = max(hermitian_worst, err / max(float(np.max(np.abs(s))), 1.0))
    hermitian_secs = time.monotonic() - started

    ok = round_trip < 1e-9 and parseval_worst <= 1e-9 and hermitian_worst <= 1e-9 and hermitian_secs < 5.0
    report(
        "3 transform-correctness",
        ok,
        f"round-trip {round_trip:.2e}, parseval {parseval_worst:.2e}, "
        f"hermitian {hermitian_worst:.2e} over 200 cases in {hermitian_secs:.2f}s",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(401)
    median_exact = True
    for _ in range(50):
        img = GrayImage(rng.random((16, 16)) * 255)
        got = median_filter(img, MedianParams(3)).pixels
        if not np.array_equal(got, sort_median_oracle(img.pixels, 3)):
            median_exact = False
            break

    dft_worst = 0.0
    for h, w in [(3, 5), (8, 8), (7, 11), (12, 12)]:
        img = GrayImage(rng.random((h, w)) * 255)
        err = float(np.max(np.abs(dft2d(img).data - dft2d_oracle(img.pixels))))
        dft_worst = max(dft_worst, err)

    ok = median_exact and dft_worst <= 1e-9
    report(
        "4 oracle-equivalence",
        ok,
        f"median exact on 50 images: {median_exact}; dft max |err| {dft_worst:.2e} up to 12x12",
    )


def test_criterion_5_filter_property_suite():
    failures = []
    rng = np.random.default_rng(501)

    const = GrayImage(np.full((12, 12), 55.0))
    if not np.array_equal(median_filter(const, MedianParams(3)).pixels, const.pixels):
        failures.append("median constant")
    for kind in ("global", "local"):
        if not np.array_equal(mode_filter(const, 3, kind, 8.0).pixels, const.pixels):
            failures.append(f"mode[{kind}] constant")
    if not np.allclose(bilateral_filter(const, BilateralParams()).pixels, 55.0, atol=1e-12):
        failures.append("bilateral constant")
    if not np.array_equal(anisotropic_diffusion(const, DiffusionParams()).pixels, const.pixels):
        failures.append("diffusion constant")
    if not np.array_equal(tv_denoise_ref(const, TvParams()).pixels, const.pixels):
        failures.append("tv constant")
    if not np.allclose(nlm_denoise(const, NlmParams(10.0, 1, 2)).pixels, 55.0, atol=1e-12):
        failures.append("nlm constant")

    for kind in ("exponential", "rational"):
        if float(edge_conductance(0.0, 15.0, kind)) != 1.0:
            failures.append(f"conductance[{kind}](0) != 1")

    # TV objective monotonicity over 100 steps at the documented defaults.
    # KNOWN RED: the objective's gradient has local Lipschitz constant about
    # 8/epsilon near flat gradients (~8e6 at the default epsilon=1e-6), so
    # the default step 0.1 exceeds the descent bound by seven orders of
    # magnitude; once any neighboring pixels come within ~2*step of each
    # other the iteration overshoots and the objective rises. Measured: a
    # majority of random starts violate monotonicity within 100 steps for
    # every lambda in (0, 20); no parameter choice left open can fix it.
    p = TvParams()
    tv_violations = []
    for seed in range(10):
        noisy = GrayImage(np.random.default_rng(5100 + seed).random((32, 32)) * 255)
        u = noisy
        prev = tv_energy(u, noisy, p)
        for step_idx in range(100):
            u = tv_step(u, noisy, p)
            energy = tv_energy(u, noisy, p)
            if energy > prev:
                tv_violations.append((seed, step_idx, energy - prev))
                break
            prev = energy
    if tv_violations:
        failures.append(
            f"tv monotonicity violated on {len(tv_violations)}/10 images "
            f"(first: seed {tv_violations[0][0]}, step {tv_violations[0][1]}, "
            f"rise {tv_violations[0][2]:.3g})"
        )

    noisy = GrayImage(rng.random((32, 32)) * 255)
    diffused = anisotropic_diffusion(noisy, DiffusionParams(15.0, 0.25, 20, "exponential"))
    if abs(diffused.pixels.mean() - noisy.pixels.mean()) > 1e-9:
        failures.append("diffusion mean drift")

    small = GrayImage(rng.random((6, 6)) * 255)
    _, weights = nlm_oracle(small.pixels, NlmParams(20.0, 1, 2))
    for wlist in weights:
        if abs(math.fsum(wlist) - 1.0) > 1e-12 or not all(0.0 <= w <= 1.0 for w in wlist):
            failures.append("nlm weight normalization")
            break

    img = GrayImage(rng.random((12, 12)) * 255)
    p_bi = BilateralParams(sigma_s=1.5, sigma_r=1e6)
    limit_err = float(
        np.max(
            np.abs(
                bilateral_filter(img, p_bi).pixels
                - gaussian_convolution_oracle(img.pixels, 1.5, p_bi.radius)
            )
        )
    )
    if limit_err > 1e-6:
        failures.append(f"bilateral gaussian limit err {limit_err:.2e}")

    report("5 filter-property-suite", not failures, "; ".join(failures) or "all sub-checks hold")


def tv_step(u: GrayImage, noisy: GrayImage, p: TvParams) -> GrayImage:
    arr = u.pixels
    gx, gy = _forward_diff(arr)
    mag = np.sqrt(gx * gx + gy * gy + p.epsilon * p.epsilon)
    px, py = gx / mag, gy / mag
    div = px + py
    div[:, 1:] -= px[:, :-1]
    div[1:, :] -= py[:-1, :]
    return GrayImage(arr - p.step * (-div + p.lam * (arr - noisy.pixels)))


def tv_denoise_ref(img: GrayImage, p: TvParams) -> GrayImage:
    from demoire import tv_denoise

    return tv_denoise(img, p)


def test_criterion_6_ground_truth_spectral_checks():
    base = GrayImage(np.full((64, 64), 128.0))
    noisy = synthesize_moire(base, MoireSpec((MoireComponent(20.0, 12 / 64, 0.0, 0.0),)))
    peaks = detect_peaks(dft2d(noisy), RepairParams())
    found = sorted((p.u, p.v) for p in peaks)
    exact_pair = found == [(20, 32), (44, 32)]

    x = np.arange(64)[:, None]
    pure = GrayImage(np.broadcast_to(np.sin(2 * np.pi * 12 * x / 64), (64, 64)).copy())
    spec = dft2d(pure)
    pure_peaks = detect_peaks(spec, RepairParams())
    residual = idft2d(notch_reject(spec, pure_peaks, RepairParams()))
    notch_resid = float(np.max(np.abs(residual.pixels)))

    ok = exact_pair and notch_resid < 1e-6
    report(
        "6 ground-truth-spectral",
        ok,
        f"detected pair {found}, notch residual {notch_resid:.2e}",
    )


def test_criterion_7_cli_contract(tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    flat.write_bytes(write_pgm(GrayImage(np.full((32, 32), 128.0))))

    ok_exit = main(["psnr", "--ref", str(flat), "--test", str(flat)]) == 0
    assert capsys.readouterr().out.strip() == "psnr_db=inf"

    other = tmp_path / "other.pgm"
    other.write_bytes(write_pgm(GrayImage(np.full((32, 33), 128.0))))
    data_exit = main(["psnr", "--ref", str(flat), "--test", str(other)]) == 1
    capsys.readouterr()

    try:
        main(["denoise", "--in", str(flat), "--out", str(tmp_path / "x.pgm"), "--method", "nope"])
        usage_exit = False
    except SystemExit as err:
        usage_exit = err.code == 2
    capsys.readouterr()

    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    a.write_bytes(write_pgm(GrayImage(np.full((8, 8), 100.0))))
    b.write_bytes(write_pgm(GrayImage(np.full((8, 8), 101.0))))
    main(["psnr", "--ref", str(a), "--test", str(b)])
    psnr_line = capsys.readouterr().out.strip() == "psnr_db=48.13"

    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    (img_dir / "flat.pgm").write_bytes(flat.read_bytes())
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    rerun_ok = (
        main(["bench", "--images", str(img_dir), "--out", str(c1)]) == 0
        and main(["bench", "--images", str(img_dir), "--out", str(c2)]) == 0
        and c1.read_bytes() == c2.read_bytes()
    )

    ok = ok_exit and data_exit and usage_exit and psnr_line and rerun_ok
    report(
        "7 cli-contract",
        ok,
        f"exit codes ok={ok_exit},{data_exit},{usage_exit}; psnr line {psnr_line}; "
        f"bench rerun identical {rerun_ok}",
    )
