"""Command-line surface: noise injection, denoising, PSNR, and the benchmark.

Exit codes: 0 success, 1 runtime/data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .core import GrayImage, psnr, read_pgm, write_pgm
from .noise import (
    add_gaussian,
    add_salt_pepper,
    default_noise_corpus,
    parse_moire_csv,
    synthesize_moire,
)
from .spatial import (
    BilateralParams,
    DiffusionParams,
    MedianParams,
    NlmParams,
    TvParams,
    anisotropic_diffusion,
    bilateral_filter,
    median_filter,
    mode_filter,
    nlm_denoise,
    tv_denoise,
)
from .spectral import RepairParams, analyze, format_peaks_csv, repair

# perfbench/spans.py wraps these names in this module, so they stay importable here.
from .spectral import denoise_moire, detect_peaks, notch_reject, spectral_median  # noqa: F401
from .transform import center_shift, dft2d, idft2d, log_magnitude  # noqa: F401


def _flags(*same: str, **renamed: str) -> dict[str, str]:
    return {**{name: name for name in same}, **renamed}


class Method(NamedTuple):
    func: str  # spectral repair, or spatial filter looked up in this module per call
    params: type  # params class; dict passes the fields to func as keywords
    flags: dict[str, str]  # argparse dest -> params field; an unset flag keeps the default

    @property
    def spectral(self) -> bool:
        return self.params is RepairParams


_SPECTRAL_FLAGS = _flags("repair_radius", "window", guard_dc="guard_dc_radius", threshold="detect_threshold")
METHODS = {
    "notch": Method("notch", RepairParams, _SPECTRAL_FLAGS),
    "spectral-median": Method("median", RepairParams, _SPECTRAL_FLAGS),
    "bilateral": Method("bilateral_filter", BilateralParams, _flags("sigma_s", "sigma_r")),
    "diffusion": Method("anisotropic_diffusion", DiffusionParams, _flags("k", "lam", "iterations", "conductance")),
    "median": Method("median_filter", MedianParams, _flags("window")),
    "mode": Method("mode_filter", dict, _flags("window", "mode_kind", "bin_width")),
    "nlm": Method("nlm_denoise", NlmParams, _flags("h", "patch_radius", "search_radius")),
    "tv": Method("tv_denoise", TvParams, _flags("step", "iterations", "epsilon", tv_lambda="lam")),
}
ALL_METHODS = tuple(sorted(METHODS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demoire", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_noise = sub.add_parser("add-noise", help="contaminate a PGM image")
    p_noise.add_argument("--in", dest="input", required=True, help="input PGM file")
    p_noise.add_argument("--out", dest="output", required=True, help="output PGM file")
    src = p_noise.add_mutually_exclusive_group(required=True)
    src.add_argument("--noise-spec", help="moire spec CSV (amplitude,freq_u,freq_v,phase lines)")
    src.add_argument("--gaussian", type=float, help="additive Gaussian noise std")
    src.add_argument("--salt-pepper", type=float, help="salt-and-pepper corruption density")
    p_noise.add_argument("--seed", type=int, help="RNG seed (required for random noise)")
    p_noise.add_argument(
        "--out-float", help="also save the full-precision result as a text matrix"
    )
    p_noise.set_defaults(func=cmd_add_noise, parser=p_noise)

    p_den = sub.add_parser("denoise", help="denoise a PGM image")
    p_den.add_argument("--in", dest="input", required=True)
    p_den.add_argument("--out", dest="output", required=True)
    p_den.add_argument("--method", required=True, choices=ALL_METHODS)
    p_den.add_argument("--dump-peaks", help="write detected peaks as CSV (spectral methods)")
    p_den.add_argument("--dump-spectrum", help="write the input's log-magnitude spectrum as PGM")
    spectral = p_den.add_argument_group("spectral method parameters")
    spectral.add_argument("--repair-radius", type=int)
    window_help = f"median window side (default {RepairParams.window} spectral, {MedianParams.window} spatial)"
    spectral.add_argument("--window", type=int, help=window_help)
    spectral.add_argument("--guard-dc", type=int, help="DC guard radius in bins (default: auto)")
    spectral.add_argument("--threshold", type=float, help="detection threshold multiple")
    spatial = p_den.add_argument_group("spatial method parameters")
    spatial.add_argument("--mode-kind", choices=("global", "local"))
    spatial.add_argument("--bin-width", type=float)
    spatial.add_argument("--sigma-s", type=float)
    spatial.add_argument("--sigma-r", type=float)
    spatial.add_argument("--k", type=float, help="diffusion edge threshold")
    spatial.add_argument("--lam", type=float, help="diffusion step size")
    iterations_help = f"default {DiffusionParams.iterations} diffusion, {TvParams.iterations} tv"
    spatial.add_argument("--iterations", type=int, help=iterations_help)
    spatial.add_argument("--conductance", choices=("exponential", "rational"))
    spatial.add_argument("--tv-lambda", type=float, help="TV fidelity weight")
    spatial.add_argument("--step", type=float, help="TV descent step")
    spatial.add_argument("--epsilon", type=float, help="TV gradient regularizer")
    spatial.add_argument("--h", type=float, help="NLM weight decay")
    spatial.add_argument("--patch-radius", type=int)
    spatial.add_argument("--search-radius", type=int)
    p_den.set_defaults(func=cmd_denoise, parser=p_den)

    p_psnr = sub.add_parser("psnr", help="PSNR between two PGM files")
    p_psnr.add_argument("--ref", required=True)
    p_psnr.add_argument("--test", required=True)
    p_psnr.set_defaults(func=cmd_psnr, parser=p_psnr)

    p_bench = sub.add_parser("bench", help="benchmark methods over an image directory")
    p_bench.add_argument("--images", required=True, help="directory of PGM images")
    p_bench.add_argument("--out", dest="output", required=True, help="output CSV")
    p_bench.add_argument(
        "--methods",
        default="notch,spectral-median",
        help="comma-separated method list (default: notch,spectral-median)",
    )
    p_bench.add_argument(
        "--timing",
        action="store_true",
        help="fill runtime_ms with wall-clock ms per row (spectral: the shared transform and detection "
        "plus that method's repair); off by default so reruns are byte-identical",
    )
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)
    return parser


def _write_float_matrix(path: str, img: GrayImage) -> None:
    rows = (" ".join(f"{v:.17g}" for v in row) for row in img.pixels)
    Path(path).write_text("\n".join(rows) + "\n")


def cmd_add_noise(args) -> int:
    img = read_pgm(Path(args.input).read_bytes())
    if args.noise_spec is not None:
        spec = parse_moire_csv(Path(args.noise_spec).read_text())
        noisy = synthesize_moire(img, spec)
    elif args.gaussian is not None:
        if args.seed is None:
            args.parser.error("--seed is required with --gaussian")
        noisy = add_gaussian(img, args.gaussian, args.seed)
    else:
        if args.seed is None:
            args.parser.error("--seed is required with --salt-pepper")
        noisy = add_salt_pepper(img, args.salt_pepper, args.seed)
    if args.out_float:
        _write_float_matrix(args.out_float, noisy)
    Path(args.output).write_bytes(write_pgm(noisy))
    return 0


def _params(method: Method, args=None):
    """The method's params: each flag set in args over the library default."""
    given = {f: getattr(args, d) for d, f in method.flags.items() if getattr(args, d, None) is not None}
    return method.params(**given)


def _filter(img: GrayImage, method: Method, params) -> GrayImage:
    func = globals()[method.func]
    return func(img, **params) if method.params is dict else func(img, params)


def cmd_denoise(args) -> int:
    method = METHODS[args.method]
    if args.dump_peaks and not method.spectral:
        spectral = ", ".join(m for m in ALL_METHODS if METHODS[m].spectral)
        args.parser.error(f"--dump-peaks requires a spectral method ({spectral})")
    img = read_pgm(Path(args.input).read_bytes())
    spec = None
    if method.spectral:
        params = _params(method, args)
        spec, peaks = analyze(img, params)
        denoised = repair(spec, peaks, method.func, params)
        if args.dump_peaks:
            Path(args.dump_peaks).write_text(format_peaks_csv(peaks))
    else:
        denoised = _filter(img, method, _params(method, args))
    if args.dump_spectrum:
        if spec is None:
            spec = dft2d(img)
        Path(args.dump_spectrum).write_bytes(write_pgm(log_magnitude(center_shift(spec))))
    Path(args.output).write_bytes(write_pgm(denoised))
    return 0


def cmd_psnr(args) -> int:
    ref = read_pgm(Path(args.ref).read_bytes())
    test = read_pgm(Path(args.test).read_bytes())
    report = psnr(ref, test)
    print(f"psnr_db={report.psnr_label()}")
    return 0


def _mean_label(values: list[float | None]) -> str:
    if any(v is None for v in values):
        return "inf"
    return f"{sum(values) / len(values):.2f}"


def cmd_bench(args) -> int:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names:
        args.parser.error("--methods lists no method")
    for m in names:
        if m not in METHODS:
            args.parser.error(f"unknown method {m!r}: valid methods are {', '.join(ALL_METHODS)}")
        if names.count(m) > 1:
            args.parser.error(f"--methods lists {m!r} more than once")
    image_dir = Path(args.images)
    files = sorted(image_dir.glob("*.pgm"))
    if not files:
        print(f"error: no PGM images found in {image_dir}", file=sys.stderr)
        return 1

    rows = []
    for path in files:
        clean = read_pgm(path.read_bytes())
        params = RepairParams()
        for noise_id, mspec in default_noise_corpus(clean.height, clean.width):
            noisy = synthesize_moire(clean, mspec)
            base = psnr(clean, noisy)
            started = time.perf_counter()
            if any(METHODS[m].spectral for m in names):
                spec, peaks = analyze(noisy, params)
            analysis_s = time.perf_counter() - started
            for name in names:
                method = METHODS[name]
                # A spectral row's clock includes the analysis its method shares.
                started = time.perf_counter() - (analysis_s if method.spectral else 0.0)
                if method.spectral:
                    denoised = repair(spec, peaks, method.func, params)
                else:
                    denoised = _filter(noisy, method, _params(method))
                runtime_ms = (time.perf_counter() - started) * 1000.0 if args.timing else 0.0
                rows.append((path.stem, noise_id, name, base, psnr(clean, denoised), runtime_ms))

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = ["image,noise,method,psnr_noisy,psnr_denoised,runtime_ms"]
    for name, noise_id, method, p_noisy, p_den, ms in rows:
        lines.append(f"{name},{noise_id},{method},{p_noisy.psnr_label()},{p_den.psnr_label()},{ms:.3f}")
    for method in sorted({r[2] for r in rows}):
        match = [r for r in rows if r[2] == method]
        mean_ms = sum(r[5] for r in match) / len(match)
        lines.append(
            f"mean,all,{method},{_mean_label([r[3].psnr_db for r in match])},"
            f"{_mean_label([r[4].psnr_db for r in match])},{mean_ms:.3f}"
        )
    Path(args.output).write_text("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
