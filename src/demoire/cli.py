"""Command-line surface: noise injection, denoising, PSNR, and the benchmark.

Exit codes: 0 success, 1 runtime/data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .core import GrayImage, PgmError, QualityReport, psnr, read_pgm, write_pgm
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
    ModeParams,
    NlmParams,
    TvParams,
    anisotropic_diffusion,
    bilateral_filter,
    median_filter,
    mode_filter,
    nlm_denoise,
    tv_denoise,
)
from .spectral import RepairParams, detect_peaks, format_peaks_csv, notch_reject, spectral_median

# perfbench/spans.py wraps these names in this module, so they stay importable here.
from .spectral import denoise_moire  # noqa: F401
from .transform import center_shift  # noqa: F401
from .transform import dft2d, idft2d, log_magnitude, moire_spectrum, spectral_mse


class Method(NamedTuple):
    func: str  # library function, looked up in this module per call: a repair or a filter
    params: type  # its *Params class; each field is read from the denoise flag whose dest is its name
    renamed: dict[str, str] = {}  # params field -> dest where another method holds the name; never mutated

    @property
    def spectral(self) -> bool:
        return self.params is RepairParams


METHODS = {
    "notch": Method("notch_reject", RepairParams),
    "spectral-median": Method("spectral_median", RepairParams),
    "bilateral": Method("bilateral_filter", BilateralParams),
    "diffusion": Method("anisotropic_diffusion", DiffusionParams),
    "median": Method("median_filter", MedianParams),
    "mode": Method("mode_filter", ModeParams),
    "nlm": Method("nlm_denoise", NlmParams),
    "tv": Method("tv_denoise", TvParams, renamed={"lam": "tv_lambda"}),
}
ALL_METHODS = tuple(sorted(METHODS))


@functools.cache  # built once per process: parse_args leaves the parser as it was
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
    p_noise.add_argument("--out-float", help="also save the full-precision result as a text matrix")
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
    guard_help = "DC guard radius in bins (default: auto)"
    spectral.add_argument("--guard-dc", dest="guard_dc_radius", metavar="GUARD_DC", type=int, help=guard_help)
    threshold_help = "detection threshold multiple"
    spectral.add_argument("--threshold", dest="detect_threshold", metavar="THRESHOLD", type=float, help=threshold_help)
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
        help="comma-separated method list (default: %(default)s)",
    )
    p_bench.add_argument(
        "--timing",
        action="store_true",
        help="fill runtime_ms with wall-clock ms per row (spectral: the shared moire spectrum and detection, the "
        "first pattern's with the clean spectrum's analysis, plus the repair and scoring); off: reruns byte-identical",
    )
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)
    return parser


def _write_float_matrix(path: str, img: GrayImage) -> None:
    rows = (" ".join(f"{v:.17g}" for v in row) for row in img.pixels)
    Path(path).write_text("\n".join(rows) + "\n")


def _read_image(path: str | Path) -> GrayImage:
    """Decode the PGM file at path; a malformed one raises PgmError naming it."""
    try:
        return read_pgm(Path(path).read_bytes())
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from exc


def cmd_add_noise(args) -> int:
    img = _read_image(args.input)
    if args.noise_spec is not None:
        spec = parse_moire_csv(Path(args.noise_spec).read_text())
        noisy = synthesize_moire(img, spec)
    elif args.seed is None:
        args.parser.error(f"--seed is required with --{'gaussian' if args.gaussian is not None else 'salt-pepper'}")
    elif args.gaussian is not None:
        noisy = add_gaussian(img, args.gaussian, args.seed)
    else:
        noisy = add_salt_pepper(img, args.salt_pepper, args.seed)
    if args.out_float:
        _write_float_matrix(args.out_float, noisy)
    Path(args.output).write_bytes(write_pgm(noisy))
    return 0


def _params(method: Method, args=None):
    """The method's params: each field's flag set in args over the library default."""
    dests = {f.name: method.renamed.get(f.name, f.name) for f in dataclasses.fields(method.params)}
    return method.params(**{f: getattr(args, d) for f, d in dests.items() if getattr(args, d, None) is not None})


def cmd_denoise(args) -> int:
    method = METHODS[args.method]
    if args.dump_peaks and not method.spectral:
        spectral = ", ".join(m for m in ALL_METHODS if METHODS[m].spectral)
        args.parser.error(f"--dump-peaks requires a spectral method ({spectral})")
    img = _read_image(args.input)
    func, params = globals()[method.func], _params(method, args)
    spec = dft2d(img) if method.spectral or args.dump_spectrum else None
    if method.spectral:
        peaks = detect_peaks(spec, params)
        denoised = idft2d(func(spec, peaks, params))
        if args.dump_peaks:
            Path(args.dump_peaks).write_text(format_peaks_csv(peaks))
    else:
        denoised = func(img, params)
    if args.dump_spectrum:
        Path(args.dump_spectrum).write_bytes(write_pgm(log_magnitude(spec)))
    Path(args.output).write_bytes(write_pgm(denoised))
    return 0


def cmd_psnr(args) -> int:
    ref = _read_image(args.ref)
    test = _read_image(args.test)
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
        raise ValueError(f"no PGM images found in {image_dir}")

    spectral = any(METHODS[m].spectral for m in names)
    spatial = not all(METHODS[m].spectral for m in names)
    rows = []
    for path in files:
        clean = _read_image(path)
        try:  # a failing case names its image, once
            clean_spec = dft2d(clean)
            params = RepairParams()
            for noise_id, mspec in default_noise_corpus(clean.height, clean.width):
                started = time.perf_counter()
                spec = moire_spectrum(clean_spec, mspec.components)  # the clean spectrum plus the moire's
                peaks = detect_peaks(spec, params, clean_spec) if spectral else None  # tests what the moire changed
                analysis_s = time.perf_counter() - started
                base = QualityReport.from_mse(spectral_mse(clean_spec, spec))
                noisy = synthesize_moire(clean, mspec) if spatial else None  # a spatial row filters the image
                for name in names:
                    method = METHODS[name]
                    # A spectral row's clock includes the analysis its method shares.
                    started = time.perf_counter() - (analysis_s if method.spectral else 0.0)
                    func = globals()[method.func]
                    if method.spectral:
                        # Scored by Parseval from the repaired spectrum: bench writes no image to invert.
                        err = spectral_mse(clean_spec, func(spec, peaks, params))
                    else:
                        denoised = func(noisy, _params(method))
                    runtime_ms = (time.perf_counter() - started) * 1000.0 if args.timing else 0.0
                    report = QualityReport.from_mse(err) if method.spectral else psnr(clean, denoised)
                    rows.append((path.stem, noise_id, name, base, report, runtime_ms))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
