"""The three benchmark workloads: input generation, op sequence and output checks.

An op is one ``demoire`` command, run in-process through ``demoire.cli.main``.
Each workload writes its inputs from the seed during set-up, yields its ops
in groups (the run only stops between groups, so every group completes), and
checks every op's outputs. Quality is tracked per case as a metric, never as
a failure: off-grid spectral median trailing notch is a finding, not an error.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from demoire.core import write_pgm
from demoire.noise import MoireComponent, MoireSpec, default_noise_corpus, synthesize_moire
from demoire.spectral import RepairParams
from demoire.synth import default_bench_images, make_filtered_field

SIZE = 256
SPECTRAL = ("notch", "spectral-median")
# Rotation order of the spatial baselines, fastest first (documented defaults).
SPATIAL = ("median", "diffusion", "mode", "bilateral", "tv", "nlm")
# Off-grid shapes: non-powers of two, and 257 is prime.
OFFGRID_SHAPES = ((240, 256), (256, 320), (257, 256))
OFFGRID_CASES = 12  # every 6 cases cover 3 shapes x (P2, P5); a 35 s run covers all 12
OFFGRID_AMPLITUDES = ((10.0, 30.0), (20.0, 20.0), (30.0, 15.0), (40.0, 10.0))
# Texture blur of the off-grid cases. At 0.7 the high-frequency background
# keeps sinc leakage to 4-58 peaks per case; see NOTES.md for what happens
# at the bench images' 1.2.
OFFGRID_SIGMA = 0.7
OFF_GRID_MIN = 0.2  # minimum distance of an injected frequency from the bin grid, in bins
EDGE_MARGIN = 12  # bins kept clear of Nyquist so the detection annulus sees background


class CheckError(Exception):
    """An op's output failed a correctness check."""


@dataclass
class Op:
    argv: list[str]
    key: str  # input x method; running the same key again must give the same bytes
    case: str  # quality is accumulated per case
    outputs: tuple[Path, ...]
    method: str = ""
    cases: int = 1  # image x pattern cases the op denoises
    sinusoids: int = 0  # injected sinusoids per case; 0 when detection does no work


class Case(NamedTuple):
    path: Path
    clean: np.ndarray  # reference pixels, before moire and quantization
    noisy_db: float  # PSNR of the input file against ``clean``
    sinusoids: int


def parse_pgm(data: bytes) -> np.ndarray:
    """Independent P5/P2 decoder for checking outputs (8-bit only)."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CheckError("truncated PGM header")
        tokens.append(data[start:pos])
    magic, width, height, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise CheckError(f"PGM maxval {maxval}, expected 255")
    if magic == b"P5":
        raster = data[pos + 1 :]
        if len(raster) != width * height:
            raise CheckError(f"P5 raster has {len(raster)} bytes, expected {width * height}")
        return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).astype(np.float64)
    if magic == b"P2":
        return np.array(data[pos:].split(), dtype=np.float64).reshape(height, width)
    raise CheckError(f"bad PGM magic {magic!r}")


def psnr_db(reference: np.ndarray, test: np.ndarray) -> float:
    err = float(np.mean((reference - test) ** 2))
    return math.inf if err == 0.0 else 10.0 * math.log10(255.0 * 255.0 / err)


def check_peaks(text: str, shape: tuple[int, int]) -> None:
    """Dumped peaks must be Hermitian-closed and outside the DC guard."""
    lines = text.splitlines()
    if not lines or lines[0] != "u,v,magnitude":
        raise CheckError("peaks CSV lacks its header")
    h, w = shape
    cu, cv = h // 2, w // 2
    guard = RepairParams().resolved_guard(h, w)
    bins = set()
    for line in lines[1:]:
        u, v, mag = line.split(",")
        u, v = int(u), int(v)
        if not (0 <= u < h and 0 <= v < w and math.isfinite(float(mag))):
            raise CheckError(f"peak {line!r} out of range")
        if (u - cu) ** 2 + (v - cv) ** 2 <= guard * guard:
            raise CheckError(f"peak ({u}, {v}) inside the DC guard {guard}")
        bins.add((u, v))
    for u, v in bins:
        if ((2 * cu - u) % h, (2 * cv - v) % w) not in bins:
            raise CheckError(f"peak ({u}, {v}) has no Hermitian mirror")


class Workload:
    """Base: per-case quality bookkeeping and the same-bytes-again check."""

    name = ""
    group_size = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = workdir / "in"
        self.outputs = workdir / "out"
        self.cases: dict[str, Case] = {}  # by input file stem
        self.digests: dict[str, str] = {}
        # case -> {"noisy": dB, method: dB}
        self.quality: dict[str, dict[str, float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check_outputs(self, op: Op) -> None:
        """Denoise outputs: decode at the input's shape; PSNR is recorded."""
        case = self.cases[op.case]
        out = parse_pgm(op.outputs[0].read_bytes())
        if out.shape != case.clean.shape:
            raise CheckError(f"output shape {out.shape}, input {case.clean.shape}")
        if op.method in SPECTRAL:
            check_peaks(op.outputs[1].read_text(), out.shape)
        self.quality.setdefault(op.case, {"noisy": case.noisy_db})[op.method] = psnr_db(case.clean, out)

    def add_case(self, path: Path, clean: np.ndarray, data: bytes, sinusoids: int) -> None:
        path.write_bytes(data)
        self.cases[path.stem] = Case(path, clean, psnr_db(clean, parse_pgm(data)), sinusoids)

    def groups(self):
        ops = self.ops()
        while True:
            yield list(itertools.islice(ops, self.group_size))

    def check(self, op: Op, rc) -> None:
        if rc != 0:
            raise CheckError(f"exit code {rc!r}")
        self.check_outputs(op)
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in op.outputs)).hexdigest()
        if self.digests.setdefault(op.key, digest) != digest:
            raise CheckError("output bytes differ from the first run of the same input and method")

    def outputs_sha256(self) -> str:
        lines = "".join(f"{k} {d}\n" for k, d in sorted(self.digests.items()))
        return hashlib.sha256(lines.encode()).hexdigest()

    def quality_metrics(self) -> dict[str, tuple[float, int]]:
        """Mean dB figures over the distinct cases run: name -> (value, cases)."""
        gains = [
            db - q["noisy"]
            for q in self.quality.values()
            for method, db in q.items()
            if method != "noisy"
        ]
        pairs = [
            q["spectral-median"] - q["notch"]
            for q in self.quality.values()
            if "notch" in q and "spectral-median" in q
        ]
        out = {"psnr_gain_db": (sum(gains) / len(gains), len(gains))} if gains else {}
        if pairs:
            out["median_vs_notch_db"] = (sum(pairs) / len(pairs), len(pairs))
        return out


class BenchOngrid(Workload):
    """One ``demoire bench`` (notch + spectral median) over one 256² image.

    The acceptance configuration: 6 on-grid patterns x 2 methods = 12 rows
    per op, with detection shared between the two methods. The four images
    are fixed by the library; the seed only rotates where the cycle starts.
    """

    name = "bench-ongrid-256"

    def setup(self) -> None:
        self.images = []
        for name, img in default_bench_images(SIZE):
            folder = self.inputs / name
            folder.mkdir(parents=True, exist_ok=True)
            (folder / f"{name}.pgm").write_bytes(write_pgm(img))
            self.images.append(name)
        self.noise_ids = {nid for nid, _ in default_noise_corpus(SIZE, SIZE)}
        self.outputs.mkdir(parents=True, exist_ok=True)

    def ops(self):
        n = len(self.images)
        for k in itertools.count():
            name = self.images[(k + self.seed) % n]
            out = self.outputs / f"{name}.csv"
            argv = ["bench", "--images", str(self.inputs / name), "--out", str(out)]
            yield Op(argv, name, name, (out,), cases=len(self.noise_ids), sinusoids=1)

    def check_outputs(self, op: Op) -> None:
        lines = op.outputs[0].read_text().splitlines()
        if lines[0] != "image,noise,method,psnr_noisy,psnr_denoised,runtime_ms":
            raise CheckError("bench CSV header")
        rows = [line.split(",") for line in lines[1:]]
        cases, means = rows[:-2], rows[-2:]
        expected = {(op.case, nid, m) for nid in self.noise_ids for m in SPECTRAL}
        if len(cases) != 12 or {tuple(r[:3]) for r in cases} != expected:
            raise CheckError(f"bench CSV has {len(cases)} case rows, expected the 12 of {op.case}")
        if [tuple(r[:3]) for r in means] != [("mean", "all", m) for m in sorted(SPECTRAL)]:
            raise CheckError("bench CSV must end with one mean row per method")
        for _, nid, method, noisy, denoised, _ in cases:
            q = self.quality.setdefault(f"{op.case}/{nid}", {})
            q["noisy"] = float(noisy)
            q[method] = float(denoised)


class DenoiseOffgrid(Workload):
    """``demoire denoise --dump-peaks`` on seeded off-bin moire, odd shapes.

    Each case is a filtered-noise texture with two sinusoids at least 0.2 bin
    off the grid on both axes; half the cases are P2. The method alternates,
    so every case is denoised by notch and then by spectral median, and
    detection runs once per op.
    """

    name = "denoise-offgrid"
    group_size = len(SPECTRAL)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        for i in range(OFFGRID_CASES):
            h, w = OFFGRID_SHAPES[i % len(OFFGRID_SHAPES)]
            fmt = ("ascii", "binary")[i % 2]
            clean = make_filtered_field(h, w, sigma=OFFGRID_SIGMA, seed=int(rng.integers(2**31)))
            spec = MoireSpec(tuple(_offgrid_components(rng, h, w, OFFGRID_AMPLITUDES[i % 4])))
            path = self.inputs / f"case{i:02d}-{h}x{w}-{'p2' if fmt == 'ascii' else 'p5'}.pgm"
            self.add_case(path, clean.pixels, write_pgm(synthesize_moire(clean, spec), fmt), len(spec.components))

    def ops(self):
        for case in itertools.cycle(list(self.cases.values())):
            stem = case.path.stem
            for method in SPECTRAL:
                out = self.outputs / f"{stem}.{method}.pgm"
                peaks = self.outputs / f"{stem}.{method}.peaks.csv"
                argv = ["denoise", "--in", str(case.path), "--out", str(out), "--method", method]
                argv += ["--dump-peaks", str(peaks)]
                yield Op(argv, f"{stem}/{method}", stem, (out, peaks), method, sinusoids=case.sinusoids)


def _offgrid_components(rng, h: int, w: int, amplitudes) -> list[MoireComponent]:
    """Seeded off-bin sinusoids, asserted off-grid, outside the guard, below Nyquist."""
    guard = RepairParams().resolved_guard(h, w)
    comps: list[MoireComponent] = []
    placed: list[tuple[float, float]] = []
    for amp in amplitudes:
        while True:
            ku = int(rng.integers(-(h // 2 - EDGE_MARGIN), h // 2 - EDGE_MARGIN))
            kv = int(rng.integers(-(w // 2 - EDGE_MARGIN), w // 2 - EDGE_MARGIN))
            bu = ku + rng.uniform(OFF_GRID_MIN, 1.0 - OFF_GRID_MIN)
            bv = kv + rng.uniform(OFF_GRID_MIN, 1.0 - OFF_GRID_MIN)
            if math.hypot(bu, bv) < guard + 4:
                continue
            # Keep clear of earlier sinusoids and their conjugate mirrors.
            if all(math.hypot(bu - s * pu, bv - s * pv) > 16 for pu, pv in placed for s in (1, -1)):
                break
        fu, fv = bu / h, bv / w
        for b in (fu * h, fv * w):
            if abs(b - round(b)) < OFF_GRID_MIN:
                raise AssertionError(f"sinusoid bin {b:.3f} is within {OFF_GRID_MIN} of the grid")
        if math.hypot(fu * h, fv * w) <= guard:
            raise AssertionError(f"sinusoid ({fu * h:.2f}, {fv * w:.2f}) lies inside DC guard {guard}")
        if not (abs(fu) < 0.5 and abs(fv) < 0.5):
            raise AssertionError(f"sinusoid ({fu}, {fv}) is not below Nyquist")
        placed.append((bu, bv))
        comps.append(MoireComponent(amp, fu, fv, float(rng.uniform(0.0, 2.0 * math.pi))))
    return comps


class Spatial(Workload):
    """``demoire denoise --method <filter>`` over the six spatial baselines.

    The bypass case: spectral detection does no work here. Inputs are the four
    256² bench images, each with one on-grid corpus pattern picked by the
    seed. A group is one image through all six filters.
    """

    name = "spatial-256"
    group_size = len(SPATIAL)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        corpus = default_noise_corpus(SIZE, SIZE)
        for name, img in default_bench_images(SIZE):
            noise_id, spec = corpus[int(rng.integers(len(corpus)))]
            path = self.inputs / f"{name}.{noise_id}.pgm"
            self.add_case(path, img.pixels, write_pgm(synthesize_moire(img, spec)), len(spec.components))

    def ops(self):
        for case in itertools.cycle(list(self.cases.values())):
            stem = case.path.stem
            for method in SPATIAL:
                out = self.outputs / f"{stem}.{method}.pgm"
                argv = ["denoise", "--in", str(case.path), "--out", str(out), "--method", method]
                yield Op(argv, f"{stem}/{method}", stem, (out,), method)


WORKLOADS = {w.name: w for w in (BenchOngrid, DenoiseOffgrid, Spatial)}
