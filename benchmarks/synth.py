"""Median wall time of one ``synthesize_moire`` call per image shape, and of
one ``demoire psnr`` command run through ``cli.main``.

``synthesize_moire`` adds one off-grid sinusoid, as each ``bench`` case does,
to a filtered noise image (``make_filtered_field``, sigma 1.2) at 256x256 (the
bench images), 257x256 (an off-grid workload shape; 257 is prime), 1024x1024
and 2048x2048. At each shape the noisy spectrum is also timed both ways: as
``dft2d`` of the synthesized image, and in closed form by
``moire_spectrum`` from the clean image's spectrum, for that
off-grid sinusoid and for the first on-grid pattern of the default corpus.
The closed-form rows are left out for a source tree without
``moire_spectrum``. The ``psnr`` command compares two 16x16 PGM files in a
temporary directory, so its time is mostly the command line's own: building
and running the argument parser, plus two tiny reads.

    python benchmarks/synth.py                        # time ./src, print only
    python benchmarks/synth.py --src OTHER/src --label parent --json BENCH_22.json
    python benchmarks/synth.py --label change --json BENCH_22.json

The options are those of ``benchmarks/harness.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import harness

SHAPES = ((256, 256), (257, 256), (1024, 1024), (2048, 2048))
PSNR_SHAPE = (16, 16)
REPEATS = 15  # timed calls per set, after one untimed call
PSNR_REPEATS = 200


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv)
    import demoire
    import demoire.cli
    from demoire.noise import default_noise_corpus
    from demoire.synth import make_filtered_field

    spec = demoire.MoireSpec((demoire.MoireComponent(25.0, 0.0517, -0.0391, 0.3),))
    closed_form = getattr(demoire, "moire_spectrum", None)
    result = {}
    for h, w in SHAPES:
        img = make_filtered_field(h, w, sigma=1.2, seed=0)
        result[f"synthesize_moire {h}x{w}"] = harness.time_calls(lambda: demoire.synthesize_moire(img, spec), REPEATS)
        result[f"dft2d(synthesize_moire) {h}x{w}"] = harness.time_calls(
            lambda: demoire.dft2d(demoire.synthesize_moire(img, spec)), REPEATS
        )
        if closed_form is not None:
            base = demoire.dft2d(img)
            on_grid = default_noise_corpus(h, w)[0][1]
            for name, mspec in (("moire_spectrum", spec), ("moire_spectrum on-grid", on_grid)):
                result[f"{name} {h}x{w}"] = harness.time_calls(lambda: closed_form(base, mspec.components), REPEATS)

    with tempfile.TemporaryDirectory() as tmp:
        ref, test = Path(tmp) / "ref.pgm", Path(tmp) / "test.pgm"
        clean = make_filtered_field(*PSNR_SHAPE, sigma=1.2, seed=0)
        ref.write_bytes(demoire.write_pgm(clean))
        test.write_bytes(demoire.write_pgm(demoire.synthesize_moire(clean, spec)))
        argv = ["psnr", "--ref", str(ref), "--test", str(test)]

        def psnr_command():
            with contextlib.redirect_stdout(io.StringIO()):
                assert demoire.cli.main(argv) == 0

        result[f"cli psnr {PSNR_SHAPE[0]}x{PSNR_SHAPE[1]}"] = harness.time_calls(psnr_command, PSNR_REPEATS)

    for name, t in result.items():
        print(harness.describe(args.label, name, t))
    harness.save(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
