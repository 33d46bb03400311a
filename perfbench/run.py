"""Run one enboost benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Prints a metric table and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without a result when the
checkout has no enboost sources to measure.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    src = ROOT / "src"
    if not (src / "enboost" / "cli.py").is_file():
        print(f"error: no enboost sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads.  The pipeline's matrices are
    # small (batch 32 or 1); on a 2-core machine a second BLAS thread doubled
    # CPU time, saved no wall time and made build times vary twice as much.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import enboost
    if Path(enboost.__file__).resolve().parent != (src / "enboost").resolve():
        print(f"error: imported enboost from {enboost.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
