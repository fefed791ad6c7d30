"""Run one holoqsim benchmark workload from the root of a checkout.

    python3 bench/run.py --workload dense-mixed --seed 1 --seconds 20 --trace 0

BLAS is pinned to one thread before numpy loads, and holoqsim is imported
from this checkout's `src/`, never from an installed copy.  Exits 2 when
the checkout holds no holoqsim sources.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "holoqsim" / "cli.py").is_file():
        print(f"bench: no holoqsim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import holoqsim

    if Path(holoqsim.__file__).resolve().parent != SRC / "holoqsim":
        print(f"bench: imported holoqsim from {holoqsim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import harness

    sys.exit(harness.main())
