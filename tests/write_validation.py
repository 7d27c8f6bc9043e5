"""Write every validator's verdict, summary and rows, each run once at its
defaults, to ``VALIDATION_1.json`` at the repository root, or with ``-``
to standard output::

    PYTHONPATH=src python tests/write_validation.py [-]

The file also records its provenance: the commit, the numpy and scipy
versions and the BLAS thread count.  The count is pinned to one, so the
file regenerates byte for byte on one commit; the square spectrum's
eigenvalues move by up to 1.4e-9 relative between one and two threads.
Runtimes go to standard error, not into the file.  The acceptance tests
read their verdicts from one run of this script, which
``tests/test_validation_record.py`` compares with the file.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "VALIDATION_1.json"
BLAS_THREADS = "1"


def provenance():
    import numpy
    import scipy

    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "commit": commit, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv):
    # set before numpy is first imported; importing this module leaves the
    # thread count alone
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    from framefieldops.validation import VALIDATORS

    reports = []
    for name, validate in VALIDATORS.items():
        t0 = time.perf_counter()
        reports.append(dataclasses.asdict(validate()))
        print(f"{name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    text = json.dumps({"provenance": provenance(), "reports": reports}, indent=1) + "\n"
    if argv == ["-"]:
        sys.stdout.write(text)
    else:
        RECORD.write_text(text)


if __name__ == "__main__":
    main(sys.argv[1:])
