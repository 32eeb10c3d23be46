"""Locations inside the checkout, and loading the library from its source tree.

The benchmark always measures the ``sphermoments`` found under ``src/`` of the
checkout it sits in, never an installed copy.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "results" / "runs"


def use_checkout_library():
    """Put ``src/`` first on sys.path and check that the import resolves there.

    Exits with a message (status 1) when the checkout holds no library.
    """
    package = SRC / "sphermoments"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import sphermoments

    if Path(sphermoments.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported sphermoments from {sphermoments.__file__}")
    return sphermoments
