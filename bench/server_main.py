"""``repro serve`` for the traced serve-http pass.

Runs the program's own command line (``repro.cli.main``) with the quiet
wrappers of :data:`layers.QUIET_WRAPPERS` installed, so store-backed deltas
keep working while the server records its trace::

    python3 bench/server_main.py serve --port 0 --store DIR --trace PATH
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import main  # noqa: E402

from layers import Wrappers  # noqa: E402

if __name__ == "__main__":
    with Wrappers(layers=False):
        sys.exit(main(sys.argv[1:]))
