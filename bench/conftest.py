"""Import paths for the benchmark's own tests: the package from ``src/`` and
the benchmark modules from this directory."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parent / "src", _HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
