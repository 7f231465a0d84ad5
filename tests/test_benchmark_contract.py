"""Names the pipeline benchmark (`pipebench/`) looks up in the package.

The benchmark wraps every function in `pipebench.trace.TRACED` and records
`hamdec._kernels.NUMBA_ENABLED` in its reports; a rename in the package
would break it, so the names are checked here.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pipebench.trace import TRACED  # noqa: E402


def test_traced_names_resolve():
    for span, (module, name) in TRACED.items():
        obj = importlib.import_module(module)
        for part in name.split("."):
            obj = getattr(obj, part)
        assert callable(obj), span


def test_numba_flag_present():
    from hamdec import _kernels

    assert _kernels.NUMBA_ENABLED is False
