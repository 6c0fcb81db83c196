"""What loading the package costs: heavy modules stay out until a call needs them."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after_import() -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``import rfim, rfim.cli`` from ``SRC``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import rfim, rfim.cli\n"
        "print(json.dumps([rfim.__file__, list(sys.modules)]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    where, loaded = json.loads(out.stdout)
    assert Path(where).resolve().is_relative_to(SRC)
    return loaded


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # The two modules are a large share of what importing rfim would cost;
    # the three functions that use them import them when called.
    loaded = [m for m in _modules_after_import() if m.startswith("scipy.")]
    assert not [m for m in loaded if m.split(".")[1] in ("stats", "optimize")]


def test_import_leaves_jsonschema_and_sparse_linalg_unloaded():
    # Only run_experiment validates a schema and only glauber_gap calls eigsh;
    # each module took about 0.1 s of the import.
    loaded = _modules_after_import()
    assert "jsonschema" not in loaded
    assert "scipy.sparse.linalg" not in loaded
