"""What loading the package costs: heavy scipy modules stay out until a call needs them."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # The two modules are a large share of what importing rfim would cost;
    # the three functions that use them import them when called.
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import rfim, rfim.cli\n"
        "print(json.dumps([rfim.__file__, [m for m in sys.modules if m.startswith('scipy.')]]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    where, loaded = json.loads(out.stdout)
    assert Path(where).resolve().is_relative_to(SRC)
    assert not [m for m in loaded if m.split(".")[1] in ("stats", "optimize")]
