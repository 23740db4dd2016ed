"""The package is stdlib-only: importing it loads no third-party module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_LOADED = """
import sys
before = set(sys.modules)
import teamlogic, teamlogic.cli, teamlogic.generators
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", _LOADED], env=env, capture_output=True, text=True, check=True
    )
    loaded = result.stdout.split()
    assert "teamlogic" in loaded
    foreign = [n for n in loaded if n != "teamlogic" and n not in sys.stdlib_module_names]
    assert foreign == []
