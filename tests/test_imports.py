"""The package imports with no third-party runtime dependency.

``pyproject.toml`` declares ``dependencies = []``, so ``import repro``
must not need networkx (or anything else outside the standard library)
even where it happens to be installed.  A fresh interpreter with the
module blocked proves it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_succeeds_with_networkx_blocked():
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro, repro.serve, repro.cli\n"
        "assert sys.modules['networkx'] is None\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
