"""The light client stands alone: importing it loads `core` and nothing
else of the program, so a client checks a VO without the server's code."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_client_imports_only_core():
    code = ("import sys, chainquery.client; print(' '.join(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'chainquery')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["chainquery", "chainquery.client",
                           "chainquery.core"]
