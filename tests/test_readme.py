"""The library example in README.md runs as printed."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"),
                                                    env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "0.5892795564400504"
