"""Each narrative script in demos/ runs to completion against src/, and
README's library example imports what it names from where it is defined."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_imports_resolve():
    # only the imports run: the example's other lines need a corpus on disk
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "vocalnet"]
    assert imports
    for node in imports:
        exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), {})


def test_package_root_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    check = ("import sys, vocalnet; "
             "assert 'numpy' not in sys.modules, 'numpy'; "
             "print(*sorted(m for m in sys.modules if m.startswith('vocalnet.')))")
    done = subprocess.run([sys.executable, "-c", check], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, ""), done.stderr
