"""The public surface: what deformfield exports and what README names."""

import ast
import glob
import os
import re
import subprocess
import sys

import deformfield

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PACKAGE = os.path.dirname(deformfield.__file__)


def test_all_resolves_once_and_sorted():
    names = deformfield.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    missing = [name for name in names if not hasattr(deformfield, name)]
    assert missing == []


def test_readme_lower_level_pieces_are_exported():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Lower-level pieces")
    paragraph = text[start : text.index("\n\n", start)]
    named = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(named) >= 10  # the paragraph was found and parsed
    assert [name for name in named if name not in deformfield.__all__] == []


def test_readme_example_prints_its_commented_values():
    # the Library section's one python block, run as it stands
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    code = text[start : text.index("```", start)]
    want = re.findall(r"^print\(.*# (\S+)$", code, flags=re.MULTILINE)
    assert len(want) == 3
    env = {**os.environ, "PYTHONPATH": os.path.join(PACKAGE, os.pardir)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert [line.split("= ")[1] for line in out.splitlines()] == want


def test_modules_import_no_private_names_from_each_other():
    private = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("deformfield"):
                continue  # a name from outside the package
            private += [
                f"{os.path.basename(path)}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []


def test_import_leaves_scipy_optimize_unloaded_until_read():
    # no stage calls scipy.optimize; likelihood.optimize imports it on request
    probe = (
        "import sys, deformfield; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize'))); "
        "print(callable(deformfield.likelihood.optimize.minimize))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "True"]
