"""The README's Python code blocks run as written, and its layout names exist."""

import importlib
import re
from pathlib import Path

import pytest

import uqcm

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
LAYOUT = re.search(r"^## Layout\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
LAYOUT_ROWS = re.findall(r"^\| `(uqcm\.\w+)` \| (.*) \|$", LAYOUT, re.M)
# A Python name, dotted or not; code spans such as `(d, total)` are not names.
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
# Backticked dotted names that start in the package: `symmetric.split_index`,
# `SymDensity.joint`, `uqcm.machines`; `np.vdot` and `math.lgamma` do not.
OWN_NAMES = [
    span
    for span in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    if span.split(".")[0] == "uqcm" or hasattr(uqcm, span.split(".")[0])
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_layout_has_module_rows():
    assert len(LAYOUT_ROWS) >= 6


@pytest.mark.parametrize("module, contents", LAYOUT_ROWS, ids=[m for m, _ in LAYOUT_ROWS])
def test_layout_names_resolve(module, contents):
    # Every backticked Python name in the row is an attribute of its module.
    names = [span for span in contents.split("`")[1::2] if NAME.fullmatch(span)]
    missing = []
    for name in names:
        target = importlib.import_module(module)
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert not missing, f"{module} has no {missing}"


def test_readme_names_its_package_members():
    assert len(OWN_NAMES) >= 6


def test_readme_dotted_names_resolve():
    missing = []
    for name in OWN_NAMES:
        target = uqcm
        for part in name.removeprefix("uqcm.").split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert not missing, f"README names {missing}, which do not exist"
