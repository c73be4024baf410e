"""Run every docstring example in the package, and the README's Python
examples."""

import doctest
import re
from pathlib import Path

import pytest

import stirlperm
import stirlperm.bijections
import stirlperm.distributions
import stirlperm.harness
import stirlperm.perms
import stirlperm.trees
import stirlperm.urns


@pytest.mark.parametrize(
    "module",
    [
        stirlperm.perms,
        stirlperm.trees,
        stirlperm.bijections,
        stirlperm.urns,
        stirlperm.distributions,
        stirlperm.harness,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
    assert result.attempted > 0


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
