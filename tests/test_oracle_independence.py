"""The oracles compute their references from definitions, not from the
package code they check.

An oracle that imported the package's spectral data, sinc factors,
zeroth-order table, remainder, eigensolver, AE Rabi frequency or RK4
map would compare that code with itself.  This parses the imports of
each oracle module and fails on any of those names, and on a plain
``import ramanls``, through which they could be reached as attributes.
"""

import ast
from pathlib import Path

import pytest

ORACLES = ("ls_quadratic.py", "propagator_oracle.py", "spectral_oracle.py",
           "born_oracle.py")
FORBIDDEN = {"spectral_m0sq", "sinc_sqrt", "_u0_table", "split_square",
             "eig_h3", "rabi_ae", "rk4", "rk4_steps"}


def package_imports(path: Path) -> tuple[set[str], list[str]]:
    """Names a module imports from ramanls, and its plain ramanls imports."""
    names, modules = set(), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ramanls"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names if a.name.split(".")[0] == "ramanls"]
    return names, modules


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_imports_no_checked_package_code(oracle):
    names, modules = package_imports(Path(__file__).with_name(oracle))
    assert not names & FORBIDDEN, sorted(names & FORBIDDEN)
    assert not modules, modules

