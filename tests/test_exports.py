import importlib
import os
import subprocess
import sys

import pytest

MODULES = ["units", "quadrature", "jsa", "hom", "imperfections", "fitdata"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"homsim.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exposes_only_its_version_and_modules():
    # in a fresh interpreter: importing homsim.cli, as other tests do, adds a ``cli``
    # attribute to the package
    code = ("import homsim; "
            "print(sorted(n for n in vars(homsim) if not n.startswith('__') or n == '__version__'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == str(sorted(["__version__", *MODULES]))
