"""The runtime needs numpy and the standard library only."""

import os
import subprocess
import sys

import numpy

import mcmfs

# Imports the package and every submodule, then prints each top-level module
# name that is neither standard library nor allowed.
_PROBE = """
import importlib, pkgutil, sys
import mcmfs
for info in pkgutil.iter_modules(mcmfs.__path__):
    importlib.import_module("mcmfs." + info.name)
allowed = set(sys.stdlib_module_names) | {"__main__", "mcmfs", "numpy"}
print(" ".join(sorted({name.split(".")[0] for name in sys.modules} - allowed)))
"""


def test_imports_only_numpy_and_the_standard_library():
    # -S skips site, whose .pth files may import third-party helpers at start-up;
    # the path then names the directories holding mcmfs and numpy.
    path = [os.path.dirname(os.path.dirname(m.__file__)) for m in (mcmfs, numpy)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env,
                           capture_output=True, text=True, check=True, timeout=60)
    assert probe.stdout.split() == []
