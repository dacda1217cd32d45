import os
import subprocess
import sys
from pathlib import Path

import stochvolterra
from stochvolterra import convolution, errors, grids, kernels, noise, resolvent, spaces, yosida

MODULES = (convolution, errors, grids, kernels, noise, resolvent, spaces, yosida)


def test_package_exports_each_module_name_once():
    names = stochvolterra.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"} | {name for m in MODULES for name in m.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(stochvolterra, name) is getattr(module, name)


def test_import_does_not_load_the_fft():
    code = "import sys, stochvolterra; print('numpy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(stochvolterra.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_does_not_load_thread_pools_or_polynomials():
    # concurrent.futures serves threaded sampling only, numpy.polynomial the Gauss rule
    code = (
        "import sys, stochvolterra.cli; "
        "print(sorted({'concurrent.futures', 'numpy.polynomial'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stochvolterra.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
