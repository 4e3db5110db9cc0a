"""Numerical laboratory for exceptional points in a two-level open system.

Layout:
  core    exact 2x2 Pauli-vector algebra, gauge fixing, symmetry normal form
  synth   parametric scattering model and synthetic spectrum generation
  fit     two-resonance model fits of measured or synthetic spectra
  epscan  parameter-plane scans, EP location, curve tracing, braids
  cli     the `eplab` command line front end

Importing eplab pins glibc's mmap and trim thresholds at 4 and 8 MiB, so the
process keeps up to 8 MiB of freed heap; it does not on other libcs or under
MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or a glibc.malloc tunable.
"""

import ctypes
import os


def _pin_malloc_thresholds():
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    env = os.environ
    user = env.keys() & {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"}
    if glibc and not (user or "glibc.malloc" in env.get("GLIBC_TUNABLES", "")):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)    # M_TRIM_THRESHOLD


_pin_malloc_thresholds()    # before the submodules load numpy
from . import core, epscan, errors, fit, synth
from .core import *
from .synth import *
from .fit import *
from .epscan import *
from .errors import *

__version__ = "0.1.0"

__all__ = (core.__all__ + synth.__all__ + fit.__all__ + epscan.__all__
           + errors.__all__)
