"""Numerical laboratory for exceptional points in a two-level open system.

Layout:
  core    exact 2x2 Pauli-vector algebra, gauge fixing, symmetry normal form
  synth   parametric scattering model and synthetic spectrum generation
  fit     two-resonance model fits of measured or synthetic spectra
  epscan  parameter-plane scans, EP location, curve tracing, braids
  cli     the `eplab` command line front end
"""

from . import core, epscan, errors, fit, synth
from .core import *
from .synth import *
from .fit import *
from .epscan import *
from .errors import *

__version__ = "0.1.0"

__all__ = (core.__all__ + synth.__all__ + fit.__all__ + epscan.__all__
           + errors.__all__)
