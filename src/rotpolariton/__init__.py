"""Rotational-polariton simulator and pulse-design toolkit.

A single polar linear molecule exchanges one quantum with a resonant cavity
mode.  A run has one of two models, which build_model picks: the rotor alone
(no coupling), or the polariton (dressed) basis of the coupled system.  The package propagates
arbitrary linearly polarized drive fields in either, extracts orientation
traces, spectra, and revival periods, and designs the two-color pulse that
restores the bare orientation maximum 1/sqrt(3) inside the cavity.
"""

__version__ = "0.1.0"

# the package surface is the union of the modules' __all__ lists
from .control import *
from .dynamics import *
from .errors import *
from .model import *
from .observables import *
from .pulse import *
