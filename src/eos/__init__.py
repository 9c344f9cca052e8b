"""Entropic outlier sparsification.

Robust instance weighting with a closed-form entropy-regularized weight
update, an alternating weight/parameter fit, a Gaussian anomaly detector,
Gaussian-affinity rows, and a label-noise-robust training wrapper.

The public API is every name in the ``__all__`` of the modules below.
"""

__version__ = "0.1.0"

from . import affinity, anomaly, bench, core, data, dataio, exceptions, models, supervised
from .affinity import *
from .anomaly import *
from .bench import *
from .core import *
from .data import *
from .dataio import *
from .exceptions import *
from .models import *
from .supervised import *

__all__ = ["__version__"] + [
    name
    for module in (affinity, anomaly, bench, core, data, dataio, exceptions, models, supervised)
    for name in module.__all__
]
