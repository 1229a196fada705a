"""Desk-scale toolkit for taking learned image compression models to
fixed-function hardware: bit-accurate GDN kernels, mixed-precision
quantization, structured pruning, throughput estimation, patch pipeline
simulation, RD curve comparison, and distillation loss bookkeeping.

The public names are each module's ``__all__``; this package re-exports
all of them. The command-line front end, ``lic_hw_kit.cli``, is not
imported here.
"""

import sys

from .bd_metrics import *
from .errors import *
from .fixed_point import *
from .gdn import *
from .kd_loss import *
from .model import *
from .model_io import *
from .patching import *
from .perf_model import *
from .pipeline_sim import *
from .pruning import *
from .quantizer import *
from .tensor import *

__version__ = "0.1.0"

# Read each list from sys.modules: the star imports above rebind the
# package attributes bd_metrics and kd_loss to the functions of those names.
__all__ = [name for module in (
    "bd_metrics", "errors", "fixed_point", "gdn", "kd_loss", "model",
    "model_io", "patching", "perf_model", "pipeline_sim", "pruning",
    "quantizer", "tensor",
) for name in sys.modules[f"{__name__}.{module}"].__all__] + ["__version__"]
