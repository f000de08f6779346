"""Three-compartment feedback model of white blood cell formation.

Closed-form steady states and stability, an adaptive integrator, long-run
trajectory classification, and parameter-space sweeps locating oscillatory
(Hopf) regions.

The package exports every name in its modules' `__all__`; a name is made
public there and nowhere else. `cli` is left out, so importing the package
does not load argparse.
"""

from . import analysis, cubic, integrator, model, serialize, stability, sweep
from .analysis import *
from .cubic import *
from .integrator import *
from .model import *
from .serialize import *
from .stability import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *cubic.__all__,
    *integrator.__all__,
    *model.__all__,
    *serialize.__all__,
    *stability.__all__,
    *sweep.__all__,
    "__version__",
]
