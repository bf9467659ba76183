"""slicekit: slice decomposition, infinity-norm certificates, and a mobile
leader-follower fusion simulator for sub-stochastic linear time-varying
updates.

The library splits into layers that can be used independently:

- :mod:`slicekit.matrix_core` — the single-row update type, its
  admissibility check, and norms.
- :mod:`slicekit.slice_engine` — the streaming slice detector that cuts an
  update sequence into windows whose products are uniformly contractive.
- :mod:`slicekit.bounds` — closed-form row and slice norm bounds.
- :mod:`slicekit.certifier` — asymptotic-stability certificates built from
  recorded slice lengths (uniform cap, capped subfamily, growth caps
  scanned over gamma1 at a fixed rate floor).
- :mod:`slicekit.generators` — random and adversarial sequence generators.
- :mod:`slicekit.ddf_sim` — disk-confined mobile agents fusing toward an
  anchor value, driving the engine online.
- :mod:`slicekit.tables` — every CSV and text writer, and the slice-log
  read; the modules above do no I/O.
- :mod:`slicekit.cli` — the ``slicekit`` command-line harness.

Each module's ``__all__`` is its public list; the package re-exports the
lists of every module above except :mod:`slicekit.cli`.
"""

from . import bounds, certifier, ddf_sim, errors, generators, matrix_core, slice_engine, tables
from .errors import *
from .matrix_core import *
from .bounds import *
from .slice_engine import *
from .certifier import *
from .generators import *
from .ddf_sim import *
from .tables import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *matrix_core.__all__,
    *bounds.__all__,
    *slice_engine.__all__,
    *certifier.__all__,
    *generators.__all__,
    *ddf_sim.__all__,
    *tables.__all__,
]
