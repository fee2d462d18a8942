"""Reproducing-kernel coefficient tools, Pick feasibility, and disc orbit encodings.

The public names are those of the five layers, re-exported here; each
layer's ``__all__`` is the one list of its names.
"""

from . import encode, fuchsian, hypgeo, pick, seqkernel
from .seqkernel import *  # noqa: F401,F403
from .pick import *  # noqa: F401,F403
from .hypgeo import *  # noqa: F401,F403
from .fuchsian import *  # noqa: F401,F403
from .encode import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *seqkernel.__all__,
    *pick.__all__,
    *hypgeo.__all__,
    *fuchsian.__all__,
    *encode.__all__,
]
