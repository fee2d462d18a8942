"""Reproducing-kernel coefficient tools, Pick feasibility, and disc orbit encodings.

The public names are those of the five layers, re-exported here; each
layer's ``__all__`` is the one list of its names.  The layers, and numpy
with them, are loaded on first use: ``import pickdisc`` alone loads
none of them, a layer read as ``pickdisc.encode`` loads that layer, and
any other name read from the package (``__all__``, ``dir()`` and a star
import among them) loads all five.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("seqkernel", "pick", "hypgeo", "fuchsian", "encode")


def _load() -> None:
    """Import the five layers and bind their public names and ``__all__`` here."""
    layers = [importlib.import_module(f".{layer}", __name__) for layer in _LAYERS]
    names = {name: getattr(layer, name) for layer in layers for name in layer.__all__}
    globals().update(names, __all__=["__version__", *names])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _load()
    return sorted(globals())
