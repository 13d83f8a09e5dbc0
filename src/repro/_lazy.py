"""Lazy package façades (PEP 562): each public name written once.

A package hands :func:`install` a table of its public names grouped by
home module; ``__all__`` and ``__dir__`` derive from that table, and
``__getattr__`` imports a name's home module on first access and
caches the value in the package globals, so later lookups are plain
dict reads.  Importing the package itself imports nothing.
"""

from importlib import import_module
from typing import Any, Dict, Iterable, MutableMapping, Sequence


def install(namespace: MutableMapping[str, Any],
            exports: Dict[str, Sequence[str]],
            submodules: Iterable[str] = ()) -> None:
    """Give the package whose globals are ``namespace`` a lazy surface.

    ``exports`` maps each home module to the public names it provides;
    names listed under the package's own name are its submodules.  The
    submodules holding a home module, and ``submodules``, are reachable
    as attributes but left out of ``__all__``.  Unknown names raise
    ``AttributeError``.
    """
    package = namespace["__name__"]
    homes = {name: home for home, names in exports.items()
             for name in names}
    prefix = package + "."
    hidden = frozenset(submodules).union(
        home[len(prefix):].split(".")[0] for home in exports
        if home.startswith(prefix))

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home == package or (home is None and name in hidden):
            value = import_module(f"{package}.{name}")
        elif home is not None:
            value = getattr(import_module(home), name)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(homes) | hidden)

    namespace["__all__"] = list(homes)
    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
