"""Named design builders, addressable from serialized scenario specs.

A spec file may reference a design *by name with parameters* instead of
embedding the full structural payload::

    {"design": {"usecase": "edgaze", "params": {"placement": "2D-In",
                                                "cis_node": 65}}}

The registry maps those names onto the Sec. 6 use-case builders (and any
builder user code registers at runtime via :func:`register_usecase`).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.api.design import Design, require_design
from repro.exceptions import ConfigurationError

_REGISTRY: Dict[str, Callable[..., Design]] = {}
_BUILTINS_LOADED = False


def register_usecase(name: str,
                     builder: Callable[..., Design]) -> Callable[..., Design]:
    """Register ``builder`` under ``name``; returns the builder."""
    if not name:
        raise ConfigurationError("usecase name must be non-empty")
    _REGISTRY[name] = builder
    return builder


def _load_builtins() -> None:
    """Register the Sec. 6 use cases (lazy: usecases import the api)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from repro.usecases import (
        UseCaseConfig,
        build_edgaze,
        build_edgaze_mixed,
        build_rhythmic,
    )
    from repro.usecases.fig5 import build_fig5_design
    from repro.usecases.threelayer import build_three_layer

    register_usecase("fig5", build_fig5_design)
    register_usecase(
        "rhythmic",
        lambda placement="2D-In", cis_node=65:
            build_rhythmic(UseCaseConfig(placement, cis_node)))
    register_usecase(
        "edgaze",
        lambda placement="2D-In", cis_node=65:
            build_edgaze(UseCaseConfig(placement, cis_node)))
    register_usecase(
        "edgaze_mixed",
        lambda cis_node=65: build_edgaze_mixed(cis_node))
    register_usecase("threelayer", build_three_layer)
    # Only mark loaded on success; a failed import above re-raises on
    # the next call instead of leaving an empty registry behind.
    _BUILTINS_LOADED = True


def available_usecases() -> List[str]:
    """Registered builder names."""
    _load_builtins()
    return sorted(_REGISTRY)


def build_usecase(name: str, **params) -> Design:
    """Instantiate a registered use case as a :class:`Design`."""
    _load_builtins()
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown usecase {name!r}; available: {available_usecases()}")
    try:
        built = _REGISTRY[name](**params)
    except TypeError as error:
        # Bad/missing params arrive from user spec files: fail as a
        # framework error, not a traceback.
        raise ConfigurationError(
            f"usecase {name!r} rejected params {sorted(params)}: "
            f"{error}") from error
    return require_design(built, f"usecase {name!r}")
