"""Picklable trial specs: factory references that cross process boundaries.

The sweep API takes *factories* — ``make_scenario(x, seed)`` and
``make_config(x)`` — and almost every call site writes them as closures
over local state.  Closures cannot be pickled, so they cannot follow a
trial down the pipe to a sweep worker process
(:func:`~repro.experiments.resilience.run_tasks_supervised`).

:class:`FactoryRef` is the serializable alternative: a reference to a
*module-level* factory function (stored as ``"package.module:qualname"``)
plus a frozen set of keyword arguments bound at construction time.  It is
itself callable with the same signature as the function it wraps, so the
sequential ``jobs=1`` path treats it exactly like the closure it replaces,
while the parallel path pickles it as two strings and a kwargs tuple.

Build one with :func:`factory_ref`::

    make_scenario = factory_ref(bclique_tflap_trial, size=4, count=3)
    make_config = factory_ref(constant_config, config=BgpConfig.standard(30.0))
    sweep(periods, make_scenario, make_config, jobs=4)

The module also hosts the two config-factory shapes every figure driver
needs (:func:`constant_config`, :func:`mrai_config`) so the drivers stay
parallel-safe without writing their own adapters.
"""

from __future__ import annotations

import importlib
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from ..bgp import BgpConfig
from ..errors import ConfigError


def _resolve(target: str) -> Callable:
    """Import ``"package.module:qualname"`` and return the named object."""
    module_name, _, qualname = target.partition(":")
    if not module_name or not qualname:
        raise ConfigError(
            f"factory target must look like 'package.module:name', "
            f"got {target!r}"
        )
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigError(f"cannot import factory module {module_name!r}: {exc}")
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ConfigError(
                f"module {module_name!r} has no attribute {qualname!r}"
            ) from None
    return obj


@dataclass(frozen=True)
class FactoryRef:
    """A picklable, callable reference to a module-level factory.

    ``target`` is ``"package.module:qualname"``; ``kwargs`` is a sorted
    tuple of ``(name, value)`` pairs merged into every call.  Positional
    arguments pass through, so a ref wrapping ``f(x, seed, *, size)`` built
    with ``size=4`` is called as ``ref(x, seed)``.
    """

    target: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def resolve(self) -> Callable:
        """The referenced function (imported fresh; cheap after first call)."""
        return _resolve(self.target)

    def __call__(self, *args: Any) -> Any:
        return self.resolve()(*args, **dict(self.kwargs))

    def __repr__(self) -> str:
        bound = ", ".join(f"{name}={value!r}" for name, value in self.kwargs)
        return f"FactoryRef({self.target}{', ' + bound if bound else ''})"


def factory_ref(func: Any, **kwargs: Any) -> FactoryRef:
    """Build a :class:`FactoryRef` from a function (or target string).

    ``func`` must be importable at module level — lambdas, inner functions,
    and bound methods are rejected, because worker processes re-import the
    factory by name.  Keyword arguments are bound into the ref and must
    themselves be picklable (checked here, so a parallel sweep fails fast
    with a clear message instead of deep inside the executor).
    """
    if isinstance(func, str):
        target = func
        resolved = _resolve(target)
    else:
        module = getattr(func, "__module__", None)
        qualname = getattr(func, "__qualname__", None)
        if not module or not qualname:
            raise ConfigError(f"{func!r} is not a referenceable function")
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise ConfigError(
                f"{qualname!r} is not module-level; parallel sweeps need an "
                f"importable factory (a def at module scope), not a lambda "
                f"or inner function"
            )
        target = f"{module}:{qualname}"
        resolved = _resolve(target)
        if resolved is not func:
            raise ConfigError(
                f"{target!r} does not resolve back to the given function; "
                f"pass the module-level original"
            )
    if not callable(resolved):
        raise ConfigError(f"{target!r} resolves to a non-callable")
    frozen = tuple(sorted(kwargs.items()))
    try:
        pickle.dumps(frozen)
    except Exception as exc:
        raise ConfigError(
            f"factory kwargs for {target!r} are not picklable ({exc}); "
            f"bind only plain data (numbers, strings, frozen dataclasses)"
        )
    return FactoryRef(target=target, kwargs=frozen)


# ----------------------------------------------------------------------
# Shared config-factory shapes (module-level, hence FactoryRef-able)
# ----------------------------------------------------------------------


def constant_config(x: float, *, config: BgpConfig) -> BgpConfig:
    """``make_config`` that ignores x: the same config at every point."""
    return config


def mrai_config(x: float, *, base: BgpConfig) -> BgpConfig:
    """``make_config`` for MRAI-on-the-x-axis sweeps (Figures 5 and 7)."""
    return base.with_mrai(x)
