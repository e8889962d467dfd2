"""Fastpath scheduler registry.

Mirrors :mod:`repro.baselines.registry` for the names that have a
bitset kernel — the central and distributed LCF families, ``islip``,
``pim`` and ``wfront``, i.e. every crossbar scheduler of the Figure 12
sweep. :func:`make_fast_scheduler` is the ``fast=True`` counterpart of
:func:`~repro.baselines.registry.make_scheduler` and falls back to the
reference implementation for every other name (``lqf``, ``ocf``,
``greedy``, ``random``, ...), so callers can request the fast layer
unconditionally.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.baselines.registry import make_scheduler
from repro.core.base import Scheduler
from repro.fastpath.islip import FastISLIP
from repro.fastpath.lcf import FastLCFCentral, FastLCFCentralRR
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.fastpath.pim import FastPIM
from repro.fastpath.wavefront import FastWrappedWaveFront

_FAST_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "lcf_central": lambda n, **kw: FastLCFCentral(n),
    "lcf_central_rr": lambda n, **kw: FastLCFCentralRR(n),
    "lcf_dist": lambda n, iterations=4, **kw: FastLCFDistributed(n, iterations),
    "lcf_dist_rr": lambda n, iterations=4, **kw: FastLCFDistributedRR(
        n, iterations
    ),
    "islip": lambda n, iterations=4, **kw: FastISLIP(n, iterations),
    "pim": lambda n, iterations=4, seed=0, **kw: FastPIM(n, iterations, seed),
    "wfront": lambda n, **kw: FastWrappedWaveFront(n),
}

#: Registry names with a bitset kernel (everything else falls back).
FAST_SCHEDULER_NAMES = frozenset(_FAST_FACTORIES)


def fast_schedulers() -> tuple[str, ...]:
    """Sorted registry names that resolve to a bitset kernel."""
    return tuple(sorted(_FAST_FACTORIES))


def has_fast_kernel(name: str) -> bool:
    """Whether ``make_fast_scheduler(name, ...)`` returns a bitset kernel."""
    return name in _FAST_FACTORIES


def make_fast_scheduler(name: str, n: int, **kwargs) -> Scheduler:
    """Construct the fast twin of a registry scheduler.

    Accepts the same names and keywords as
    :func:`~repro.baselines.registry.make_scheduler`; names without a
    fast kernel return the reference implementation, so the fast layer
    never changes which schedulers are available — only how fast the
    covered ones run. Either way the result is bit-identical to the
    reference (property-tested in ``tests/fastpath/``).
    """
    factory = _FAST_FACTORIES.get(name)
    if factory is None:
        return make_scheduler(name, n, **kwargs)
    return factory(n, **kwargs)
