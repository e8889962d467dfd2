"""Hot-path performance layer: bitset scheduler kernels.

The paper's central argument (Section 4, Figure 6) is that LCF is
*cheap hardware*: the whole scheduler is ``O(n)`` priority logic over
register words. This package is the software analogue — request
matrices are represented as per-input Python-int bitmasks (one machine
word per row up to 64 ports, one wide int beyond), and the scheduling
kernels run on word-level operations (popcount for NRQ recomputation,
bit rotation for the rotating tie-break chain) instead of per-cycle
numpy allocations.

Every fast kernel is a *drop-in twin* of its reference implementation:
same registry name, same state machine, same decision trace — and
bit-identical schedules, statistics and traces, enforced by the
hypothesis equivalence suite in ``tests/fastpath/``. Select the layer
with ``build_switch(fast=True)`` / ``run_simulation(fast=True)`` or
the ``--fast`` flag on the ``lcf-sweep`` / ``lcf-trace`` /
``lcf-faults`` / ``lcf-adapt`` CLIs; names without a fast kernel fall
back to the reference implementation, so ``fast=True`` is always safe.

See ``docs/PERFORMANCE.md`` for the design, the bitmask layout, and
the ``BENCH_speed.json`` perf-regression workflow.
"""

from repro.fastpath.bitops import (
    WORD_BITS,
    derive_cols,
    next_at_or_after,
    pack_cols,
    pack_rows,
    select_kth_bit,
    unpack_rows,
    word_count,
    words_to_int,
)
from repro.fastpath.islip import FastISLIP
from repro.fastpath.lcf import FastLCFCentral, FastLCFCentralRR, FastLCFCentralVariant
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.fastpath.pim import FastPIM
from repro.fastpath.registry import (
    FAST_SCHEDULER_NAMES,
    fast_schedulers,
    has_fast_kernel,
    make_fast_scheduler,
)

__all__ = [
    "FAST_SCHEDULER_NAMES",
    "FastISLIP",
    "FastLCFCentral",
    "FastLCFCentralRR",
    "FastLCFCentralVariant",
    "FastLCFDistributed",
    "FastLCFDistributedRR",
    "FastPIM",
    "WORD_BITS",
    "derive_cols",
    "fast_schedulers",
    "has_fast_kernel",
    "make_fast_scheduler",
    "next_at_or_after",
    "pack_cols",
    "pack_rows",
    "select_kth_bit",
    "unpack_rows",
    "word_count",
    "words_to_int",
]
