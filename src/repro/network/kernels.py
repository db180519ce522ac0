"""Compiled kernel tier for the engine's per-round array operations.

The batch loop (:meth:`SynchronousEngine._run_batch`) spends its
rounds in a handful of array primitives: the routing gather through a
:class:`~repro.network.porttable.PortTable`, the stable receiver sort
that canonicalizes the inbox, and the per-protocol scatter folds
(max/min/lexicographic-min).  This module gives each primitive two
interchangeable implementations:

* ``numpy`` — pure numpy, always available, the bit-identity baseline;
* ``numba`` — ``@njit``-compiled loops, used only when numba is
  importable.  Every numba kernel computes the *same function* as its
  numpy twin (identical outputs, including tie-breaking), so switching
  tiers can never change a trial — only its wall-clock.

Selection goes through the ``kernel`` knob: ``auto`` (numba when
available, else numpy), ``numpy``, or ``numba``.  The default comes from
the ``REPRO_KERNEL`` environment variable (the CLI's ``--kernel`` flag
sets it process-wide so worker processes inherit).  Requesting
``numba`` explicitly when numba is not installed raises — an explicit
request must never silently degrade.

Because the tiers are bit-identical, the kernel choice is deliberately
*excluded* from :class:`~repro.runtime.store.ResultStore` cache keys:
results computed under either tier serve both.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "KERNEL_CHOICES",
    "KernelSet",
    "default_kernel",
    "get_kernels",
    "numba_available",
    "resolve_kernel",
]

#: Valid values of the ``kernel`` knob / ``REPRO_KERNEL`` env var.
KERNEL_CHOICES = ("auto", "numba", "numpy")

_NUMBA_AVAILABLE: bool | None = None


def numba_available() -> bool:
    """True when the optional numba dependency is importable."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except ImportError:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


def default_kernel() -> str:
    """The process-wide kernel request (``REPRO_KERNEL``, default auto)."""
    name = os.environ.get("REPRO_KERNEL", "auto")
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"REPRO_KERNEL must be one of {KERNEL_CHOICES}, got {name!r}"
        )
    return name


def resolve_kernel(name: str | None = None) -> str:
    """Resolve a kernel request to the concrete tier ("numpy"/"numba").

    ``None`` reads the process default (:func:`default_kernel`).  An
    explicit ``"numba"`` request with numba absent raises — silently
    falling back would misreport what actually ran.
    """
    if name is None:
        name = default_kernel()
    if name not in KERNEL_CHOICES:
        raise ValueError(f"kernel must be one of {KERNEL_CHOICES}, got {name!r}")
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        raise RuntimeError(
            "kernel='numba' was requested but numba is not installed; "
            "install numba or use kernel=auto / kernel=numpy (the numpy "
            "tier is bit-identical)"
        )
    return name


class KernelSet:
    """The pure-numpy kernel tier (and the contract numba must match)."""

    name = "numpy"
    is_numba = False

    # -- routing / inbox canonicalization ----------------------------------

    def route_csr(self, offsets, neighbors, reverse, senders, ports):
        """CSR routing gather: (receivers, arrival ports) for each row."""
        base = offsets[senders] + ports
        return neighbors[base], reverse[base]

    def stable_receiver_order(self, receivers, n_groups):
        """Permutation sorting rows by receiver, ties in original order.

        ``n_groups`` bounds the receiver values (they are node ids < n);
        the numba tier uses it for an O(n + k) counting sort that yields
        the exact same permutation as numpy's stable argsort.
        """
        return np.argsort(receivers, kind="stable")

    # -- protocol scatter folds --------------------------------------------

    def scatter_max(self, target, idx, values) -> None:
        """target[idx] = max(target[idx], values), duplicate-safe."""
        np.maximum.at(target, idx, values)

    def scatter_min(self, target, idx, values) -> None:
        """target[idx] = min(target[idx], values), duplicate-safe."""
        np.minimum.at(target, idx, values)

    def group_argmin_lex3(self, groups, w, a, b, size):
        """Per-group row index of the lexicographic minimum (w, a, b).

        Returns an int64 array of length ``size``: for each group id the
        position (into the input rows) of its smallest (w, a, b) triple,
        or -1 for groups with no rows.  Exact ties keep the earliest row,
        matching a sequential first-wins scan.
        """
        pos = np.full(size, -1, dtype=np.int64)
        if len(groups) == 0:
            return pos
        order = np.lexsort((b, a, w))
        # Reverse order: later assignments overwrite, so each group ends
        # up holding its best row (stable lexsort ⇒ earliest row on ties).
        rev = order[::-1]
        pos[groups[rev]] = rev
        return pos

    def scatter_min_lex3(self, best_w, best_a, best_b, idx, w, a, b) -> None:
        """Fold rows into per-slot lexicographic minima, in place.

        ``best_*`` are parallel per-slot state columns; each row
        (w, a, b) at slot ``idx`` replaces the slot's triple when
        strictly smaller in lexicographic order.
        """
        pos = self.group_argmin_lex3(idx, w, a, b, len(best_w))
        hit = np.nonzero(pos >= 0)[0]
        if len(hit) == 0:
            return
        p = pos[hit]
        better = (w[p] < best_w[hit]) | (
            (w[p] == best_w[hit])
            & (
                (a[p] < best_a[hit])
                | ((a[p] == best_a[hit]) & (b[p] < best_b[hit]))
            )
        )
        g = hit[better]
        p = p[better]
        best_w[g] = w[p]
        best_a[g] = a[p]
        best_b[g] = b[p]


class _NumbaKernelSet(KernelSet):
    """Numba-compiled twins of every numpy kernel (bit-identical)."""

    name = "numba"
    is_numba = True

    def __init__(self):
        funcs = _compiled_numba_kernels()
        self._route_csr = funcs["route_csr"]
        self._counting_order = funcs["counting_order"]
        self._scatter_max = funcs["scatter_max"]
        self._scatter_min = funcs["scatter_min"]
        self._group_argmin_lex3 = funcs["group_argmin_lex3"]
        self._scatter_min_lex3 = funcs["scatter_min_lex3"]

    def route_csr(self, offsets, neighbors, reverse, senders, ports):
        return self._route_csr(offsets, neighbors, reverse, senders, ports)

    def stable_receiver_order(self, receivers, n_groups):
        # A counting sort is O(n_groups + k); for sparse rounds (k ≪ n)
        # the argsort is cheaper.  Both yield the identical permutation.
        if len(receivers) * 16 < n_groups:
            return np.argsort(receivers, kind="stable")
        return self._counting_order(receivers, n_groups)

    def scatter_max(self, target, idx, values) -> None:
        self._scatter_max(target, idx, values)

    def scatter_min(self, target, idx, values) -> None:
        self._scatter_min(target, idx, values)

    def group_argmin_lex3(self, groups, w, a, b, size):
        return self._group_argmin_lex3(
            groups, np.asarray(w, dtype=np.float64), a, b, size
        )

    def scatter_min_lex3(self, best_w, best_a, best_b, idx, w, a, b) -> None:
        self._scatter_min_lex3(
            best_w, best_a, best_b, idx, np.asarray(w, dtype=np.float64), a, b
        )


_NUMBA_FUNCS: dict | None = None


def _compiled_numba_kernels() -> dict:
    """Compile (once per process) the ``@njit`` kernel twins."""
    global _NUMBA_FUNCS
    if _NUMBA_FUNCS is not None:
        return _NUMBA_FUNCS
    import numba

    @numba.njit(cache=True)
    def route_csr(offsets, neighbors, reverse, senders, ports):
        count = senders.shape[0]
        receivers = np.empty(count, dtype=np.int64)
        arrivals = np.empty(count, dtype=np.int64)
        for i in range(count):
            base = offsets[senders[i]] + ports[i]
            receivers[i] = neighbors[base]
            arrivals[i] = reverse[base]
        return receivers, arrivals

    @numba.njit(cache=True)
    def counting_order(receivers, n_groups):
        count = receivers.shape[0]
        counts = np.zeros(n_groups + 1, dtype=np.int64)
        for i in range(count):
            counts[receivers[i] + 1] += 1
        for g in range(1, n_groups + 1):
            counts[g] += counts[g - 1]
        order = np.empty(count, dtype=np.int64)
        for i in range(count):
            g = receivers[i]
            order[counts[g]] = i
            counts[g] += 1
        return order

    @numba.njit(cache=True)
    def scatter_max(target, idx, values):
        for i in range(idx.shape[0]):
            j = idx[i]
            if values[i] > target[j]:
                target[j] = values[i]

    @numba.njit(cache=True)
    def scatter_min(target, idx, values):
        for i in range(idx.shape[0]):
            j = idx[i]
            if values[i] < target[j]:
                target[j] = values[i]

    @numba.njit(cache=True)
    def group_argmin_lex3(groups, w, a, b, size):
        pos = np.full(size, -1, dtype=np.int64)
        for i in range(groups.shape[0]):
            g = groups[i]
            p = pos[g]
            if p < 0 or (
                w[i] < w[p]
                or (w[i] == w[p] and (a[i] < a[p] or (a[i] == a[p] and b[i] < b[p])))
            ):
                pos[g] = i
        return pos

    @numba.njit(cache=True)
    def scatter_min_lex3(best_w, best_a, best_b, idx, w, a, b):
        for i in range(idx.shape[0]):
            g = idx[i]
            if w[i] < best_w[g] or (
                w[i] == best_w[g]
                and (
                    a[i] < best_a[g]
                    or (a[i] == best_a[g] and b[i] < best_b[g])
                )
            ):
                best_w[g] = w[i]
                best_a[g] = a[i]
                best_b[g] = b[i]

    _NUMBA_FUNCS = {
        "route_csr": route_csr,
        "counting_order": counting_order,
        "scatter_max": scatter_max,
        "scatter_min": scatter_min,
        "group_argmin_lex3": group_argmin_lex3,
        "scatter_min_lex3": scatter_min_lex3,
    }
    return _NUMBA_FUNCS


_KERNEL_SETS: dict[str, KernelSet] = {}


def get_kernels(name: str | None = None) -> KernelSet:
    """The kernel set for a request (cached singletons per tier)."""
    resolved = resolve_kernel(name)
    kernels = _KERNEL_SETS.get(resolved)
    if kernels is None:
        kernels = KernelSet() if resolved == "numpy" else _NumbaKernelSet()
        _KERNEL_SETS[resolved] = kernels
    return kernels
