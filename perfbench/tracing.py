"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer at every place
they are looked up (a module that did ``from x import f`` holds its own
reference, so patching ``x.f`` alone would miss it).  Hot calls are not
recorded one span per call: each layer name aggregates a call count, a
total and a self time (total minus the time its nested layer calls
took), plus a unit count such as rows or bytes.  The few phase spans
(``run`` → ``setup``/``query``) are kept whole.  Everything stays in
memory until :meth:`LayerTracer.dump` at the end of the run.

Self times of all layers plus the phases' own self time (the time no
layer covers, reported as ``trace.unattributed_s``) add up to the
``run`` span's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter
from typing import Any, Callable


class NullTracer:
    """Tracing off: phases cost nothing and nothing is recorded."""

    def phase(self, name: str):
        return contextlib.nullcontext()

    def dump(self) -> None:
        return None


class LayerTracer:
    """Aggregating tracer for one traced cycle."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, units]
        self.layers: dict[str, list[float]] = {}
        self.spans: list[dict[str, Any]] = []
        # one frame per open timed call: [start, time covered by children]
        self._stack: list[list[float]] = []
        self._open_spans: list[int] = []

    # -- phases -----------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str):
        parent = self._open_spans[-1] if self._open_spans else None
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": parent, "name": name})
        self._open_spans.append(span_id)
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open_spans.pop()
            elapsed = end - frame[0]
            if self._stack:
                self._stack[-1][1] += elapsed
            self.spans[span_id].update(
                start=frame[0], end=end, self_s=elapsed - frame[1]
            )

    # -- layer wrappers -----------------------------------------------------

    def _entry(self, name: str) -> list[float]:
        return self.layers.setdefault(name, [0, 0.0, 0.0, 0])

    def timed(
        self,
        name: str,
        fn: Callable,
        units: Callable[..., int] | None = None,
        count_if: Callable[[Any], bool] | None = None,
    ) -> Callable:
        """Wrap ``fn`` as a layer span.  ``units(*args, **kwargs)`` adds
        to the layer's unit count; ``count_if(result)`` decides whether
        the call counts (the time always does)."""
        entry = self._entry(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside the traced run span
                return fn(*args, **kwargs)
            if units is not None:
                entry[3] += units(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                stack[-1][1] += elapsed
                if count_if is None or count_if(result):
                    entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

        return wrapper

    def counted(self, name: str, fn: Callable, hit: Callable[..., bool]) -> Callable:
        """Count calls and hits of ``fn`` without timing them; their time
        stays with whichever layer called them."""
        entry = self._entry(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                entry[0] += 1
                entry[3] += int(hit(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        return {
            "layers": {
                name: {"calls": e[0], "total_s": e[1], "self_s": e[2], "units": e[3]}
                for name, e in self.layers.items()
            },
            "spans": self.spans,
        }


def patch_function(owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` with ``wrap(original)`` and rebind every
    ``repro`` module global that refers to the same function."""
    original = getattr(owner, attr)
    wrapped = wrap(original)
    setattr(owner, attr, wrapped)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _rows_len(query, rows, *rest) -> int:
    return len(rows)


def _sized(fn: Callable) -> Callable:
    """``evaluate_group_by`` may receive an iterator; hand it a list so
    the wrapper can count the rows (the fold is the same)."""

    @functools.wraps(fn)
    def wrapper(query, rows, *rest, **kwargs):
        if not hasattr(rows, "__len__"):
            rows = list(rows)
        return fn(query, rows, *rest, **kwargs)

    return wrapper


def install(tracer: LayerTracer) -> None:
    """Wrap every layer function the per-layer metrics name."""
    from repro.core import assignment, qep
    from repro.core.runtime.coordinator import ExecutionCoordinator
    from repro.crypto import primitives
    from repro.crypto.keys import KeyRing
    from repro.devices.attestation import AttestationAuthority
    from repro.devices.edgelet import Edgelet
    from repro.network.opnet import OpportunisticNetwork
    from repro.network.simulator import Simulator
    from repro.network.topology import ContactGraph
    from repro.plan import compile as plan_compile
    from repro.query import groupby
    from repro.query.schema import Schema

    timed = tracer.timed
    for attr, name in (
        ("generate_keypair", "crypto.keygen"),
        ("sign", "crypto.sign"),
        ("verify", "crypto.verify"),
        ("diffie_hellman_shared", "crypto.dh"),
    ):
        patch_function(primitives, attr, lambda fn, n=name: timed(n, fn))
    # both directions of the AEAD share one layer entry
    patch_function(primitives, "encrypt", lambda fn: timed(
        "crypto.aead", fn, units=lambda key, data, *a, **k: len(data)))
    patch_function(primitives, "decrypt", lambda fn: timed(
        "crypto.aead", fn, units=lambda key, blob, *a, **k: len(blob)))
    # a hit is a call that finds its session key already derived; the
    # cache is private to the ring, so peek at it before the call
    patch_function(KeyRing, "session_key", lambda fn: tracer.counted(
        "crypto.session", fn, hit=lambda ring, peer: peer in ring._sessions))
    patch_function(Edgelet, "__init__", lambda fn: timed("devices.edgelet", fn))
    patch_function(AttestationAuthority, "attest", lambda fn: timed("devices.attest", fn))
    patch_function(ContactGraph, "add_link", lambda fn: timed("network.topology", fn))
    patch_function(OpportunisticNetwork, "send", lambda fn: timed("network.send", fn))
    patch_function(Simulator, "step", lambda fn: timed(
        "network.sim", fn, count_if=bool))
    patch_function(plan_compile, "compile_query", lambda fn: timed("plan.compile", fn))
    patch_function(plan_compile.CompiledQuery, "build_qep", lambda fn: timed("plan.build_qep", fn))
    patch_function(qep.QueryExecutionPlan, "connect", lambda fn: timed("core.qep_connect", fn))
    patch_function(assignment, "assign_operators", lambda fn: timed("core.assign", fn))
    patch_function(ExecutionCoordinator, "dispatch", lambda fn: timed("core.dispatch", fn))
    patch_function(Schema, "validate_row", lambda fn: timed("query.validate", fn))
    patch_function(groupby, "evaluate_group_by", lambda fn: _sized(timed(
        "query.groupby", fn, units=_rows_len)))
    patch_function(groupby, "merge_partials", lambda fn: timed("query.merge", fn))
