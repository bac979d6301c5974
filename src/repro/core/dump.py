"""Textual dump of the four-layer IR (paper Section IV).

``dump_ir(fn)`` prints, per computation:

- **Layer I** — the iteration domain (an ISL set) and the expression;
- **Layer II** — the scheduled instance set, dimension tags, and the
  static (β) ordering vector;
- **Layer III** — the statement in buffer terms
  (:func:`repro.core.access.resolve`): the element stored and the value
  read from buffer elements;
- **Layer IV** — the communication/synchronization operations.

Used by tests to lock the layering behaviour and by users to inspect
what a schedule did.
"""

from __future__ import annotations

import io
from typing import Optional

from .access import element, resolve
from .communication import tile_window
from .computation import Computation, Input, Operation


def dump_ir(fn) -> str:
    out = io.StringIO()
    beta = fn.resolve_order()
    write = out.write
    write(f"function {fn.name}(params: {', '.join(fn.param_names)})\n")
    regular = [c for c in fn.active_computations()
               if not isinstance(c, Operation)]
    operations = [c for c in fn.active_computations()
                  if isinstance(c, Operation)]

    write("\n-- Layer I: abstract algorithm "
          "(domains + expressions, unordered) --\n")
    for c in regular:
        write(f"  {c.name}: {c.domain!r}\n")
        if c.expr is not None:
            write(f"    = {c.expr!r}\n")
        if c.predicate is not None:
            write(f"    if {c.predicate!r}\n")

    write("\n-- Layer II: computation management "
          "(time-space + tags + order) --\n")
    for c in regular:
        if isinstance(c, Input):
            continue
        write(f"  {c.name}: beta={beta[c.name]} "
              f"dims={c.time_names}\n")
        write(f"    instances: {c.instances!r}\n")
        if c.tags:
            tags = {c.time_names[k]: repr(t) for k, t in sorted(c.tags.items())
                    if k < len(c.time_names)}
            write(f"    tags: {tags}\n")

    write("\n-- Layer III: data management (statements in buffer terms) --\n")
    for c in regular:
        form = resolve(c)
        held = form.store or element(c)     # an input stores nothing
        buf = held.buffer
        write(f"  {c.name}({', '.join(c.var_names)}) -> {held!r}"
              + (f" = {form.value!r}" if form.store else "")
              + f"   # {buf.kind.value}, {buf.mem_space.value}\n")
        if form.predicate is not None:
            write(f"    if {form.predicate!r}\n")
        if c.cached_store is not None:
            write(f"    (stores via cache {c.cached_store[0].name})\n")
        window = tile_window(c)
        if window is not None:
            write(f"    (stores in tile window {window[0]!r}, one per "
                  f"iteration of loops 0..{c.anchor[1]})\n")
        for producer, (shared, __, ___) in c.cached_reads.items():
            write(f"    (reads {producer} via cache {shared.name})\n")

    write("\n-- Layer IV: communication management (operations) --\n")
    if not operations:
        write("  (none)\n")
    for op in operations:
        write(f"  {op.name}: {op.op_kind} beta={beta[op.name]} "
              f"dims={op.time_names}\n")
        for key in ("src", "dst", "buffer", "peer", "size"):
            if key in op.payload and op.payload[key] is not None:
                value = op.payload[key]
                name = getattr(value, "name", repr(value))
                write(f"    {key}: {name}\n")
    return out.getvalue()
