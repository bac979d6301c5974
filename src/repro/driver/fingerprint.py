"""Content addressing for compiled kernels.

:func:`ir_fingerprint` folds everything that determines the generated
code — the function's computations (domains, expressions, schedules,
tags), the static beta order, the data layout (Layer III buffers and
store maps), the target, and the compile options — into one stable
SHA-256 digest.  Two functions with the same fingerprint compile to the
same kernel, so the digest is the key of the driver's compile cache;
any scheduling command (``tile``, ``vectorize``, ``store_in``, ...)
changes the digest and invalidates the entry.

The IR's reprs are structural (expressions, linear forms and ISL sets
print their contents, never object identities), which is what makes the
digest stable across separately-built but identical functions.  An
auto-created buffer prints its owner's name, not its extents: those
derive from the owner's domain and store indices, which the owner's
tokens print.  A :class:`Fingerprint` keeps its tokens by computation,
so the drift check of a later hit re-prints only what changed.
"""

from __future__ import annotations

import hashlib
from operator import is_
from typing import Dict, Iterator, List, Optional

from repro.core.buffer import Buffer
from repro.core.computation import Computation, Operation
from repro.ir.expr import BufferRead


def _owned(buf, home) -> bool:
    """``buf`` is auto-created by a computation of ``home``."""
    return buf.owner is not None and buf.owner.function is home


def _stable(obj, home=None) -> str:
    """A deterministic, structure-only string for fingerprint tokens."""
    if isinstance(obj, Buffer):
        sizes = (f"auto:{obj.owner.name}" if _owned(obj, home)
                 else ",".join(repr(s) for s in obj.sizes))
        return (f"buf<{obj.name}|[{sizes}]|{obj.dtype!r}|{obj.kind.value}"
                f"|{obj.mem_space.value}>")
    if isinstance(obj, Computation):
        return f"comp-ref<{obj.name}>"
    if isinstance(obj, dict):
        items = ",".join(f"{_stable(k, home)}:{_stable(v, home)}"
                         for k, v in sorted(obj.items(), key=lambda kv:
                                            repr(kv[0])))
        return f"{{{items}}}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_stable(v, home) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_stable(v, home) for v in obj)) + "}"
    return repr(obj)


def _computation_tokens(comp) -> Iterator[str]:
    home = comp.function
    yield f"comp:{type(comp).__name__}:{comp.name}"
    yield f"vars:{','.join(comp.var_names)}"
    yield f"domain:{comp.domain!r}"
    yield f"expr:{comp.expr!r}"
    yield f"predicate:{comp.predicate!r}"
    yield f"dtype:{comp.dtype!r}"
    yield f"inlined:{comp.inlined}"
    # -- Layer II: the affine schedule ---------------------------------
    yield f"time:{','.join(comp.time_names)}"
    yield "rev:" + _stable({nm: repr(le) for nm, le in comp.rev.items()})
    yield f"instances:{comp.instances!r}"
    yield "tags:" + _stable({lvl: repr(tag)
                             for lvl, tag in sorted(comp.tags.items())})
    if comp.anchor is not None:
        anchor_comp, anchor_level = comp.anchor
        yield f"anchor:{anchor_comp.name}@{anchor_level}"
    # -- Layer III: the data layout ------------------------------------
    if isinstance(comp, Operation):
        # Operations have no value/store of their own; their buffers
        # live in the payload.
        yield f"op:{comp.op_kind}"
        yield "payload:" + _stable(comp.payload, home)
    else:
        yield "store:" + _stable([repr(e) for e in comp.store_indices()])
        yield "buffer:" + _stable(comp.get_buffer(), home)
        if comp.cached_reads:
            yield "cached_reads:" + _stable(comp.cached_reads, home)
        if comp.cached_store is not None:
            yield "cached_store:" + _stable(comp.cached_store, home)


def _leaves(obj, out: list, home) -> None:
    """Append what ``_stable(obj, home)`` prints from: a container's
    type, length and items, a buffer's fields, any other object itself
    (IR objects are never mutated, only replaced)."""
    if isinstance(obj, Buffer):
        out += (obj, obj.name, obj.dtype, obj.kind, obj.mem_space,
                obj.owner)
        if not _owned(obj, home):
            _leaves(obj.sizes, out, home)
    elif isinstance(obj, (dict, list, tuple, set, frozenset)):
        out += (type(obj), len(obj))
        for item in (obj.items() if isinstance(obj, dict) else obj):
            _leaves(item, out, home)
    else:
        out.append(obj)


def _inputs(comp, reads) -> list:
    """Everything ``_computation_tokens(comp)`` prints from, flat, so an
    unchanged computation matches its snapshot object for object."""
    rev, tags = comp.rev, comp.tags
    out = [comp.name, comp.domain, comp.expr, comp.predicate, comp.dtype,
           comp.inlined, comp.instances, comp.anchor,
           len(comp.var_names), *comp.var_names,
           len(comp.time_names), *comp.time_names,
           len(rev), *rev, *rev.values(), len(tags), *tags, *tags.values()]
    if isinstance(comp, Operation):
        rest = (reads, comp.op_kind, comp.payload)
    else:
        rest = (reads, comp.store_exprs, comp.get_buffer(),
                comp.cached_reads, comp.cached_store)
    _leaves(rest, out, comp.function)
    return out


def _snapshot(comp, tokens) -> tuple:
    """``(comp, tokens, reads, inputs)``: ``reads`` are the buffers its
    expression and predicate read directly (a ``BufferRead`` prints its
    buffer's current name)."""
    reads = []
    todo = [e for e in (comp.expr, comp.predicate) if e is not None]
    while todo:
        node = todo.pop()
        if type(node) is BufferRead:
            reads.append(node.buffer)
        todo += node.children()
    return comp, tokens, reads, _inputs(comp, reads)


def _head(fn) -> List[str]:
    return [f"fn:{fn.name}", "params:" + ",".join(fn.param_names),
            *(f"order:{kind}:{a.name}:{b.name}:{level}"
              for kind, a, b, level in fn.order_directives)]


def _digest(head, rows, tail) -> str:
    tokens = [*head, *(t for row in rows for t in row[1]), *tail]
    return hashlib.sha256("".join(t + "\0" for t in tokens).encode()
                          ).hexdigest()


class Fingerprint:
    """One function's digest with its tokens kept by computation:
    ``rows`` of ``(comp, tokens)``, a :func:`_snapshot` each once kept."""

    def __init__(self, fn, target: str = "",
                 options: Optional[Dict[str, object]] = None):
        self.fn = fn
        self.head = _head(fn)
        self.rows = [(comp, tuple(_computation_tokens(comp)))
                     for comp in fn.computations]
        self.tail = [f"target:{target}",
                     *(f"opt:{key}={_stable(value)}"
                       for key, value in sorted((options or {}).items()))]
        self.digest = _digest(self.head, self.rows, self.tail)

    def keep(self) -> "Fingerprint":
        """Snapshot what every computation's tokens were printed from
        (when the driver stores an entry under this digest)."""
        self.rows = [_snapshot(*row[:2]) for row in self.rows]
        return self

    def holds(self) -> bool:
        """Whether the function still fingerprints to ``digest``.
        Computations whose inputs match their snapshot keep their tokens;
        the others (all, if never kept) are re-printed, and kept when the
        digest still matches."""
        head, comps = _head(self.fn), self.fn.computations
        changed = head != self.head or len(comps) != len(self.rows)
        rows = []
        for k, comp in enumerate(comps):
            row = self.rows[k] if k < len(self.rows) else None
            if row is not None and len(row) > 2 and row[0] is comp:
                now = _inputs(comp, row[2])
                if len(now) == len(row[3]) and all(map(is_, now, row[3])):
                    rows.append(row)
                    continue
            changed = True
            rows.append(_snapshot(comp, tuple(_computation_tokens(comp))))
        if not changed:
            return True
        if _digest(head, rows, self.tail) != self.digest:
            return False
        self.head, self.rows = head, rows
        return True


def ir_fingerprint(fn, target: str = "",
                   options: Optional[Dict[str, object]] = None) -> str:
    """Stable hash of a function's IR + schedule + target + options."""
    return Fingerprint(fn, target, options).digest
