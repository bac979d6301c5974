"""The compile context: what flows between pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CompileContext:
    """Mutable state threaded through one run of the compile pipeline.

    Each stage reads its inputs from here and writes its product back:
    ``beta`` (beta-resolution), ``items`` (time-space domains), ``ast``
    (AST generation), ``source`` (backend emit) and ``kernel`` (bind).
    ``lanes_verified`` is the race-check stage's verdict on ``vector``
    tags (True: every such level carries no dependence), which emit
    reuses.  ``extras`` holds backend-specific products (e.g. the GPU
    backend's launch info).  ``deadline`` is the request's end-to-end
    budget (:class:`repro.driver.resilience.Deadline`, or None) — the ambient
    deadline captured at ``_begin`` so stages holding only the context
    can still charge it.
    """

    fn: object                               # repro.core.Function
    target: str
    options: Dict[str, object]
    backend: object = None                   # repro.driver.registry.Backend
    report: object = None                    # repro.driver.trace.CompileReport
    deadline: object = None                  # repro.driver.resilience.Deadline
    fingerprint: str = ""
    prints: object = None                    # the Fingerprint behind it
    beta: Optional[Dict[str, List[int]]] = None
    items: Optional[list] = None             # codegen time-space items
    ast: object = None                       # repro.codegen.ast.Block
    lanes_verified: bool = False             # race-check covered vector tags
    source: Optional[str] = None
    kernel: object = None
    extras: Dict[str, object] = field(default_factory=dict)

    def opt(self, name: str, default=None):
        return self.options.get(name, default)
