"""The Tiramisu function: a pipeline of computations plus its schedule.

A :class:`Function` collects computations, ordering directives, and
buffer arguments, resolves the static (β) ordering dimensions, and hands
the result to a backend for code generation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.expr import Expr, ParamRef

from .buffer import ArgKind, Buffer
from .errors import ScheduleError, TiramisuError
from .var import Param

_function_stack: List["Function"] = []


def current_function() -> Optional["Function"]:
    return _function_stack[-1] if _function_stack else None


class Function:
    """A named pipeline (the paper's `tiramisu::function`)."""

    def __init__(self, name: str, params: Sequence[Param] = ()):
        self.name = name
        self.params: List[Param] = list(params)
        self.computations: List = []
        self.order_directives: List[Tuple[str, object, object, int]] = []
        self._beta: Optional[Dict[str, List[Fraction]]] = None
        # repro.core.deps.DependenceSummary.of(self): a memo of analysis
        # results, not part of the function's content.
        self._dependence_summary = None

    def __getstate__(self):
        return dict(self.__dict__, _dependence_summary=None)

    # -- registration -----------------------------------------------------

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def add_param(self, param: Param) -> None:
        if param.name not in self.param_names:
            self.params.append(param)

    def ensure_params_from(self, expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, ParamRef):
                if node.name not in self.param_names:
                    self.params.append(Param(node.name))

    def _register(self, comp) -> None:
        if any(c.name == comp.name for c in self.computations):
            raise TiramisuError(
                f"duplicate computation name {comp.name!r} in {self.name}")
        for v in comp.vars:
            if v.lo is not None:
                self.ensure_params_from(v.lo)
            if v.hi is not None:
                self.ensure_params_from(v.hi)
        self.computations.append(comp)
        self._beta = None

    def _register_clone(self, comp) -> None:
        """Register a computation created by a pass (e.g. separation)
        without rebuilding its domain."""
        if any(c.name == comp.name for c in self.computations):
            raise TiramisuError(
                f"duplicate computation name {comp.name!r} in {self.name}")
        self.computations.append(comp)
        self._beta = None

    def find(self, name: str):
        for c in self.computations:
            if c.name == name:
                return c
        raise KeyError(name)

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Function":
        _function_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _function_stack.pop()

    # -- ordering -----------------------------------------------------------

    def order_after(self, a, b, level: int) -> None:
        """a executes after b; they share loop levels 0..level."""
        self.order_directives.append(("after", a, b, level))
        self._beta = None

    def order_before(self, a, b, level: int) -> None:
        self.order_directives.append(("before", a, b, level))
        self._beta = None

    def sequence(self, *comps) -> None:
        """Order the given computations sequentially at the root level."""
        for prev, nxt in zip(comps, comps[1:]):
            self.order_after(nxt, prev, -1)

    def active_computations(self) -> List:
        return [c for c in self.computations if not c.inlined]

    # -- schedule snapshot / restore ---------------------------------------

    def schedule_snapshot(self) -> Dict[str, object]:
        """Copy of the function-level schedule state: the ordering
        directives plus every computation's time representation.  Pure
        schedule transformations (tile/interchange/fuse/tags) are exactly
        what this covers; commands that create computations (``separate``)
        or rebind buffers are outside its scope."""
        return {
            "order_directives": list(self.order_directives),
            "computations": {c.name: c.schedule_snapshot()
                             for c in self.computations},
        }

    def restore_schedule(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`schedule_snapshot` and
        invalidate the cached β resolution."""
        self.order_directives = list(snapshot["order_directives"])
        saved = snapshot["computations"]
        for c in self.computations:
            snap = saved.get(c.name)
            if snap is not None:
                c.restore_schedule(snap)
        self._beta = None

    def max_depth(self) -> int:
        comps = self.active_computations()
        return max((len(c.time_names) for c in comps), default=0)

    def resolve_order(self) -> Dict[str, List[int]]:
        """Compute the static (β) ordering vector for each computation.

        β has length max_depth + 1; entry k orders computations that
        share loop levels 0..k-1, just before dynamic dim k.  Directives
        are applied in program order; the result is canonicalised to
        small consecutive integers.
        """
        comps = self.active_computations()
        depth = self.max_depth()
        eps = Fraction(1, 1 << 20)
        beta: Dict[str, List[Fraction]] = {}
        for idx, c in enumerate(comps):
            beta[c.name] = [Fraction(idx)] + [Fraction(0)] * depth
        counter = 0
        for kind, a, b, level in self.order_directives:
            if a.inlined or b.inlined:
                continue
            counter += 1
            delta = eps * counter if kind == "after" else -eps * counter
            vec = list(beta[b.name])
            new = vec[:level + 2]  # copy the shared prefix 0..level
            new[level + 1] = vec[level + 1] + delta
            new += [Fraction(0)] * (depth - len(new) + 1)
            beta[a.name] = new
        return self._canonicalize_beta(beta, depth)

    @staticmethod
    def _canonicalize_beta(beta: Dict[str, List[Fraction]], depth: int
                           ) -> Dict[str, List[int]]:
        names = list(beta)
        result: Dict[str, List[int]] = {nm: [0] * (depth + 1)
                                        for nm in names}
        def recurse(group: List[str], level: int) -> None:
            if level > depth:
                return
            values = sorted({beta[nm][level] for nm in group})
            rank = {v: i for i, v in enumerate(values)}
            buckets: Dict[int, List[str]] = {}
            for nm in group:
                r = rank[beta[nm][level]]
                result[nm][level] = r
                buckets.setdefault(r, []).append(nm)
            for members in buckets.values():
                recurse(members, level + 1)
        recurse(names, 0)
        return result

    # -- compilation ----------------------------------------------------------

    def lower(self):
        """Produce the backend-independent AST (Layer IV -> AST)."""
        from repro.codegen.isl_to_ast import generate_ast
        return generate_ast(self)

    def compile(self, target: str = "cpu", **opts):
        """Generate executable code for the given backend.

        Targets resolve through the backend registry
        (:mod:`repro.driver.registry`) and compilation runs the staged
        pipeline (:mod:`repro.driver.pipeline`): repeated calls on an
        unchanged function return the cached kernel, and every kernel
        carries a per-stage ``report`` (see docs/compiler_driver.md).
        Unknown options raise ``TypeError`` naming the offending kwarg.
        """
        from repro.driver import compile_function
        return compile_function(self, target=target, **opts)

    def dump_ir(self) -> str:
        """Textual dump of the four IR layers (paper Section IV)."""
        from .dump import dump_ir
        return dump_ir(self)

    def check_legality(self) -> int:
        """Verify the current schedule preserves all dependences; returns
        the number of dependences checked."""
        from .deps import check_schedule_legality
        return check_schedule_legality(self)

    def ir_fingerprint(self, target: str = "", options=None) -> str:
        """Stable content hash of this function's IR + schedule + layout
        (the compile cache key; see :mod:`repro.driver.fingerprint`)."""
        from repro.driver import ir_fingerprint
        return ir_fingerprint(self, target, options)

    def arguments(self) -> List[Buffer]:
        """Input/output buffers, in declaration order."""
        seen: List[Buffer] = []
        for c in self.computations:
            buf = c.get_buffer()
            if buf not in seen and buf.kind != ArgKind.TEMPORARY:
                seen.append(buf)
        return seen

    def __repr__(self):
        return (f"<Function {self.name}: "
                f"{[c.name for c in self.computations]}>")
