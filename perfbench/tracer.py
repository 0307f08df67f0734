"""Per-layer spans recorded from outside the program.

The tracer wraps public functions and methods of ``polydegen`` in the
running interpreter; no file of the package changes.  Module functions are
replaced under every name a ``polydegen`` module binds them to, because the
CLI and the document layer import their callees by name: wrapping only the
defining module would leave those calls unseen.  The term kernel is wrapped
on ``polydegen._kernel``, the module ``multipoly`` calls it through.

Each span adds its duration to its parent's child time, so a layer's self
time is its own time minus that of the wrapped layers it called.  Inclusive
time counts only the outermost call of a layer, so recursion is not counted
twice.

Which end-to-end metric each per-layer metric should move, and where:

========================================  ===================================
kernel.calls, kernel.self_s,              wall_s and cpu_s on every workload,
kernel.mul_term_products,                 most on smith
kernel.max_result_terms
endo.compose.calls, endo.compose.incl_s,  wall_s, slowest_cmd_s, peak_rss_mb
endo.max_image_terms                      on smith; less on fibers
derivation.exp.incl_s,                    wall_s on fibers (the family build)
derivation.sigma.incl_s,
derivation.apply.calls
multipoly.substitute.incl_s,              wall_s on fibers and smith
multipoly.specialize_t.incl_s
certificates.specialized_tameness.incl_s, wall_s on fibers
certificates.check_wild_at_zero.incl_s,
certificates.factor_kind.calls
certificates.build_stabilization.incl_s   wall_s and slowest_cmd_s on smith
family.build_family.incl_s                wall_s on fibers
parsing.parse_poly.calls, .self_s,        wall_s on verify; on fibers and
parsing.chars                             smith through emission's reparse
render.self_s, documents.output_bytes     wall_s on fibers
documents.verify_document.incl_s          wall_s on verify
documents.emit_verify_s                   fibers and smith, not verify
documents.identities                      every workload (entries checked)
cli.main.incl_s, trace.overhead_s         the traced in-process total and
                                          what tracing adds to it
========================================  ===================================
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Per-layer metrics in report order.  A name ``<layer>.calls``,
# ``<layer>.self_s`` or ``<layer>.incl_s`` reads that field of the layer's
# spans; any other name is a counter kept by the hooks below.
PER_LAYER = (
    "kernel.calls",
    "kernel.mul_term_products",
    "kernel.max_result_terms",
    "endo.compose.calls",
    "endo.max_image_terms",
    "derivation.apply.calls",
    "certificates.factor_kind.calls",
    "parsing.parse_poly.calls",
    "parsing.chars",
    "documents.output_bytes",
    "documents.identities",
    "kernel.self_s",
    "endo.compose.incl_s",
    "derivation.exp.incl_s",
    "derivation.sigma.incl_s",
    "multipoly.substitute.incl_s",
    "multipoly.specialize_t.incl_s",
    "certificates.specialized_tameness.incl_s",
    "certificates.check_wild_at_zero.incl_s",
    "certificates.build_stabilization.incl_s",
    "family.build_family.incl_s",
    "parsing.parse_poly.self_s",
    "render.self_s",
    "documents.verify_document.incl_s",
    "documents.emit_verify_s",
    "cli.main.incl_s",
    "trace.overhead_s",  # filled in by the caller, from untraced passes
)


def unit(name: str) -> str:
    """Times end in ``_s``; everything else is an exact count."""
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


_EMIT_BUILDERS = ("family_document", "conjugation_document", "wildness_document",
                  "word_document", "stabilization_document")


class _Layer:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Spans and counters for one traced pass; ``install`` wraps, ``remove`` unwraps."""

    def __init__(self):
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.layers.clear()
        self.counters.clear()

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, after=None):
        layers, stack = self.layers, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            layer = layers[name]
            frame = [0.0]
            stack.append(frame)
            layer.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.depth -= 1
                if stack:
                    stack[-1][0] += elapsed
                layer.calls += 1
                layer.self_s += elapsed - frame[0]
                if not layer.depth:
                    layer.incl_s += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper) -> int:
        """Rebind every ``polydegen`` module name that refers to ``fn``."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polydegen" and not mod_name.startswith("polydegen."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)
                    bound += 1
        return bound

    def install(self) -> None:
        from polydegen import _kernel, certificates, derivation, documents, endo, family
        from polydegen import cli, multipoly, parsing

        counters = self.counters

        def kernel_result(args, result, _):
            if len(result) > counters["kernel.max_result_terms"]:
                counters["kernel.max_result_terms"] = len(result)

        def mul_result(args, result, elapsed):
            counters["kernel.mul_term_products"] += len(args[0]) * len(args[1])
            kernel_result(args, result, elapsed)

        for op in ("add_terms", "sub_terms", "neg_terms", "scale_terms"):
            self._patch(_kernel, op, self._wrap("kernel", getattr(_kernel, op), kernel_result))
        self._patch(_kernel, "mul_terms", self._wrap("kernel", _kernel.mul_terms, mul_result))

        def compose_result(args, result, _):
            biggest = max(img.term_count() for img in result.images)
            if biggest > counters["endo.max_image_terms"]:
                counters["endo.max_image_terms"] = biggest

        methods = (
            (endo.PolyEndo, "compose", "endo.compose", compose_result),
            (derivation.TriangularDerivation, "exp", "derivation.exp", None),
            (derivation.TriangularDerivation, "sigma", "derivation.sigma", None),
            (derivation.TriangularDerivation, "apply", "derivation.apply", None),
            (multipoly.MultiPoly, "substitute", "multipoly.substitute", None),
            (multipoly.MultiPoly, "specialize_t", "multipoly.specialize_t", None),
            (multipoly.MultiPoly, "__str__", "render", None),
        )
        for cls, attr, name, after in methods:
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr], after))

        def parsed(args, result, _):
            counters["parsing.chars"] += len(args[0])

        def dumped(args, result, _):
            counters["documents.output_bytes"] += len(result.encode("utf-8"))

        def verified(args, result, elapsed):
            counters["documents.identities"] += len(result)
            if self.layers["documents.emit"].depth:
                counters["documents.emit_verify_s"] += elapsed

        functions = [
            (certificates.specialized_tameness, "certificates.specialized_tameness", None),
            (certificates.check_wild_at_zero, "certificates.check_wild_at_zero", None),
            (certificates.factor_kind, "certificates.factor_kind", None),
            (certificates.build_stabilization, "certificates.build_stabilization", None),
            (family.build_family, "family.build_family", None),
            (parsing.parse_poly, "parsing.parse_poly", parsed),
            (documents.dumps, "render", dumped),
            (documents.verify_document, "documents.verify_document", verified),
            (cli.main, "cli.main", None),
        ]
        functions += [(getattr(documents, b), "documents.emit", None) for b in _EMIT_BUILDERS]
        for fn, name, after in functions:
            if not self._patch_everywhere(fn, self._wrap(name, fn, after)):
                raise RuntimeError(f"no binding of {fn.__qualname__} to wrap for {name}")

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def hit(self) -> set[str]:
        """Layers entered at least once since the last reset."""
        return {name for name, layer in self.layers.items() if layer.calls}

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_s``, since the last reset."""
        out = {}
        for name in PER_LAYER[:-1]:
            layer, _, attr = name.rpartition(".")
            if attr in ("calls", "self_s", "incl_s"):
                out[name] = getattr(self.layers[layer], attr)
            else:
                out[name] = self.counters[name]
        return out
