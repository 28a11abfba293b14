"""Span tracer that wraps moefy's public functions from outside the package.

The benchmark never edits the program: `Tracer.install()` replaces each
target function with a timing wrapper in every `moefy.*` module namespace
that holds a reference to it (modules import functions by name, so patching
only the defining module would miss most call sites), and `uninstall()`
puts the originals back. A target that does not exist at the commit under
test is skipped and listed in `absent`.

Spans are aggregated in memory by (phase, parent, name): call count, total
seconds and self seconds (total minus the part covered by traced children).
The benchmark sets `phase` around each call into the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("numerics", "matmul"),
    ("autograd", "Tensor.backward"),
    ("model", "forward_lm"),
    ("routing", "router_scores"),
    ("routing", "moe_forward_discrete"),
    ("routing", "soft_ffn_graph"),
    ("routing", "discrete_ffn_graph"),
    ("sparse_exec", "sparse_ffn_forward"),
    ("sparse_exec", "pack"),
    ("losses", "task_loss"),
    ("losses", "aux_loss_graph"),
    ("training", "train_step"),
    ("training", "sample_batch"),
    ("training", "collect_gradients"),
    ("training", "clip_gradients"),
    ("training", "optimizer_step"),
    ("grouping", "group_experts_kmeans"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("analysis", "evaluate"),
    ("analysis", "collect_decisions"),
)

ROOT_PARENT = "-"
PACKAGE = "moefy"


class Tracer:
    """Aggregating span recorder; one caller thread, spans strictly nested."""

    def __init__(self, targets: tuple = TARGETS):
        self.targets = targets
        self.enabled = False
        self.phase = "none"
        self.absent: list[str] = []
        # (phase, parent, name) -> [calls, total_s, self_s]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # spans whose traced children summed to more than the span itself
        self.violations = 0
        # name -> fn(phase, args, kwargs, result); run only while enabled
        self.observers: dict = {}
        self._stack: list[list] = []  # [name, child_seconds] per open span
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for mod_name, path in self.targets:
            label = f"{mod_name}.{path.split('.')[-1]}"
            owner = mods.get(f"{PACKAGE}.{mod_name}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(label)
                continue
            wrapped = self._wrap(label, original)
            if len(parts) > 1:  # a method: patch the class attribute
                self._patch(owner, parts[-1], original, wrapped)
                continue
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _wrap(self, label: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                if frame[1] > dt:
                    tracer.violations += 1
                rec = tracer.spans[(tracer.phase, parent[0] if parent else ROOT_PARENT, label)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            observer = tracer.observers.get(label)
            if observer is not None:
                observer(tracer.phase, args, kwargs, result)
            return result

        return traced

    # -- queries ---------------------------------------------------------

    def totals(self, phase: str, label: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of `label` in `phase`, all parents."""
        calls, total, own = 0, 0.0, 0.0
        for (ph, _parent, name), (c, t, s) in self.spans.items():
            if ph == phase and name == label:
                calls += c
                total += t
                own += s
        return calls, total, own

    def has(self, label: str) -> bool:
        return label not in self.absent

    def span_table(self) -> list[dict]:
        return [
            {"phase": ph, "parent": parent, "name": name, "calls": c,
             "total_s": t, "self_s": s}
            for (ph, parent, name), (c, t, s) in sorted(self.spans.items())
        ]
