"""Spans around the package's public functions, kept in memory.

``Tracer.install`` replaces every public function of the ``seifert``
modules at every place the package binds its name (``seifert.structure``
imports ``validate_action_spec`` from ``seifert.actions``, so both
bindings are wrapped), plus the table check that runs whenever a
``FiniteGroup`` is built.  Each call records a span: name, start, end,
parent span and the operation it belongs to.  Leaf helpers called from
inner loops (``SKIP``) stay unwrapped; their time is their caller's.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import types

SKIP = {"mod1", "word", "parse_fraction_text", "format_fraction"}

# per-layer time metrics: self time summed over these spans, per pass
LAYER_TIMES = {
    "homology.snf_s": ("homology.smith_normal_form",),
    "presentations.pi1_s": ("presentations.pi1_orientable", "presentations.pi1_nonorientable",
                            "presentations.orbifold_pi1"),
    "presentations.abelianize_s": ("presentations.abelianize",),
    "symbols.parse_s": ("symbols.parse_symbol",),
    "symbols.cover_s": ("symbols.orientable_double_cover", "symbols.base_quotient"),
    "groups.build_s": ("groups.FiniteGroup", "groups.cyclic_group", "groups.direct_product",
                       "groups.group_from_constructor", "groups.parse_group_text"),
    "groups.hom_check_s": ("groups.is_homomorphism", "groups.is_injective"),
    "actions.parse_s": ("actions.parse_action_spec_text", "actions.parse_descriptor_text",
                        "actions.load_action_spec", "actions.load_descriptor"),
    "actions.validate_s": ("actions.validate_action_spec",),
    "actions.tau_s": ("actions.check_tau_commuting",),
    "actions.project_s": ("actions.project_action",),
    "actions.descriptor_validate_s": ("actions.validate_descriptor",),
    "actions.lift_s": ("actions.lift_action",),
    "actions.format_s": ("actions.format_action_spec", "actions.format_descriptor"),
    "actions.orbits_s": ("actions.beta_orbit_numbers",),
    "structure.analyze_s": ("structure.analyze_structure",),
}

def _snf_info(args, result):
    if result is None:
        return [0, 0]
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    return [cells, sum(abs(d).bit_length() for d in result)]


def _group_info(args, result):
    return len(args[0].table)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, info]
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if info is not None:
                    span[5] = info(args, result)
        return traced

    def install(self):
        wrapped = {}
        modules = [m for name, m in sys.modules.items()
                   if name == "seifert" or name.startswith("seifert.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("seifert")
                        or value.__name__ in SKIP):
                    continue
                if value not in wrapped:
                    short = value.__module__.rsplit(".", 1)[-1]
                    info = _snf_info if value.__name__ == "smith_normal_form" else None
                    wrapped[value] = self._wrap(f"{short}.{value.__name__}", value, info)
                setattr(module, attr, wrapped[value])
                self._undo.append((module, attr, value))
        group_cls = sys.modules["seifert.groups"].FiniteGroup
        check = group_cls.__post_init__
        group_cls.__post_init__ = self._wrap("groups.FiniteGroup", check, _group_info)
        self._undo.append((group_cls, "__post_init__", check))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def records(spans) -> list[tuple]:
    """(name, duration, self time, info) per span.  A span's self time is
    its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[2] - s[1], s[2] - s[1] - child[k], s[5]) for k, s in enumerate(spans)]


def layer_metrics(recs) -> dict[str, float]:
    """Per-layer figures of one pass."""
    by_name: dict[str, list[tuple]] = {}
    for rec in recs:
        by_name.setdefault(rec[0], []).append(rec)
    out = {metric: sum((r[2] for name in names for r in by_name.get(name, ())), 0.0)
           for metric, names in LAYER_TIMES.items()}
    snf = by_name.get("homology.smith_normal_form", [])
    out["homology.snf_max_ms"] = max((r[1] for r in snf), default=0.0) * 1e3
    out["homology.snf_calls"] = len(snf)
    out["homology.snf_cells"] = sum(r[3][0] for r in snf)
    out["homology.out_bits"] = sum(r[3][1] for r in snf)
    groups = by_name.get("groups.FiniteGroup", [])
    out["groups.builds"] = len(groups)
    out["groups.cells"] = sum(r[3] ** 2 for r in groups)
    out["actions.validate_calls"] = len(by_name.get("actions.validate_action_spec", []))
    mains = [r[2] for r in by_name.get("cli.main", [])]
    out["cli.main_ms"] = statistics.median(mains) * 1e3 if mains else 0.0
    return out
