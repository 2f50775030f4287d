"""In-memory span tracer that wraps mwl's layer functions from outside.

`Tracer.install` rebinds each traced function in every loaded `mwl.*`
module where that function object is bound, so names re-imported into
other modules (e.g. `mwl.groupring.laurent_normal_form`,
`mwl.meanlen.orbit_sum`) and module-internal calls go through the
wrapper.  Methods that run millions of times per table
(`ShiftModule._add_items`, `FinAbGroup.reduce`) are not wrapped: their
time stays in the self time of the calling span.

A span records its name, start, end and parent span; spans stay in
compact arrays until the pass ends.  Self time is a span's duration
minus the time its child spans cover.  Counters are recorded by hooks at
the same boundaries; a hook's own time is recorded as a `trace.count`
child span, so no layer is charged for it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from itertools import chain

# span name -> (module, function).  The layer is the part before the first dot.
SPANS = {
    "intmat.snf": ("mwl.intmat", "smith_normal_form"),
    "intmat.hnf": ("mwl.intmat", "hermite_form"),
    "intmat.row_basis": ("mwl.intmat", "row_basis"),
    "intmat.solve_left": ("mwl.intmat", "solve_left"),
    "intmat.left_kernel": ("mwl.intmat", "left_kernel"),
    "intmat.invert_unimodular": ("mwl.intmat", "invert_unimodular"),
    "intmat.lattice_intersection": ("mwl.intmat", "lattice_intersection"),
    "intmat.matmul": ("mwl.intmat", "matmul"),
    "finabelian.present": ("mwl.finabelian", "presentation_from_relations"),
    "finabelian.subgroup_generated": ("mwl.finabelian", "subgroup_generated"),
    "finabelian.quotient_group": ("mwl.finabelian", "quotient_group"),
    "finabelian.hom_kernel": ("mwl.finabelian", "hom_kernel"),
    "finabelian.hom_image": ("mwl.finabelian", "hom_image"),
    "finabelian.torsion_k": ("mwl.finabelian", "torsion_k"),
    "finabelian.direct_sum": ("mwl.finabelian", "direct_sum"),
    "finabelian.direct_sum_many": ("mwl.finabelian", "direct_sum_many"),
    "finabelian.intersect_subgroups": ("mwl.finabelian", "intersect_subgroups"),
    "subsets.minkowski": ("mwl.subsets", "minkowski_sum"),
    "subsets.difference": ("mwl.subsets", "difference_set"),
    "groupring.orbit_sum": ("mwl.groupring", "orbit_sum"),
    "groupring.translate": ("mwl.groupring", "gr_translate"),
    "groupring.embed": ("mwl.groupring", "embed_subset"),
    "laurent.nf": ("mwl.laurent", "laurent_normal_form"),
    "weaklength.eval": ("mwl.weaklength", "eval_weak_length"),
    "weaklength.check": ("mwl.weaklength", "check_axiom"),
    "meanlen.eval": ("mwl.meanlen", "eval_module_subset"),
    "meanlen.table": ("mwl.meanlen", "ratio_sequence"),
    "meanlen.addition": ("mwl.meanlen", "addition_report"),
    "bivariant.cover": ("mwl.bivariant", "cover_bivariant"),
    "bivariant.quotient": ("mwl.bivariant", "quotient_bivariant"),
    "bivariant.check": ("mwl.bivariant", "check_upgrading_proper"),
    "sampling.random_finite_group": ("mwl.sampling", "random_finite_group"),
    "sampling.random_element": ("mwl.sampling", "random_element"),
    "sampling.random_subset": ("mwl.sampling", "random_subset"),
    "sampling.random_hom": ("mwl.sampling", "random_hom"),
    "sampling.random_automorphism": ("mwl.sampling", "random_automorphism"),
    "sampling.kernel_elements": ("mwl.sampling", "kernel_elements"),
    "sampling.torsion_elements": ("mwl.sampling", "torsion_elements"),
    "values.value_add": ("mwl.values", "value_add"),
    "values.value_cmp": ("mwl.values", "value_cmp"),
    "values.value_le": ("mwl.values", "value_le"),
    "values.ratio_cmp": ("mwl.values", "ratio_cmp"),
    "values.ratio_le": ("mwl.values", "ratio_le"),
    "values.ratio_eq": ("mwl.values", "ratio_eq"),
    "values.ratio_add": ("mwl.values", "ratio_add"),
    "values.ratio_min": ("mwl.values", "ratio_min"),
    "values.render_float": ("mwl.values", "render_float"),
    "cli.run": ("mwl.cli", "run"),
}
COUNT_SPAN = "trace.count"
CAP_FLAG = 1
# spans whose cap failure throws away the work done inside them
_CAP_SPANS = ("subsets.minkowski", "groupring.orbit_sum")


def _max_bits(*matrices) -> int:
    top = max((abs(x) for x in chain.from_iterable(chain.from_iterable(matrices))), default=0)
    return top.bit_length()


class Tracer:
    def __init__(self):
        self.names = list(SPANS) + [COUNT_SPAN]
        self.sid = {name: i for i, name in enumerate(self.names)}
        self.layer = [name.split(".")[0] for name in self.names]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self.stack = []
        self.counts = dict.fromkeys([
            "intmat.max_cells", "intmat.max_entry_bits", "subsets.minkowski.pairs",
            "subsets.minkowski.out", "bivariant.cover.candidates", "meanlen.rows.enumerated",
            "meanlen.rows.certified", "meanlen.rows.truncated", "meanlen.orbit_elems",
            "weaklength.check.instances", "bivariant.check.instances"], 0)
        self.hooks = {
            "intmat.snf": self._matrix_hook,
            "intmat.hnf": self._matrix_hook,
            "subsets.minkowski": self._minkowski_hook,
            "subsets.difference": self._difference_hook,
            "groupring.orbit_sum": self._orbit_hook,
            "meanlen.table": self._table_hook,
            "weaklength.check": self._instances_hook("weaklength.check.instances"),
            "bivariant.check": self._instances_hook("bivariant.check.instances"),
        }

    # -- installation -----------------------------------------------------

    def install(self):
        from mwl.errors import SetSizeLimitError

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mwl" or key.startswith("mwl."))]
        for name, (module_name, attr) in SPANS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(self.sid[name], original, self.hooks.get(name), SetSizeLimitError)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, sid, fn, hook, cap_error):
        name, parent_of, start, end, flag, stack = (
            self.name, self.parent, self.start, self.end, self.flag, self.stack)
        now = time.perf_counter_ns
        count_sid = self.sid[COUNT_SPAN]

        def traced(*args, **kwargs):
            idx = len(start)
            parent = stack[-1] if stack else -1
            name.append(sid)
            parent_of.append(parent)
            flag.append(0)
            end.append(0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            except cap_error:
                end[idx] = now()
                stack.pop()
                flag[idx] = CAP_FLAG
                raise
            except BaseException:
                end[idx] = now()
                stack.pop()
                raise
            end[idx] = now()
            stack.pop()
            if hook is not None:
                t0 = now()
                hook(parent, args, result)
                self._record(count_sid, parent, t0, now())
            return result

        return traced

    def _record(self, sid, parent, t0, t1):
        self.name.append(sid)
        self.parent.append(parent)
        self.flag.append(0)
        self.start.append(t0)
        self.end.append(t1)

    def _parent_is(self, parent, span):
        return parent >= 0 and self.name[parent] == self.sid[span]

    # -- counters -----------------------------------------------------------

    def _matrix_hook(self, parent, args, result):
        m = args[0]
        c = self.counts
        c["intmat.max_cells"] = max(c["intmat.max_cells"], len(m) * (len(m[0]) if m else 0))
        c["intmat.max_entry_bits"] = max(c["intmat.max_entry_bits"], _max_bits(m, *result))

    def _minkowski_hook(self, parent, args, result):
        self.counts["subsets.minkowski.pairs"] += len(args[0]) * len(args[1])
        self.counts["subsets.minkowski.out"] += len(result)

    def _difference_hook(self, parent, args, result):
        if self._parent_is(parent, "bivariant.cover"):
            self.counts["bivariant.cover.candidates"] += len(result)

    def _orbit_hook(self, parent, args, result):
        if self._parent_is(parent, "meanlen.table"):
            self.counts["meanlen.orbit_elems"] += len(result)

    def _table_hook(self, parent, args, result):
        for row in result.rows:
            key = f"meanlen.rows.{row.method}"
            self.counts[key] = self.counts.get(key, 0) + 1
        if result.truncated_at is not None:
            self.counts["meanlen.rows.truncated"] += 1

    def _instances_hook(self, key):
        def hook(parent, args, result):
            self.counts[key] += result.checked
        return hook

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics: counts are exact, times are in seconds."""
        n = len(self.start)
        name, parent, start, end, flag, layer = (
            self.name, self.parent, self.start, self.end, self.flag, self.layer)
        dur = [end[i] - start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        entries = {}
        layer_self = {}
        for i in range(n):
            sid = name[i]
            calls[sid] += 1
            own = dur[i] - covered[i]
            self_ns[sid] += own
            lay = layer[sid]
            layer_self[lay] = layer_self.get(lay, 0) + own
            p = parent[i]
            if p < 0 or layer[name[p]] != lay:
                entries[lay] = entries.get(lay, 0) + 1

        sid = self.sid
        cap_sids = {sid[s] for s in _CAP_SPANS}
        minkowski = sid["subsets.minkowski"]
        cap_hits = sum(1 for i in range(n) if name[i] == minkowski and flag[i] == CAP_FLAG)
        wasted = sum(dur[i] for i in range(n)
                     if name[i] in cap_sids and flag[i] == CAP_FLAG
                     and not (parent[i] >= 0 and name[parent[i]] in cap_sids
                              and flag[parent[i]] == CAP_FLAG))
        cover = sid["bivariant.cover"]
        cover_max = max((dur[i] for i in range(n) if name[i] == cover), default=0)

        def fn_calls(span):
            return calls[sid[span]]

        def fn_self(span):
            return self_ns[sid[span]] / 1e9

        c = self.counts
        pairs = c["subsets.minkowski.pairs"]
        return {
            "intmat.calls": entries.get("intmat", 0),
            "intmat.self_s": layer_self.get("intmat", 0) / 1e9,
            "intmat.snf.calls": fn_calls("intmat.snf"),
            "intmat.snf.self_s": fn_self("intmat.snf"),
            "intmat.hnf.calls": fn_calls("intmat.hnf"),
            "intmat.hnf.self_s": fn_self("intmat.hnf"),
            "intmat.max_cells": c["intmat.max_cells"],
            "intmat.max_entry_bits": c["intmat.max_entry_bits"],
            "finabelian.calls": entries.get("finabelian", 0),
            "finabelian.self_s": layer_self.get("finabelian", 0) / 1e9,
            "finabelian.present.calls": fn_calls("finabelian.present"),
            "finabelian.present.self_s": fn_self("finabelian.present"),
            "subsets.minkowski.calls": fn_calls("subsets.minkowski"),
            "subsets.minkowski.self_s": fn_self("subsets.minkowski"),
            "subsets.minkowski.pairs": pairs,
            "subsets.minkowski.out": c["subsets.minkowski.out"],
            "subsets.minkowski.yield": c["subsets.minkowski.out"] / pairs if pairs else 0.0,
            "subsets.cap_hits": cap_hits,
            "subsets.cap_wasted_s": wasted / 1e9,
            "groupring.orbit_sum.calls": fn_calls("groupring.orbit_sum"),
            "groupring.orbit_sum.self_s": fn_self("groupring.orbit_sum"),
            "groupring.translate.calls": fn_calls("groupring.translate"),
            "groupring.translate.self_s": fn_self("groupring.translate"),
            "groupring.embed.calls": fn_calls("groupring.embed"),
            "groupring.embed.self_s": fn_self("groupring.embed"),
            "laurent.nf.calls": fn_calls("laurent.nf"),
            "laurent.nf.self_s": fn_self("laurent.nf"),
            "weaklength.eval.calls": fn_calls("weaklength.eval"),
            "weaklength.eval.self_s": fn_self("weaklength.eval"),
            "weaklength.check.instances": c["weaklength.check.instances"],
            "weaklength.check.self_s": fn_self("weaklength.check"),
            "meanlen.rows.enumerated": c["meanlen.rows.enumerated"],
            "meanlen.rows.certified": c["meanlen.rows.certified"],
            "meanlen.rows.truncated": c["meanlen.rows.truncated"],
            "meanlen.orbit_elems": c["meanlen.orbit_elems"],
            "meanlen.eval.self_s": fn_self("meanlen.eval"),
            "meanlen.table.self_s": fn_self("meanlen.table"),
            "meanlen.addition.self_s": fn_self("meanlen.addition"),
            "bivariant.cover.calls": fn_calls("bivariant.cover"),
            "bivariant.cover.self_s": fn_self("bivariant.cover"),
            "bivariant.cover.candidates": c["bivariant.cover.candidates"],
            "bivariant.cover.max_s": cover_max / 1e9,
            "bivariant.quotient.calls": fn_calls("bivariant.quotient"),
            "bivariant.quotient.self_s": fn_self("bivariant.quotient"),
            "bivariant.check.instances": c["bivariant.check.instances"],
            "sampling.calls": entries.get("sampling", 0),
            "sampling.self_s": layer_self.get("sampling", 0) / 1e9,
            "values.calls": entries.get("values", 0),
            "values.self_s": layer_self.get("values", 0) / 1e9,
            "cli.self_s": layer_self.get("cli", 0) / 1e9,
        }

    def write_spans(self, path):
        """All spans of the pass as gzipped JSON columns, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "cap_hit": self.flag.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
