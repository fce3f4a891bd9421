"""Per-layer tracing of ``brq`` from outside the package.

``install()`` wraps the public functions and methods named in ``LAYERS``.
A wrapped module-level function is replaced under every name that holds it
in every loaded ``brq`` module, because the modules import each other's
names with ``from .x import y``.  A method is replaced on its class.

Each wrapper belongs to a bucket.  A bucket's inclusive time counts only
its outermost calls, so nested calls inside one bucket are not counted
twice.  A bucket's self time is the wrapper's duration minus the time spent
in wrapped callees of any bucket.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _bar_unknowns(module):
    group = module.group
    return len(group.generators) * (group.order - 1) * module.rank


def _matrix_entries(matrix):
    rows = matrix.to_lists() if hasattr(matrix, "to_lists") else matrix
    return len(rows) * (len(rows[0]) if rows else 0)


def _solve_counts(module, *args, **kwargs):
    return {"cohomology.h2_solves": 1, "cohomology.bar_unknowns": _bar_unknowns(module)}


# (module, attribute, bucket, counters fed from the call, counters fed from
# the result).  An attribute "Class.method" names a method.  A counter hook
# returns {counter name: increment}.
LAYERS = [
    ("brq.groups", "FiniteGroup.__init__", "groups.build", None, None),
    ("brq.groups", "from_cayley_table", "groups.build", None, None),
    ("brq.groups", "from_permutation_generators", "groups.build", None, None),
    ("brq.groups", "cyclic_group", "groups.build", None, None),
    ("brq.groups", "direct_product", "groups.build", None, None),
    ("brq.groups", "semidirect_product", "groups.build", None, None),
    ("brq.groups", "central_extension_from_cocycle", "groups.build", None, None),
    ("brq.groups", "quotient_group", "groups.build", None, None),
    ("brq.groups", "bicyclic_subgroups", "groups.bicyclic", None,
     lambda subs: {"groups.bicyclic_count": len(subs)}),
    ("brq.cohomology", "h2", "cohomology.solve", _solve_counts, None),
    ("brq.cohomology", "h1", "cohomology.solve", _solve_counts, None),
    ("brq.cohomology", "h2_qz", "cohomology.solve",
     lambda *a, **k: {"cohomology.qz_solves": 1}, None),
    ("brq.cohomology", "h2_qz_cached", "cohomology.cache", None, None),
    ("brq.cohomology", "subgroup_h2_qz", "cohomology.cache", None, None),
    ("brq.cohomology", "CohomologyGroup.reduce", "cohomology.reduce", None, None),
    ("brq.cohomology", "restrict_qz_class", "cohomology.transfer", None, None),
    ("brq.cohomology", "corestrict_qz_class", "cohomology.transfer", None, None),
    ("brq._fastlinalg", "HowellAccumulator.ingest", "fastlinalg.ingest",
     lambda self, chunk: {"fastlinalg.ingest_rows": len(chunk)}, None),
    ("brq._fastlinalg", "kernel_mod_fast", "fastlinalg.kernel", None, None),
    ("brq.linalg", "subquotient_structure", "linalg.subquotient", None, None),
    ("brq.linalg", "smith_normal_form", "linalg.snf",
     lambda matrix: {"linalg.snf_entries": _matrix_entries(matrix)}, None),
    ("brq.linalg", "howell_rows", "linalg.howell", None, None),
    ("brq.linalg", "quotient_of_structure", "linalg.quotient", None, None),
    ("brq.brauer", "bogomolov_multiplier", "brauer.engine", None, None),
    ("brq.brauer", "br_nr_linear", "brauer.engine", None, None),
    ("brq.brauer", "br_nr_projective", "brauer.engine", None, None),
    ("brq.brauer", "br_nr_grassmannian", "brauer.engine", None, None),
    ("brq.brauer", "br_nr_flag", "brauer.engine", None, None),
    ("brq.brauer", "br_nr_toric", "brauer.engine", None, None),
    ("brq.brauer", "br_stack_quotient", "brauer.engine", None, None),
    ("brq.brauer", "br_stack_fixed_point", "brauer.engine", None, None),
    ("brq.brauer", "stack_fixed_point_report", "brauer.engine", None, None),
    ("brq.brauer", "gamma_from_projective_action", "brauer.gamma", None, None),
    ("brq.brauer", "correlation_action", "brauer.gamma", None, None),
    ("brq.brauer", "plucker_beta", "brauer.gamma", None, None),
    ("brq.cyclotomic", "CycloMatrix.__mul__", "cyclotomic.matmul", None, None),
    ("brq.iodoc", "load_document", "iodoc.parse", None, None),
    ("brq.iodoc", "parse_group", "iodoc.parse", None, None),
    ("brq.iodoc", "parse_module", "iodoc.parse", None, None),
    ("brq.iodoc", "parse_action_document", "iodoc.parse", None, None),
    ("brq.reports", "BrauerReport.to_json_dict", "reports.render", None, None),
    ("brq.reports", "BrauerReport.to_json", "reports.render", None, None),
    ("brq.reports", "BrauerReport.to_text", "reports.render", None, None),
]


class Tracer:
    """Inclusive time, self time and call counts per bucket, plus counters."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._child_time = []  # one accumulator per open wrapper

    def _add(self, increments):
        for key, value in increments.items():
            self.counts[key] += value

    def wrap(self, fn, bucket, on_call=None, on_result=None):
        tracer = self
        is_cache = bucket == "cohomology.cache"

        def wrapper(*args, **kwargs):
            tracer.calls[bucket] += 1
            if on_call is not None:
                tracer._add(on_call(*args, **kwargs))
            solves_before = tracer.counts["cohomology.qz_solves"]
            outermost = tracer._depth[bucket] == 0
            tracer._depth[bucket] += 1
            tracer._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._depth[bucket] -= 1
                inner = tracer._child_time.pop()
                tracer.self_time[bucket] += elapsed - inner
                if outermost:
                    tracer.inclusive[bucket] += elapsed
                if tracer._child_time:
                    tracer._child_time[-1] += elapsed
            if is_cache:
                # a cache call misses when it reached h2_qz
                missed = tracer.counts["cohomology.qz_solves"] > solves_before
                tracer.counts["cohomology.cache_misses" if missed
                              else "cohomology.cache_hits"] += 1
            if on_result is not None:
                tracer._add(on_result(result))
            return result

        return wrapper

    def install(self):
        """Wrap every entry of LAYERS in the loaded ``brq`` modules."""
        loaded = {name: mod for name, mod in sys.modules.items()
                  if mod is not None and (name == "brq" or name.startswith("brq."))}
        for mod_name, attr, bucket, on_call, on_result in LAYERS:
            module = loaded[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, bucket, on_call, on_result))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, bucket, on_call, on_result)
            replaced = 0
            for mod in loaded.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"{mod_name}.{attr} was not found to wrap")

    def metrics(self):
        """The per-layer metrics of the benchmark, by name."""
        inc, slf, calls, counts = self.inclusive, self.self_time, self.calls, self.counts
        return {
            "groups.build_s": inc["groups.build"],
            "groups.bicyclic_s": inc["groups.bicyclic"],
            "groups.bicyclic_count": counts["groups.bicyclic_count"],
            "cohomology.h2_solves": counts["cohomology.h2_solves"],
            "cohomology.bar_unknowns": counts["cohomology.bar_unknowns"],
            "cohomology.solve_self_s": slf["cohomology.solve"],
            "cohomology.cache_hits": counts["cohomology.cache_hits"],
            "cohomology.cache_misses": counts["cohomology.cache_misses"],
            "cohomology.reduce_calls": calls["cohomology.reduce"],
            "cohomology.reduce_s": inc["cohomology.reduce"],
            "cohomology.transfer_s": inc["cohomology.transfer"],
            "fastlinalg.ingest_s": inc["fastlinalg.ingest"],
            "fastlinalg.ingest_rows": counts["fastlinalg.ingest_rows"],
            "fastlinalg.kernel_s": inc["fastlinalg.kernel"],
            "linalg.subquotient_self_s": slf["linalg.subquotient"],
            "linalg.subquotient_calls": calls["linalg.subquotient"],
            "linalg.snf_s": inc["linalg.snf"],
            "linalg.snf_entries": counts["linalg.snf_entries"],
            "linalg.howell_s": inc["linalg.howell"],
            "linalg.quotient_s": inc["linalg.quotient"],
            "linalg.quotient_calls": calls["linalg.quotient"],
            "brauer.engine_self_s": slf["brauer.engine"],
            "brauer.gamma_self_s": slf["brauer.gamma"],
            "cyclotomic.matmul_s": inc["cyclotomic.matmul"],
            "cyclotomic.matmul_calls": calls["cyclotomic.matmul"],
            "iodoc.parse_s": inc["iodoc.parse"],
            "reports.render_s": inc["reports.render"],
        }
