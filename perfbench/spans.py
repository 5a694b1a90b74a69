"""Layer spans recorded from outside the library.

``Tracer.install`` wraps every public function of each layer module and puts
the wrapper wherever a caller looks the function up: on the defining module
and on every ``arcspace`` module that imported it by name (``drinfeld`` calls
``edim_at_point`` through its own global, so the wrapper goes on
``arcspace.drinfeld.edim_at_point`` too).  ``uninstall`` puts the originals
back.  Nothing inside ``src/arcspace`` changes.

``poly``, ``orders`` and ``series`` are not wrapped: they are kernels called
millions of times per pass, and wrapping them would distort the timings.
Their cost shows in the self time of the spans that call them.

Each call becomes a span ``[function, start, end, parent, job]`` kept in
memory.  A span's self time is its duration minus its child spans'
durations.  A few results are also counted where they are returned (useful
normal forms, matrix entries, terms); those counts repeat exactly for a seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli", "polyalg.parse", "jets", "localgeom", "polyalg.mora", "polyalg.groebner",
    "polyalg.linalg", "polyalg.dimension", "polyalg.tpoly", "drinfeld",
)


def short(layer: str) -> str:
    return layer.rsplit(".", 1)[-1]


# -- counts taken from arguments and results ------------------------------------


def _mora_nf(tr, args, kwargs, result):
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    tr.counts["mora.nf_nonzero"] += not result.is_zero()
    tr.high("mora.basis_size_max", len(basis))


def _mora_sb(tr, args, kwargs, result):
    tr.high("mora.basis_size_max", len(result))


def _echelon(tr, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    tr.counts["linalg.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _jet_ideal(tr, args, kwargs, result):
    tr.counts["jets.jet_ideal_terms"] += sum(len(g.terms) for g in result)


def _model(tr, args, kwargs, result):
    tr.counts["drinfeld.model_equations"] += len(result.equations)
    tr.counts["drinfeld.model_terms"] += sum(len(q.terms) for q in result.equations)


def _projection(tr, args, kwargs, result):
    tr.counts["drinfeld.projection_attempts"] += result[0].attempt + 1


HOOKS = {
    "polyalg.mora.mora_normal_form": _mora_nf,
    "polyalg.mora.mora_standard_basis": _mora_sb,
    "polyalg.linalg.fraction_free_echelon": _echelon,
    "jets.jet_ideal": _jet_ideal,
    "drinfeld.build_drinfeld_model": _model,
    "drinfeld.choose_projection": _projection,
}


class Tracer:
    """Spans and counts of one pass at a time; install before, uninstall after."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def high(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"arcspace.{layer}")
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mname, module in list(sys.modules.items()):
            if mname != "arcspace" and not mname.startswith("arcspace."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and not attr.startswith("__"):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# -- per-layer metrics ----------------------------------------------------------------

# (metric, kind, function); kinds: "self" = self time, "total" = inclusive time
# of the outermost spans of that function, "calls" = span count.
SPAN_METRICS = (
    ("mora.standard_basis_self_s", "self", "polyalg.mora.mora_standard_basis"),
    ("mora.standard_basis_calls", "calls", "polyalg.mora.mora_standard_basis"),
    ("mora.nf_s", "total", "polyalg.mora.mora_normal_form"),
    ("mora.nf_calls", "calls", "polyalg.mora.mora_normal_form"),
    ("groebner.buchberger_s", "total", "polyalg.groebner.buchberger"),
    ("groebner.nf_calls", "calls", "polyalg.groebner.normal_form"),
    ("localgeom.translate_s", "total", "localgeom.translate_to_origin"),
    ("localgeom.edim_at_point_s", "total", "localgeom.edim_at_point"),
    ("localgeom.ecodim_at_point_self_s", "self", "localgeom.ecodim_at_point"),
    ("localgeom.ecodim_at_point_calls", "calls", "localgeom.ecodim_at_point"),
    ("linalg.echelon_s", "total", "polyalg.linalg.fraction_free_echelon"),
    ("linalg.echelon_calls", "calls", "polyalg.linalg.fraction_free_echelon"),
    ("dimension.monomial_dim_s", "total", "polyalg.dimension.monomial_dim"),
    ("jets.jet_ideal_s", "total", "jets.jet_ideal"),
    ("jets.ord_along_arc_s", "total", "jets.ord_along_arc"),
    ("jets.ord_calls", "calls", "jets.ord_along_arc"),
    ("drinfeld.ci_reduce_s", "total", "drinfeld.ci_reduce"),
    ("drinfeld.choose_projection_s", "total", "drinfeld.choose_projection"),
    ("drinfeld.build_model_self_s", "self", "drinfeld.build_drinfeld_model"),
    ("drinfeld.verify_edim_s", "total", "drinfeld.verify_drinfeld_edim"),
    ("drinfeld.verify_dims_s", "total", "drinfeld.verify_drinfeld_dims"),
    ("drinfeld.jet_cotangent_s", "total", "drinfeld.jet_cotangent_map"),
    ("drinfeld.tangent_check_s", "total", "drinfeld.drinfeld_tangent_check"),
    ("tpoly.substitute_s", "total", "polyalg.tpoly.substitute_tpoly"),
    ("cli.load_job_s", "total", "cli.load_job"),
    ("cli.main_self_s", "self", "cli.main"),
    ("parse.parse_poly_s", "total", "polyalg.parse.parse_poly"),
)

COUNT_METRICS = (
    "mora.basis_size_max", "linalg.entries", "jets.jet_ideal_terms",
    "drinfeld.projection_attempts", "drinfeld.model_equations", "drinfeld.model_terms",
)

# the counts that must repeat exactly between runs with one seed
DETERMINISTIC = (
    "mora.standard_basis_calls", "mora.nf_calls", "mora.basis_size_max",
    "groebner.nf_calls", "linalg.echelon_calls", "linalg.entries", "jets.ord_calls",
    "jets.jet_ideal_terms", "drinfeld.projection_attempts", "drinfeld.model_equations",
    "drinfeld.model_terms", "localgeom.ecodim_at_point_calls",
)


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "ratio" if metric.endswith("_frac") else "count"


def pass_metrics(spans: list[list], counts: Counter, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        if parent < 0:
            covered += end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total_s[name] += end - start
    out: dict[str, float] = {}
    for metric, kind, fn in SPAN_METRICS:
        out[metric] = {"self": self_s, "total": total_s, "calls": calls}[kind].get(fn, 0)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    nf = calls.get("polyalg.mora.mora_normal_form", 0)
    out["mora.nf_nonzero_frac"] = counts.get("mora.nf_nonzero", 0) / nf if nf else 0.0
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{short(layer)}.layer_self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(prefix))
    out["trace.outside_s"] = wall - covered
    return out


def write_spans(path, passes: list[list[list]]) -> None:
    """One JSON line per span: pass, index, function, start, end, parent, job."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, pass_spans in enumerate(passes):
            for i, span in enumerate(pass_spans):
                fh.write(json.dumps([p, i, *span]) + "\n")
