"""Per-layer tracing from outside the program.

`instrument()` wraps every function and method defined in the qmoments layer
modules and rebinds each wrapper at every place the original is bound:
module attributes of all qmoments modules (cli imports `random_hermitian`
by name, states imports `sine_transform_batch`, moments imports `integrate`,
...) and class dictionaries. A wrapper on the defining module alone would
miss every call made through such a by-name import.

Each wrapped call records a span [name, start, end, parent, op] in memory;
a few boundaries also record counts. `summarize()` turns spans and counts
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("quadrature", "states", "matrixlab", "rng", "moments", "inequalities",
          "centralfield", "cli")

# functions whose every call would be a span but that only do pointwise math
# inside quadrature integrands; their time stays in the calling span
POINTWISE = {"radial_density", "reduced_radial", "reduced_radial_derivative"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.dim_max = 0
        self.sine_nodes = [0]
        self.unwrapped: set[str] = set()

    def layer_of_parent(self) -> str | None:
        return self.spans[self.stack[-1]][0].split(".", 1)[0] if self.stack else None


def _span_wrapper(tr: Tracer, name: str, fn, hook=None, pre=None):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tr.layer_of_parent() != layer
        if pre is not None:
            args, kwargs = pre(tr, args, kwargs)
        rec = [name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1, tr.op]
        tr.stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            tr.stack.pop()
        if hook is not None:
            hook(tr, args, kwargs, result, outer)
        return result

    wrapper.__qbench_original__ = fn
    return wrapper


def _count_wrapper(tr: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__qbench_original__ = fn
    return wrapper


# -- boundary hooks ---------------------------------------------------------


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x)) if hasattr(x, "__len__") else 1


def _integrate_hook(tr, args, kwargs, res, outer):
    tr.counts["quadrature.integrate.evals"] += res.evaluations
    tr.counts["quadrature.integrate.nonconverged"] += (not res.converged) and not res.failed
    tr.counts["quadrature.integrate.failed"] += bool(res.failed)


def _sine_pre(tr, args, kwargs):
    """Wrap the radial function so the transform's node count is measured."""
    args = list(args)
    u = args[0] if args else kwargs["u"]
    nodes = tr.sine_nodes = [0]

    def counted(r):
        nodes[0] += _size(r)
        return u(r)

    if args:
        args[0] = counted
    else:
        kwargs["u"] = counted
    return tuple(args), kwargs


def _sine_hook(tr, args, kwargs, res, outer):
    ks = args[1] if len(args) > 1 else kwargs["ks"]
    k = _size(ks)
    n = tr.sine_nodes[0]
    tr.counts["quadrature.sine.k_values"] += k
    tr.counts["quadrature.sine.u_nodes"] += n
    tr.counts["quadrature.sine.sin_evals"] += k * n


def _w_hook(tr, args, kwargs, res, outer):
    tr.counts["states.w.k_requested"] += _size(res)


def _batch_hook(tr, args, kwargs, res, outer):
    tr.counts["states.w.k_transformed"] += _size(res)


def _table_hook(tr, args, kwargs, res, outer):
    tr.counts["states.momentum_table.builds"] += 1


def _eig_hook(tr, args, kwargs, res, outer):
    tr.dim_max = max(tr.dim_max, int(res.eigenvalues.shape[0]))


def _moment_hook(tr, args, kwargs, res, outer):
    if outer and hasattr(res, "status"):
        tr.counts["moments.outer_calls"] += 1
        tr.counts["moments.divergent"] += res.status == "divergent"
        tr.counts["moments.failed"] += res.status == "failed"


HOOKS = {
    "quadrature.integrate": (_integrate_hook, None),
    "quadrature.sine_transform_batch": (_sine_hook, _sine_pre),
    "states._MomentumTable.w": (_w_hook, None),
    "states._MomentumTable._batch": (_batch_hook, None),
    "states._MomentumTable.__init__": (_table_hook, None),
    "matrixlab.eigendecompose": (_eig_hook, None),
}


def _targets(mod, layer: str):
    """(qualified name, owner, attribute, function) for every public function
    and method of a layer module, plus the private ones that carry a hook;
    private helpers stay inside their caller's span."""
    for attr, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and (not attr.startswith("_") or f"{layer}.{attr}" in HOOKS):
            yield f"{layer}.{attr}", None, attr, obj
        elif inspect.isclass(obj):
            for mname, m in list(vars(obj).items()):
                name = f"{layer}.{obj.__name__}.{mname}"
                if inspect.isfunction(m) and mname not in POINTWISE and (
                        not mname.startswith("_") or name in HOOKS):
                    yield name, obj, mname, m


def instrument(tr: Tracer):
    """Wrap the layer modules of an imported qmoments; returns an undo function."""
    import qmoments.cli  # noqa: F401  (imports every layer)
    import qmoments.rng

    pkg = [m for n, m in sys.modules.items() if n == "qmoments" or n.startswith("qmoments.")]
    undo = []
    by_id = {}
    for layer in LAYERS:
        mod = sys.modules[f"qmoments.{layer}"]
        for name, owner, attr, fn in _targets(mod, layer):
            if layer == "rng":
                if attr != "next_u64":
                    continue
                wrapped = _count_wrapper(tr, "rng.draws", fn)
            elif layer == "cli" and attr != "main":
                continue  # the CLI layer is one span: argument parsing to JSON emit
            elif layer == "moments":
                wrapped = _span_wrapper(tr, name, fn, _moment_hook)
            else:
                hook, pre = HOOKS.get(name, (None, None))
                wrapped = _span_wrapper(tr, name, fn, hook, pre)
            if owner is not None:
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                by_id[id(fn)] = (fn, wrapped)
    # verdict construction is counted where the inequalities layer binds it
    iq = sys.modules["qmoments.inequalities"]
    undo.append((iq, "make_verdict", iq.make_verdict))
    iq.make_verdict = _count_wrapper(tr, "inequalities.verdicts", iq.make_verdict)
    for mod in pkg:
        for attr, obj in list(vars(mod).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])

    def restore():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return restore


def unwrapped_bindings() -> list[str]:
    """Binding sites in any qmoments module that still hold a plain function
    `instrument()` wraps: each one is a call path the tracer would not see."""
    traced = {f"qmoments.{layer}" for layer in LAYERS if layer not in ("rng", "cli")}
    return [f"{n}.{a}" for n, mod in list(sys.modules.items())
            if n == "qmoments" or n.startswith("qmoments.")
            for a, o in vars(mod).items()
            if inspect.isfunction(o) and o.__module__ in traced
            and not o.__name__.startswith("_") and not hasattr(o, "__qbench_original__")]


# -- aggregation ------------------------------------------------------------


def per_op_unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s/op"
    return "bytes/op" if "bytes" in metric else "count/op"


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def nesting_problems(spans) -> list[str]:
    """Each span must sit under the cli.main span of its own op."""
    bad = []
    for i, s in enumerate(spans):
        j = i
        while spans[j][3] >= 0:
            j = spans[j][3]
        root = spans[j]
        if root[0] != "cli.main" or root[4] != s[4] or not root[1] <= s[1] <= s[2] <= root[2]:
            bad.append(f"span {i} {s[0]} (op {s[4]}) is not nested under its op's cli.main")
    return bad


def summarize(spans, counts: Counter, dim_max: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit); work and time are per op (per cli.main call)."""
    self_t = self_times(spans)
    layer_self = Counter()
    fn_self = Counter()
    fn_calls = Counter()
    fn_incl_outer = Counter()
    for s, st in zip(spans, self_t):
        name = s[0]
        layer = name.split(".", 1)[0]
        layer_self[layer] += st
        fn_self[name] += st
        fn_calls[name] += 1
        p = s[3]
        if p < 0 or spans[p][0] != name:   # inclusive time of outermost calls only
            fn_incl_outer[name] += s[2] - s[1]
        if layer == "centralfield" and (p < 0 or not spans[p][0].startswith("centralfield.")):
            fn_calls["centralfield.outer"] += 1

    def incl(suffix: str) -> float:
        return sum(v for k, v in fn_incl_outer.items() if k.endswith(suffix))

    req, tr_k = counts["states.w.k_requested"], counts["states.w.k_transformed"]
    per_op = {
        "cli.main.self_s": layer_self["cli"],
        "cli.emit_bytes": counts["cli.emit_bytes"],
        "inequalities.verdicts": counts["inequalities.verdicts"],
        "inequalities.self_s": layer_self["inequalities"],
        "centralfield.calls": fn_calls["centralfield.outer"],
        "centralfield.self_s": layer_self["centralfield"],
        "moments.calls": counts["moments.outer_calls"],
        "moments.self_s": layer_self["moments"],
        "moments.divergent": counts["moments.divergent"],
        "moments.failed": counts["moments.failed"],
        "states.catalog.calls": fn_calls["states.catalog"],
        "states.load_radial_grid.s": incl("states.load_radial_grid"),
        "states.momentum_table.builds": counts["states.momentum_table.builds"],
        "states.w.k_requested": req,
        "states.w.k_transformed": tr_k,
        "states.kinetic_energy.s": incl(".kinetic_energy"),
        "states.self_s": layer_self["states"],
        "quadrature.integrate.calls": fn_calls["quadrature.integrate"],
        "quadrature.integrate.evals": counts["quadrature.integrate.evals"],
        "quadrature.integrate.nonconverged": counts["quadrature.integrate.nonconverged"],
        "quadrature.integrate.failed": counts["quadrature.integrate.failed"],
        "quadrature.integrate.self_s": fn_self["quadrature.integrate"],
        "quadrature.sine.calls": fn_calls["quadrature.sine_transform_batch"],
        "quadrature.sine.k_values": counts["quadrature.sine.k_values"],
        "quadrature.sine.u_nodes": counts["quadrature.sine.u_nodes"],
        "quadrature.sine.sin_evals": counts["quadrature.sine.sin_evals"],
        "quadrature.sine.self_s": fn_self["quadrature.sine_transform_batch"],
        "quadrature.sine.phase_bytes_computed": 8 * counts["quadrature.sine.sin_evals"],
        "matrixlab.eigendecompose.calls": fn_calls["matrixlab.eigendecompose"],
        "matrixlab.eigendecompose.self_s": fn_self["matrixlab.eigendecompose"],
        "matrixlab.random_inputs.self_s": fn_self["matrixlab.random_hermitian"]
        + fn_self["matrixlab.random_state"],
        "matrixlab.self_s": layer_self["matrixlab"],
        "rng.draws": counts["rng.draws"],
        "trace.spans": len(spans),
    }
    ops = max(fn_calls["cli.main"], 1)
    out = {k: (v / ops, per_op_unit(k)) for k, v in per_op.items()}
    out["cli.main.calls"] = (float(fn_calls["cli.main"]), "count")
    out["matrixlab.eigendecompose.dim_max"] = (float(dim_max), "count")
    out["states.w.hit_ratio"] = ((1.0 - tr_k / req) if req else 0.0, "ratio")
    return out
