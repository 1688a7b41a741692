"""Spans around hcpkit's public functions, recorded from outside the library.

Tracing rebinds attributes in this process only: every hcpkit module
attribute that holds a traced function is replaced by a wrapper that
records a span [name, start, end, parent, item, tag]. Modules that import
a name directly hold their own reference to it (``classpoly.j_tau``,
``harness.hilbert_class_polynomial``, ...), so every copy is rebound.
Nothing in the library changes, and ``restore`` puts the originals back.
"""

from __future__ import annotations

import builtins
import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ITEM, TAG = range(6)

# Spans the benchmark opens itself. A call span covers one call from the
# benchmark into the library; a sink span covers the benchmark's own record
# handler, which the library calls back; a hook span covers the tracer's
# own bookkeeping after a traced call returns.
CALL = "bench.call"
SINK = "bench.sink"
HOOK = "trace.hook"

# _assemble is the boundary that gives per-band assembly time and the
# useful ratio, so its span keeps its discriminant as a tag. It is
# transparent: its children count against its caller, and
# hilbert_class_polynomial's self time keeps the product tree.
TRANSPARENT = frozenset({"classpoly._assemble"})

LAYERS = (
    "quadforms",
    "modfunc",
    "classpoly",
    "intpoly",
    "finitefield",
    "qfield",
    "cyclomult",
    "arith",
    "harness",
)

# (module, attribute) traced with spans; "Class.method" names a method.
SPANNED = (
    ("quadforms", "reduced_forms"),
    ("modfunc", "j_tau"),
    ("modfunc", "required_precision"),
    ("classpoly", "hilbert_class_polynomial"),
    ("classpoly", "_assemble"),
    ("classpoly", "round_real_coeffs"),
    ("classpoly", "cache_store"),
    ("classpoly", "cache_load"),
    ("classpoly", "crc64_xz"),
    ("classpoly", "verify_prop23"),
    ("intpoly", "IntPolynomial.evaluate"),
    ("intpoly", "IntPolynomial.reduce_mod"),
    ("intpoly", "IntPolynomial.pow_mod"),
    ("qfield", "verify_thm54"),
    ("qfield", "evaluate_at"),
    ("qfield", "support_subset"),
    ("qfield", "euclidean_gcd"),
    ("finitefield", "michel_counts"),
    ("finitefield", "roots_in"),
    ("finitefield", "poly_pow_mod"),
    ("finitefield", "poly_gcd"),
    ("cyclomult", "cyclotomic_value"),
    ("cyclomult", "cyclotomic_polynomial"),
    ("cyclomult", "lemma44_check"),
    ("cyclomult", "cyclotomic_congruence_check"),
    ("arith", "factorize"),
    ("arith", "multiplicative_order"),
    ("arith", "support_subset_int"),
    ("harness", "gcd_growth_rational"),
    ("harness", "support_scan_cyclotomic"),
    ("harness", "support_scan_multiplicative"),
)

# Methods called about a million times per pass get a counter, not a span.
COUNTED = (
    ("finitefield", "FqElement", ("__mul__", "__rmul__"), "finitefield.FqElement.mul.calls"),
    ("finitefield", "Fq", ("element",), "finitefield.Fq.element.calls"),
)

# Builtins looked up through a module's globals; a module attribute of the
# same name shadows the builtin for that module alone.
SHADOWED_BUILTINS = (("cyclomult", "divmod"),)


class Tracer:
    """Records spans and counters while installed; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.item = 0
        self.paused = False
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag=None) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, tag]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        span = self._open(name, tag)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def pausing(self):
        """Call the library untraced, as the benchmark's checks do."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        tagged = name in TRANSPARENT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = tracer._open(name, args[0] if tagged else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                with tracer.span(HOOK):
                    hook(tracer, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import hcpkit  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("hcpkit") and m]
        for module, attr in SPANNED:
            mod = sys.modules[f"hcpkit.{module}"]
            name = f"{module}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, getattr(cls, meth), HOOKS.get(name)))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, HOOKS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for module, cls_name, methods, name in COUNTED:
            cls = getattr(sys.modules[f"hcpkit.{module}"], cls_name)
            for meth in methods:
                self._set(cls, meth, self.counter(name, getattr(cls, meth)))
        for module, attr in SHADOWED_BUILTINS:
            mod = sys.modules[f"hcpkit.{module}"]
            if attr in vars(mod):
                raise RuntimeError(f"hcpkit.{module} already defines {attr}")
            setattr(mod, attr, self.wrap(f"{module}.{attr}", getattr(builtins, attr)))
            self._undo.append((mod, attr, None))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


# -- hooks: counters measured where the work happens ------------------------


def _round_hook(tracer: Tracer, args, kwargs, result) -> None:
    from mpmath import mp

    if result is None:
        tracer.counts["classpoly.round_real_coeffs.rejects"] += 1
    worst = 0.0
    for c in args[0]:
        re = mp.re(c)
        worst = max(worst, float(abs(re - mp.nint(re))))
    key = "classpoly.round_real_coeffs.max_residual"
    tracer.maxima[key] = max(tracer.maxima.get(key, 0.0), worst)


def _assemble_hook(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["classpoly.assemble.useful"] += 1


def _store_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["classpoly.cache_store.bytes"] += os.path.getsize(result)


def _load_hook(tracer: Tracer, args, kwargs, result) -> None:
    from hcpkit import classpoly

    if result is not None:
        D = args[0]
        cache_dir = args[1] if len(args) > 1 else kwargs["cache_dir"]
        tracer.counts["classpoly.cache_load.bytes"] += os.path.getsize(
            classpoly._cache_path(D, cache_dir)
        )


def _cyclo_value_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["cyclomult.cyclotomic_value.out_bits"] += abs(result).bit_length()


def _gcd_growth_hook(tracer: Tracer, args, kwargs, result) -> None:
    from hcpkit.arith import is_fundamental_discriminant, kronecker

    params = dict(zip(("a", "b", "p", "D_cap"), args))
    params.update(kwargs)
    p, d_cap = params["p"], params["D_cap"]
    eligible = sum(
        1
        for n in range(3, d_cap + 1)
        if is_fundamental_discriminant(-n) and kronecker(-n, p) == -1
    )
    records = sum(1 for rec in result if rec.experiment == "gcd-growth")
    tracer.counts["harness.gcd_growth_rational.skipped"] += eligible - records


HOOKS = {
    "classpoly.round_real_coeffs": _round_hook,
    "classpoly._assemble": _assemble_hook,
    "classpoly.cache_store": _store_hook,
    "classpoly.cache_load": _load_hook,
    "cyclomult.cyclotomic_value": _cyclo_value_hook,
    "harness.gcd_growth_rational": _gcd_growth_hook,
}


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list], transparent=TRANSPARENT) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    A transparent span is skipped: its children count as children of its
    nearest non-transparent ancestor, and its own self time is 0.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[NAME] in transparent:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] in transparent:
            p = spans[p][PARENT]
        if p >= 0:
            children[p].append(i)
    out = []
    for i, span in enumerate(spans):
        if span[NAME] in transparent:
            out.append(0.0)
            continue
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for c in sorted(children[i], key=lambda k: spans[k][START]):
            start = max(spans[c][START], reach)
            end = min(spans[c][END], hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def outermost(spans: list[list]) -> list[bool]:
    """Whether no ancestor of each span has the same name; summing only
    these keeps recursive calls from counting twice."""
    out = []
    for span in spans:
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != span[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


BANDS = (("h001-010", 1, 10), ("h011-040", 11, 40), ("h041-120", 41, 120))

# Every per-layer metric of a traced run, per pass, as (name, unit).
PER_LAYER = (
    ("quadforms.reduced_forms.calls", "count"),
    ("quadforms.reduced_forms.s", "s"),
    ("modfunc.j_tau.calls", "count"),
    ("modfunc.j_tau.s", "s"),
    ("modfunc.required_precision.s", "s"),
    ("classpoly.hilbert_class_polynomial.calls", "count"),
    ("classpoly.hilbert_class_polynomial.self_s", "s"),
    *((f"classpoly.assemble.s.{band}", "s") for band, _, _ in BANDS),
    ("classpoly.assemble.useful_ratio", "ratio"),
    ("classpoly.round_real_coeffs.calls", "count"),
    ("classpoly.round_real_coeffs.s", "s"),
    ("classpoly.round_real_coeffs.rejects", "count"),
    ("classpoly.round_real_coeffs.max_residual", "abs"),
    ("classpoly.cache_store.calls", "count"),
    ("classpoly.cache_store.s", "s"),
    ("classpoly.cache_store.bytes", "bytes"),
    ("classpoly.cache_load.calls", "count"),
    ("classpoly.cache_load.s", "s"),
    ("classpoly.cache_load.bytes", "bytes"),
    ("classpoly.crc64_xz.s", "s"),
    ("classpoly.verify_prop23.s", "s"),
    ("intpoly.evaluate.s", "s"),
    ("intpoly.reduce_mod.s", "s"),
    ("intpoly.pow_mod.s", "s"),
    ("qfield.verify_thm54.s", "s"),
    ("qfield.evaluate_at.s", "s"),
    ("qfield.support_subset.s", "s"),
    ("qfield.euclidean_gcd.calls", "count"),
    ("qfield.euclidean_gcd.s", "s"),
    ("finitefield.michel_counts.calls", "count"),
    ("finitefield.michel_counts.s", "s"),
    ("finitefield.roots_in.s", "s"),
    ("finitefield.poly_pow_mod.calls", "count"),
    ("finitefield.poly_pow_mod.s", "s"),
    ("finitefield.poly_gcd.calls", "count"),
    ("finitefield.poly_gcd.s", "s"),
    ("finitefield.FqElement.mul.calls", "count"),
    ("finitefield.Fq.element.calls", "count"),
    ("cyclomult.cyclotomic_value.calls", "count"),
    ("cyclomult.cyclotomic_value.s", "s"),
    ("cyclomult.cyclotomic_value.out_bits", "bits"),
    ("cyclomult.cyclotomic_polynomial.s", "s"),
    ("cyclomult.lemma44_check.s", "s"),
    ("cyclomult.cyclotomic_congruence_check.s", "s"),
    ("cyclomult.divmod.s", "s"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.s", "s"),
    ("arith.multiplicative_order.s", "s"),
    ("arith.support_subset_int.s", "s"),
    ("harness.gcd_growth_rational.self_s", "s"),
    ("harness.gcd_growth_rational.records", "count"),
    ("harness.gcd_growth_rational.skipped", "count"),
    ("harness.support_scan_cyclotomic.self_s", "s"),
    ("harness.support_scan_cyclotomic.records", "count"),
    ("harness.support_scan_multiplicative.self_s", "s"),
    ("harness.support_scan_multiplicative.records", "count"),
    *((f"layer.{layer}.share", "ratio") for layer in LAYERS),
    ("layer.unattributed.share", "ratio"),
    ("trace.library_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("claim.j_tau_of_assemble", "ratio"),
    ("claim.divmod_of_cyclotomic_checks", "ratio"),
    ("claim.crc_of_cache_load", "ratio"),
)

# Time metrics: metric suffix -> aggregate ("s" is inclusive time with
# recursion counted once, "self_s" is self time).
_TIMED = {"s": "inclusive", "self_s": "self"}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def aggregate(tracer: Tracer, class_number) -> dict:
    """Totals over every recorded span, before dividing by passes."""
    spans = tracer.spans
    selfs = self_times(spans)
    outer = outermost(spans)
    calls: Counter = Counter()
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    bands = {band: 0.0 for band, _, _ in BANDS}
    crc_in_load = 0.0
    counts = Counter(tracer.counts)
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] += 1
        own[name] = own.get(name, 0.0) + selfs[i]
        if outer[i]:
            inclusive[name] = inclusive.get(name, 0.0) + duration
        if name == "classpoly._assemble":
            h = class_number(span[TAG])
            for band, lo, hi in BANDS:
                if lo <= h <= hi:
                    bands[band] += duration
        elif name == "classpoly.crc64_xz" and span[PARENT] >= 0:
            if spans[span[PARENT]][NAME] == "classpoly.cache_load":
                crc_in_load += duration
        elif name == SINK and span[PARENT] >= 0:
            # every record a driver hands over, its summary row included
            counts[spans[span[PARENT]][NAME] + ".records"] += 1
    library = inclusive.get(CALL, 0.0) - inclusive.get(SINK, 0.0) - inclusive.get(HOOK, 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    return {
        "calls": calls,
        "inclusive": inclusive,
        "self": own,
        "bands": bands,
        "crc_in_load": crc_in_load,
        "library": library,
        "layer_self": layer_self,
        "unattributed": own.get(CALL, 0.0),
        "counts": counts,
        "maxima": tracer.maxima,
    }


def layer_metrics(agg: dict, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric, per pass; counts stay whole when every pass
    did the same work."""

    def per_pass(total):
        if isinstance(total, int) and total % passes == 0:
            return total // passes
        return total / passes

    calls, inclusive, own = agg["calls"], agg["inclusive"], agg["self"]
    counts = agg["counts"]
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        head, _, last = metric.rpartition(".")
        if metric.startswith("classpoly.assemble.s."):
            value = per_pass(agg["bands"][last])
        elif metric == "classpoly.assemble.useful_ratio":
            value = _ratio(counts["classpoly.assemble.useful"], calls["classpoly._assemble"])
        elif metric.startswith("layer."):
            layer = metric.split(".")[1]
            part = agg["unattributed"] if layer == "unattributed" else agg["layer_self"][layer]
            value = _ratio(part, agg["library"])
        elif metric == "trace.library_s":
            value = per_pass(agg["library"])
        elif metric == "trace.overhead_ratio":
            value = overhead_ratio
        elif metric == "claim.j_tau_of_assemble":
            value = _ratio(inclusive.get("modfunc.j_tau", 0.0), inclusive.get("classpoly._assemble", 0.0))
        elif metric == "claim.divmod_of_cyclotomic_checks":
            checks = inclusive.get("cyclomult.lemma44_check", 0.0)
            checks += inclusive.get("cyclomult.cyclotomic_congruence_check", 0.0)
            value = _ratio(inclusive.get("cyclomult.divmod", 0.0), checks)
        elif metric == "claim.crc_of_cache_load":
            value = _ratio(agg["crc_in_load"], inclusive.get("classpoly.cache_load", 0.0))
        elif metric in agg["maxima"] or metric.endswith(".max_residual"):
            value = agg["maxima"].get(metric, 0.0)
        elif last == "calls" and head in calls:
            value = per_pass(calls[head])
        elif last not in _TIMED:
            value = per_pass(counts[metric])
        else:
            table = inclusive if _TIMED[last] == "inclusive" else own
            value = per_pass(table.get(head, 0.0))
        out[metric] = value
    return out
