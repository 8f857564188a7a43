"""Outside-in tracer: spans around every public shiftlab function.

Nothing in the package is edited.  ``install`` replaces each public
function of each ``shiftlab`` module (and each public method of the
classes the module defines) with a timing wrapper, and rebinds every
import site that holds the original, so ``cli``'s ``from .subspaces
import ...`` names are traced as well.  ``uninstall`` puts the originals
back.  A counter at the numpy boundary charges every SVD (including the
one inside ``numpy.linalg.norm(m, 2)``) to the innermost shiftlab span.

Spans stay in memory with a parent and a scenario id; ``write_spans``
writes them out once the run ends.  A span's self time is its duration
minus the durations of its direct children.  SVD flop counts and the
bytes of returned matrices are computed from shapes, not measured.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from enum import Enum

import numpy as np
import numpy.linalg

try:
    from numpy.linalg import _linalg as _np_linalg_impl
except ImportError:  # numpy < 2
    from numpy.linalg import linalg as _np_linalg_impl

_clock = time.perf_counter

# The callables that build a check's target subspace.  A call from outside
# the subspaces layer is one target build; calls among themselves are parts
# of the same build.
TARGET_BUILDERS = frozenset(("subspaces.mixed_invariant_subspace",
                             "subspaces.kernel_subspace",
                             "subspaces.range_window_basis"))


def svd_flops(shape, compute_uv: bool, full_matrices: bool, is_complex: bool) -> float:
    """Golub-Van Loan operation count of a Golub-Reinsch SVD.

    With p >= q the larger and smaller of the two matrix dimensions:
    values only 4pq^2 - 4q^3/3, thin factors 14pq^2 + 8q^3, full factors
    4p^2q + 8pq^2 + 9q^3.  A complex flop counts as four real ones.
    """
    *batch, m, n = shape
    p, q = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * p * q * q - 4 * q ** 3 / 3
    elif full_matrices:
        flops = 4 * p * p * q + 8 * p * q * q + 9 * q ** 3
    else:
        flops = 14 * p * q * q + 8 * q ** 3
    return float(flops) * (4 if is_complex else 1) * int(np.prod(batch, dtype=np.int64))


def matrix_bytes(obj) -> int:
    """Bytes of the matrices in a returned value: arrays, ``.entries`` or
    ``.basis`` holders, and tuples or dataclasses made of them."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if obj is None or isinstance(obj, (int, float, str, range)):
        return 0
    for attr in ("entries", "basis"):
        inner = getattr(obj, attr, None)
        if isinstance(inner, np.ndarray):
            return inner.nbytes
    if isinstance(obj, tuple):
        return sum(matrix_bytes(p) for p in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(matrix_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def shiftlab_modules():
    """The package and every submodule, imported."""
    import shiftlab
    mods = {"shiftlab": shiftlab}
    for info in pkgutil.iter_modules(shiftlab.__path__):
        mods[info.name] = importlib.import_module(f"shiftlab.{info.name}")
    return mods


def _targets(mods, only):
    """(owner, attribute, function, layer, qualified name) for each traced callable."""
    out = []
    for layer, mod in mods.items():
        if layer == "shiftlab":
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((mod, name, obj, layer, f"{layer}.{name}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                    and not issubclass(obj, (Enum, BaseException)):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, staticmethod):
                        out.append((obj, attr, member, layer, f"{layer}.{name}.{attr}"))
    if only is not None:
        out = [t for t in out if t[4] in only]
    return out


class Stat:
    """Counters of one traced callable."""

    __slots__ = ("layer", "qual", "calls", "self_s", "inclusive_s", "outer_calls",
                 "depth", "bytes")

    def __init__(self, layer, qual):
        self.layer, self.qual = layer, qual
        self.calls = self.outer_calls = self.depth = self.bytes = 0
        self.self_s = self.inclusive_s = 0.0


class Tracer:
    """Spans and per-layer counters for the shiftlab package.

    ``only`` (qualified names such as ``subspaces.bilateral_subspace``)
    restricts wrapping to those callables; None wraps every public one.
    Spans are kept while the ``keep_spans`` attribute is true; the
    counters always run.
    """

    def __init__(self, only=None):
        mods = shiftlab_modules()
        self._modules = list(mods.values())
        self._targets = _targets(mods, None if only is None else set(only))
        self.stats = {qual: Stat(layer, qual) for _, _, _, layer, qual in self._targets}
        self.keep_spans = True
        self.scenario = None
        self.spans = []
        self.target_builds = []
        self.svd_calls = defaultdict(int)
        self.svd_flop = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._saved = []

    def layer_total(self, layer, field):
        """Sum of one Stat field over the layer's callables."""
        return sum(getattr(st, field) for st in self.stats.values() if st.layer == layer)

    def inclusive_s(self, qual):
        """Time inside outermost calls of one callable; 0 when it does not exist."""
        st = self.stats.get(qual)
        return st.inclusive_s if st else 0.0

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, member, layer, qual in self._targets:
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            wrapper = self._wrap(fn, self.stats[qual])
            wrapped[id(fn)] = wrapper
            self._saved.append((owner, attr, member))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        # rebind import sites: every module-level name bound to a wrapped original
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])
        svd = numpy.linalg.svd
        counted = self._wrap_svd(svd)
        for owner in (numpy.linalg, _np_linalg_impl):
            if getattr(owner, "svd", None) is svd:
                self._saved.append((owner, "svd", svd))
                setattr(owner, "svd", counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, st):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        n_pos = params.index("n") if "n" in params else None
        builder = st.qual in TARGET_BUILDERS
        count_bytes = st.layer == "operators"
        tracer = self
        stack = self._stack

        def arg_n(args, kwargs):
            if "n" in kwargs:
                return kwargs["n"]
            return args[n_pos] if n_pos is not None and n_pos < len(args) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [st, 0.0, tracer._next_id]
            stack.append(frame)
            st.depth += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                st.depth -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                st.calls += 1
                st.self_s += dur - frame[1]
                if st.depth == 0:
                    st.inclusive_s += dur
                    st.outer_calls += 1
                if builder and (parent is None or parent[0].layer != st.layer):
                    tracer.target_builds.append((tracer.scenario, arg_n(args, kwargs)))
                if tracer.keep_spans:
                    tracer.spans.append((frame[2], parent[2] if parent else None,
                                         tracer.scenario, st.qual, t0, t1,
                                         dur - frame[1], arg_n(args, kwargs)))
            if count_bytes:
                st.bytes += matrix_bytes(result)
            return result

        return wrapper

    def _wrap_svd(self, svd):
        tracer = self

        @functools.wraps(svd)
        def counted_svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            arr = np.asarray(a)
            layer = tracer._stack[-1][0].layer if tracer._stack else "none"
            tracer.svd_calls[layer] += 1
            tracer.svd_flop[layer] += svd_flops(arr.shape, compute_uv, full_matrices,
                                                 np.iscomplexobj(arr))
            return svd(a, full_matrices, compute_uv, *args, **kwargs)

        return counted_svd

    def write_spans(self, path):
        """Write kept spans as NDJSON, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, scenario, qual, t0, t1, self_s, n in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "scenario": scenario,
                    "name": qual, "start": t0, "end": t1, "self_s": self_s, "n": n,
                }) + "\n")
