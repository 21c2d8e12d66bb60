"""Outside-in layer tracer for ``uqcm``.

Wraps every public function and the ``__init__`` of every public class in
the six ``uqcm`` modules, without any edit to the library.  A function
imported into another module (``from .combinatorics import
splitting_coefficient``) is replaced there too, so callers in every
layer go through the wrapper.

Per wrapped name the tracer keeps, in memory, the number of calls and
the self time: the wrapped span minus the time spent in wrapped child
spans.  Exceptions leaving a wrapped call are counted per module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "uqcm"
MODULES = ("cli", "machines", "symmetric", "combinatorics", "fidelity", "hilbert")

# Built hundreds of thousands of times per op; timing each construction
# would cost more than the construction itself, so it is only counted.
COUNT_ONLY = frozenset({"combinatorics.OccupationVector"})


def _density_dim(args, kwargs) -> int:
    # SymDensity(basis, matrix, ...) via __init__(self, ...).
    return len(kwargs["matrix"] if "matrix" in kwargs else args[2])


def _first_matrix_dim(args, kwargs) -> int:
    return len(args[0])


# Names whose operand dimension D is recorded as the sum of D^3 (the cost
# of an eigendecomposition or SVD) and the largest 16 D^2 (bytes of a
# dense complex128 D x D matrix).
SIZED = {
    "symmetric.SymDensity": _density_dim,
    "hilbert.trace_distance_matrices": _first_matrix_dim,
}


class Tracer:
    """Aggregated spans of one traced pass, kept in memory until read."""

    def __init__(self) -> None:
        # qualified name -> [calls, self_s, dim3_sum, bytes_max]
        self.stats: dict[str, list] = {}
        self.errors = dict.fromkeys(MODULES, 0)
        self.missing_modules: list[str] = []
        self._stack: list[float] = []

    def install(self) -> None:
        loaded = [mod for name, mod in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.missing_modules.append(short)
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                qual = f"{short}.{name}"
                if inspect.isfunction(obj):
                    wrapped = self._wrap(qual, short, obj)
                    for other in loaded:
                        if vars(other).get(name) is obj:
                            setattr(other, name, wrapped)
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not issubclass(obj, BaseException)):
                    obj.__init__ = self._wrap(qual, short, obj.__init__)

    def _wrap(self, qual: str, module: str, fn):
        rec = self.stats.setdefault(qual, [0, 0.0, 0, 0])
        errors = self.errors

        if qual in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                rec[0] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    errors[module] += 1
                    raise
            return counted

        stack = self._stack
        clock = time.perf_counter
        size = SIZED.get(qual)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec[0] += 1
            if size is not None:
                try:
                    dim = size(args, kwargs)
                except (IndexError, KeyError, TypeError):
                    dim = 0  # signature changed; the call itself still runs
                rec[2] += dim**3
                rec[3] = max(rec[3], 16 * dim * dim)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                elapsed = clock() - start
                rec[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return timed

    def snapshot(self) -> dict:
        return {
            "stats": {q: {"calls": c, "self_s": s, "dim3_sum": d3, "bytes_max": b}
                      for q, (c, s, d3, b) in sorted(self.stats.items())},
            "errors": dict(self.errors),
            "missing_modules": self.missing_modules,
        }
