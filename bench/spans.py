"""Per-layer spans recorded from outside the program.

Each traced entry point is wrapped where it is defined and rebound in
every ``heisvoa`` module (and module-level dict, such as the CLI's
suite table) that holds it by name, so ``from .fock import apply_mode``
callers are traced too.  Spans nest on one stack per thread, because the
CLI interleaves suites on a thread pool; durations use
``time.thread_time()`` so one thread's span never absorbs another
thread's work.  A span's self time is its duration minus the durations
of the spans it directly encloses.

Hot arithmetic entry points get a counter only: timing every call would
cost more than the call itself.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (module, qualified name) of every timed entry point, grouped by layer
TIMED = (
    ("jacobi", "three_term_jacobi"),
    ("intertwiner", "IntertwinerOp.coefficient"),
    ("intertwiner", "creation_coeff"),
    ("intertwiner", "annihilation_coeff"),
    ("intertwiner", "apply_e"),
    ("fock", "apply_mode"),
    ("fock", "vertex_mode"),
    ("fock", "virasoro_mode"),
    ("lattice", "DlmOp.coefficient"),
    ("lattice", "TwistedVertexOp.coefficient"),
    ("form", "gram"),
    ("form", "gram_matrix"),
    ("form", "AdjointIntertwinerOp.coefficient"),
    ("cli", "suite_heisenberg"),
    ("cli", "suite_virasoro"),
    ("cli", "suite_intertwiner_props"),
    ("cli", "suite_jacobi"),
    ("cli", "suite_skew"),
    ("cli", "suite_form"),
    ("cli", "suite_lattice_twist"),
    ("cli", "suite_dlm"),
    ("cli", "suite_locality"),
    ("cli", "render_report"),
)

# entry points that are only counted
COUNTED = (
    ("scalars", "Scalar.__mul__"),
    ("scalars", "Scalar.__add__"),
    ("scalars", "GaussRat.__mul__"),
    ("scalars", "GaussRat.__add__"),
    ("report", "VerificationReport.record"),
)

# module-level caches whose entry counts are reported after the run
CACHES = (
    ("fock", "_MODE_CACHE", "mode_cache_entries"),
    ("fock", "_VERTEX_CACHE", "vertex_cache_entries"),
    ("fock", "_VIRASORO_CACHE", "virasoro_cache_entries"),
    ("intertwiner", "_CHAIN_CACHE", "chain_cache_entries"),
    ("scalars", "_BINOM_CACHE", "binom_cache_entries"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for mod, qual in TIMED:
        out.append((f"{mod}.{qual}.calls", "count"))
        out.append((f"{mod}.{qual}.self_s", "s"))
    out += [(f"{mod}.{qual}.calls", "count") for mod, qual in COUNTED]
    out += [(f"{mod}.{name}", "count") for mod, _, name in CACHES]
    out += [("jacobi.useful_ratio", "ratio"), ("scalars.unit_mul_share", "ratio"),
            ("lattice.heis_rank", "count")]
    return out


class _ThreadStats:
    __slots__ = ("stack", "calls", "self_s")

    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time spent in children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}


class Tracer:
    """Installs the wrappers and aggregates spans across threads."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._threads_lock = threading.Lock()
        self._counters: dict[str, itertools.count] = {}
        self.missing: list[str] = []
        self.jacobi_checked = 0
        self.jacobi_skipped = 0
        self._unit_muls = itertools.count()

    # -- per-thread state --------------------------------------------------
    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = _ThreadStats()
            self._local.stats = st
            with self._threads_lock:
                self._threads.append(st)
        return st

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name: str, fn):
        clock = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stats()
            frame = [clock(), 0.0]
            st.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                st.stack.pop()
                if st.stack:
                    st.stack[-1][1] += dur
                st.calls[name] = st.calls.get(name, 0) + 1
                st.self_s[name] = st.self_s.get(name, 0.0) + dur - frame[1]
        return wrapper

    def _counted(self, name: str, fn):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def _jacobi_hook(self, name: str, fn):
        """Collect checked and skipped counts of every three-term check."""
        lock = threading.Lock()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rep = fn(*args, **kwargs)
            with lock:
                self.jacobi_checked += len(rep.checked)
                self.jacobi_skipped += len(rep.skipped)
            return rep
        return wrapper

    def _unit_mul_hook(self, name: str, fn):
        """Count Scalar products with a factor that carries a unit."""
        tick = self._unit_muls.__next__
        scalar_cls = sys.modules["heisvoa.scalars"].Scalar

        @functools.wraps(fn)
        def wrapper(a, b):
            if a.as_rational() is None or (type(b) is scalar_cls
                                           and b.as_rational() is None):
                tick()
            return fn(a, b)
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import heisvoa.cli  # noqa: F401  (loads every module that is patched)

        for mod, qual in TIMED:
            self._patch(mod, qual, self._timed)
        for mod, qual in COUNTED:
            self._patch(mod, qual, self._counted)
        self._patch("jacobi", "three_term_jacobi", self._jacobi_hook)
        self._patch("scalars", "Scalar.__mul__", self._unit_mul_hook)

    def _patch(self, mod: str, qual: str, make) -> None:
        module = sys.modules.get(f"heisvoa.{mod}")
        owner_name, _, attr = qual.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{mod}.{qual}")
            return
        wrapped = make(f"{mod}.{qual}", original)
        setattr(owner, attr, wrapped)
        if owner_name:
            return  # methods are looked up through the class
        for name, m in list(sys.modules.items()):
            if not (name == "heisvoa" or name.startswith("heisvoa.")):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapped)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = wrapped

    # -- results -------------------------------------------------------------
    def metrics(self, heis_rank: int) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for st in self._threads:
            for k, v in st.calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in st.self_s.items():
                self_s[k] = self_s.get(k, 0.0) + v
        out: dict[str, float] = {}
        for mod, qual in TIMED:
            name = f"{mod}.{qual}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for mod, qual in COUNTED:
            name = f"{mod}.{qual}"
            counter = self._counters.get(name)
            out[f"{name}.calls"] = next(counter) if counter else 0
        for mod, var, name in CACHES:
            cache = getattr(sys.modules.get(f"heisvoa.{mod}"), var, None)
            out[f"{mod}.{name}"] = len(cache) if cache is not None else 0
        seen = self.jacobi_checked + self.jacobi_skipped
        out["jacobi.useful_ratio"] = self.jacobi_checked / seen if seen else 0.0
        muls = out["scalars.Scalar.__mul__.calls"]
        out["scalars.unit_mul_share"] = next(self._unit_muls) / muls if muls else 0.0
        out["lattice.heis_rank"] = heis_rank
        return out
