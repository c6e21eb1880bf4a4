"""Span tracing around the public functions of every ``chiralwalk`` module.

A :class:`Tracer` replaces each traced function with a wrapper in every
module namespace (and class) that binds it, records one :class:`Span` per
call -- the op it belongs to, name, start, end, parent, error type and a few
attributes -- and puts
the originals back on :meth:`Tracer.restore`.  Spans stay in memory until the
benchmark writes them out.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

MODULES = ("chiralwalk", "chiralwalk.config", "chiralwalk.profiles", "chiralwalk.lattice",
           "chiralwalk.models", "chiralwalk.index", "chiralwalk.spectrum", "chiralwalk.verify",
           "chiralwalk.plotting", "chiralwalk.cli")


def _section_size(block_size: int, window: int) -> int:
    return block_size * (2 * int(window) + 1)


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# Dense operation counts in real floating-point operations (complex n x n):
# matrix product 8 n^3; eigenvalues with eigenvectors (zgeev) about 100 n^3;
# singular values only (zgesdd, bidiagonalisation) about 32/3 n^3.
def _residual_gflop(name, args, kwargs):
    window = _arg(args, kwargs, -1, "window")
    if name == "chiral_residual_operators":
        return 16 * _section_size(args[0].block_size, window) ** 3 / 1e9
    if name == "involution_residual_operators":
        return 8 * _section_size(args[0].block_size, window) ** 3 / 1e9
    return 16 * _section_size(2, window) ** 3 / 1e9        # equivalence_residual


def _residual_attrs(name, args, kwargs, result):
    return {"gflop": _residual_gflop(name, args, kwargs)}


def _eig_attrs(name, args, kwargs, result):
    window = _arg(args, kwargs, 1, "window")
    return {"gflop": 100 * _section_size(2, window) ** 3 / 1e9}


def _witness_attrs(name, args, kwargs, result):
    n = len(result.singular_values)
    return {"window": result.window, "gflop": 32 / 3 * n ** 3 / 1e9}


def _section_attrs(name, args, kwargs, result):
    return {"mbytes": result.matrix.nbytes / 1e6}


def _spectrum_attrs(name, args, kwargs, result):
    return {"endpoints": 2,
            "within_tol": int(result.minus.within_tolerance) + int(result.plus.within_tolerance)}


def _main_attrs(name, args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    return {"command": argv[0] if argv else ""}


# (module, attribute path, span group, attribute hook)
TARGETS = (
    ("chiralwalk.config", "load_model_config", "config.load", None),
    ("chiralwalk.config", "ModelConfig.build", "models.build", None),
    ("chiralwalk.models", "walk", "models.build", None),
    ("chiralwalk.models", "grading", "models.build", None),
    ("chiralwalk.models", "mko_walk", "models.build", None),
    ("chiralwalk.models", "mko_grading", "models.build", None),
    ("chiralwalk.models", "mko_to_um", "models.build", None),
    ("chiralwalk.models", "offdiag_block", "models.build", None),
    ("chiralwalk.lattice", "BandedOperator.compose", "lattice.compose", None),
    ("chiralwalk.lattice", "compose", "lattice.compose", None),
    ("chiralwalk.lattice", "BandedOperator.finite_section", "lattice.finite_section", _section_attrs),
    ("chiralwalk.lattice", "finite_section", "lattice.finite_section", None),
    ("chiralwalk.index", "compute_index", "index.compute", None),
    ("chiralwalk.index", "winding_numeric", "index.winding_numeric", None),
    ("chiralwalk.spectrum", "essential_spectrum", "spectrum.essential", _spectrum_attrs),
    ("chiralwalk.spectrum", "symbol_eigenvalues", "spectrum.symbol_eigenvalues", None),
    ("chiralwalk.spectrum", "SpectralSet.distance", "spectrum.set_distance", None),
    ("chiralwalk.verify", "chiral_residual_operators", "verify.residual", _residual_attrs),
    ("chiralwalk.verify", "involution_residual_operators", "verify.residual", _residual_attrs),
    ("chiralwalk.verify", "equivalence_residual", "verify.residual", _residual_attrs),
    ("chiralwalk.verify", "truncated_spectrum", "verify.eig", _eig_attrs),
    ("chiralwalk.verify", "bound_state_check", "verify.eig", _eig_attrs),
    ("chiralwalk.verify", "kernel_witness", "verify.witness", _witness_attrs),
    ("chiralwalk.plotting", "write_spectral_svg", "plotting.svg", None),
    ("chiralwalk.plotting", "render_spectral_svg", "plotting.svg", None),
    ("chiralwalk.cli", "main", "cli", _main_attrs),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    attrs: dict = field(default_factory=dict)
    op: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers; ``spans`` accumulates across installs.

    ``op`` names the request in flight; every span records it.
    """

    def __init__(self):
        self.op: str | None = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, group, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(group, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else -1, op=self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.attrs = hook(fn.__name__, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, path, group, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(group, original, hook)
            if outer:                                  # a method: patch the class
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:                     # every namespace binding it
                if vars(module).get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans) -> dict:
    """Per-layer counts, self times (ms) and derived totals for one pass.

    A call is a span whose parent is not a span of the same group, so a
    group function calling another (``walk`` calling ``grading``) counts once.
    """
    self_ms = self_times(spans)
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, s in enumerate(spans):
        nested = s.parent >= 0 and spans[s.parent].name == s.name
        add(f"{s.name}.self_ms", 1000.0 * self_ms[i])
        if not nested:
            add(f"{s.name}.calls", 1)
            if s.error is not None and s.name == "index.compute":
                add(f"index.failed.{s.error}", 1)
        if "mbytes" in s.attrs:
            add("lattice.finite_section.mbytes_computed", s.attrs["mbytes"])
        if "gflop" in s.attrs:
            add("verify.dense_gflop_computed", s.attrs["gflop"])
        if "window" in s.attrs:
            out["verify.witness.max_window"] = max(out.get("verify.witness.max_window", 0),
                                                   s.attrs["window"])
        if "endpoints" in s.attrs:
            add("spectrum.endpoints", s.attrs["endpoints"])
            add("spectrum.within_tol", s.attrs["within_tol"])
    endpoints = out.pop("spectrum.endpoints", 0)
    within = out.pop("spectrum.within_tol", 0)
    out["spectrum.oracle_within_tol_ratio"] = within / endpoints if endpoints else 0.0
    return out
