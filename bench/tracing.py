"""Per-layer spans for a traced pass, by wrapping module attributes.

Nothing in ncwell is edited: Tracer.install() replaces each hooked function
with a wrapper at the module attribute its caller looks it up by, and
Tracer.restore() puts every original object back.  A hook whose attribute
no longer exists is listed in Tracer.absent and its metrics read 0.

Each call of a hooked function is one span: op id, parent span, kernel,
start, end and one optional number (rows, dps, roots).  Spans are kept in
flat arrays in memory and written out once, at the end.  A kernel's self
time is its span time minus the time of its child spans.  LogScaled
arithmetic is only counted, since a timer per operation would cost more
than the operation.
"""

from __future__ import annotations

import importlib
import itertools
import math
import time
from array import array

import numpy as np

# (module, attribute, kernel); the module is where the caller looks the name up
HOOKS = (
    ("ncwell.cli", "main", "cli.main"),
    ("ncwell.core", "find_bound_states", "core.root_scan"),
    ("ncwell.core", "matching_residual_bound", "core.bound_terms"),
    ("ncwell.core", "scattering_coeffs", "core.scatter_solve"),
    ("ncwell.core", "_jy_basis_rows", "core.basis_rows"),
    ("ncwell.core", "_reu_pair", "core.reu_recurrence"),
    ("ncwell.core", "phase_shift_sweep", "core.phase_sweep"),
    ("ncwell.core", "cross_section_total", "core.pw_sum"),
    ("ncwell.core", "cross_section_differential", "core.pw_sum"),
    ("ncwell.core", "wavefunction_eval", "core.wavefunction"),
    ("ncwell.core", "_laguerre_sweep", "specfun.laguerre_sweep"),
    ("ncwell.specfun", "_laguerre_sweep", "specfun.laguerre_sweep"),
    ("ncwell.core", "laguerre", "specfun.laguerre"),
    ("ncwell.specfun", "laguerre", "specfun.laguerre"),
    ("ncwell.core", "kummer_u", "specfun.kummer_u"),
    ("ncwell.specfun", "kummer_u", "specfun.kummer_u"),
    ("ncwell.core", "_u_ratio_1m", "specfun.u_ratio"),
    ("ncwell.specfun", "_u_cf", "specfun.u_cf"),
    ("ncwell.specfun", "_u_pos_direct", "specfun.u_series"),
    ("ncwell.specfun", "_u_abs_anchor_product", "specfun.u_anchor"),
    ("ncwell.specfun", "_u_anchor_quad", "specfun.u_anchor_quad"),
    ("ncwell.core", "_reu_direct", "specfun.reu_direct"),
    ("ncwell.specfun", "_reu_direct", "specfun.reu_direct"),
    ("ncwell.specfun", "_reu_pieces_float", "specfun.reu_float"),
    ("ncwell.specfun", "_reu_direct_mp", "specfun.reu_mp"),
    ("ncwell.oracle", "bessel", "specfun.bessel"),
    ("ncwell.oracle", "bessel_deriv", "specfun.bessel"),
    ("ncwell.oracle", "comm_bound_states", "oracle.comm"),
    ("ncwell.oracle", "comm_phase_shift", "oracle.comm"),
    ("ncwell.oracle", "comm_cross_section", "oracle.comm"),
)

# the number a span records besides its times
EXTRAS = {
    "specfun.laguerre_sweep": lambda args, result: max(args[2]) + 1,  # rows swept
    "specfun.reu_mp": lambda args, result: args[3],  # dps requested
    "core.root_scan": lambda args, result: len(result),  # roots found
}

LOGSCALE_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__neg__", "__abs__")


class Tracer:
    def __init__(self):
        self.kernels = sorted({k for _, _, k in HOOKS})
        self.op_id = -1
        self.cap_hits = 0
        self.absent = []
        self._op, self._parent = array("i"), array("i")
        self._kernel = array("H")
        self._t0, self._t1, self._extra = array("d"), array("d"), array("d")
        self._stack = []
        self._saved = []
        self._ls_counter = itertools.count()

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        for mod_name, attr, kernel in HOOKS:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, kernel))
        from ncwell.logscale import LogScaled

        for name in LOGSCALE_OPS:
            fn = vars(LogScaled).get(name)
            if fn is None:
                self.absent.append(f"ncwell.logscale.LogScaled.{name}")
                continue
            self._saved.append((LogScaled, name, fn))
            setattr(LogScaled, name, self._count(fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def originals(self):
        """(owner, attribute, original object) for every wrapped attribute."""
        return list(self._saved)

    def _count(self, fn):
        tick = self._ls_counter.__next__

        def counted(*args):
            tick()
            return fn(*args)

        return counted

    def _wrap(self, fn, kernel):
        k = self.kernels.index(kernel)
        extra = EXTRAS.get(kernel)
        op, parent, kern = self._op, self._parent, self._kernel
        t0, t1, ext, stack = self._t0, self._t1, self._extra, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(kern)
            op.append(self.op_id)
            parent.append(stack[-1] if stack else -1)
            kern.append(k)
            t1.append(0.0)
            ext.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if extra is not None:
                try:
                    ext[sid] = extra(args, result)
                except (LookupError, TypeError, ValueError):
                    ext[sid] = math.nan
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------
    def arrays(self) -> dict:
        views = {
            "op": np.frombuffer(self._op, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "kernel": np.frombuffer(self._kernel, dtype=np.uint16),
            "t0": np.frombuffer(self._t0),
            "t1": np.frombuffer(self._t1),
            "extra": np.frombuffer(self._extra),
        }
        # copies: a live view would forbid the arrays from growing
        return {name: arr.copy() for name, arr in views.items()}

    def write(self, path) -> None:
        np.savez_compressed(path, kernels=np.array(self.kernels), **self.arrays())

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; see PER_LAYER."""
        a = self.arrays()
        kern, parent, extra = a["kernel"].astype(np.int64), a["parent"], a["extra"]
        dur = a["t1"] - a["t0"]
        nk = len(self.kernels)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = np.bincount(kern, weights=dur - child, minlength=nk)
        calls = np.bincount(kern, minlength=nk)
        parent_kernel = np.where(has_parent, kern[np.where(has_parent, parent, 0)], -1)
        idx = {name: i for i, name in enumerate(self.kernels)}

        def s(*names):
            return float(sum(self_t[idx[n]] for n in names))

        def n(name):
            return int(calls[idx[name]])

        def under(name, parent_name):
            return int(np.count_nonzero((kern == idx[name]) & (parent_kernel == idx[parent_name])))

        def extras(name):
            return extra[kern == idx[name]]

        def total(name):
            t = float(extras(name).sum())
            return int(t) if math.isfinite(t) else math.nan

        def ratio(num, den):
            return num / den if den else 0.0

        dps = extras("specfun.reu_mp")
        evals = under("core.bound_terms", "core.root_scan")
        values = {
            "cli.self_s": s("cli.main"),
            "core.root_scan.self_s": s("core.root_scan"),
            "core.root_scan.evals": evals,
            "core.root_scan.evals_per_root": ratio(evals, total("core.root_scan")),
            "core.bound_terms.self_s": s("core.bound_terms"),
            "core.scatter_solve.calls": n("core.scatter_solve"),
            "core.scatter_solve.self_s": s("core.scatter_solve"),
            "core.basis_rows.self_s": s("core.basis_rows"),
            "core.reu_recurrence.self_s": s("core.reu_recurrence"),
            "core.phase_sweep.self_s": s("core.phase_sweep"),
            "core.pw_sum.self_s": s("core.pw_sum"),
            "core.pw_sum.waves": under("core.scatter_solve", "core.pw_sum"),
            "core.pw_sum.cap_hits": self.cap_hits,
            "core.wavefunction.self_s": s("core.wavefunction"),
            "specfun.laguerre_sweep.calls": n("specfun.laguerre_sweep"),
            "specfun.laguerre_sweep.rows": total("specfun.laguerre_sweep"),
            "specfun.laguerre_sweep.self_s": s("specfun.laguerre_sweep"),
            "specfun.u_ratio.calls": n("specfun.u_ratio"),
            "specfun.u_ratio.cf_share": ratio(under("specfun.u_cf", "specfun.u_ratio"),
                                              n("specfun.u_ratio")),
            "specfun.u_cf.calls": n("specfun.u_cf"),
            "specfun.u_cf.self_s": s("specfun.u_cf"),
            "specfun.u_series.calls": n("specfun.u_series"),
            "specfun.u_series.self_s": s("specfun.u_series"),
            "specfun.u_anchor.calls": n("specfun.u_anchor"),
            "specfun.u_anchor.self_s": s("specfun.u_anchor", "specfun.u_anchor_quad"),
            "specfun.reu_float.calls": n("specfun.reu_float"),
            "specfun.reu_float.self_s": s("specfun.reu_float"),
            "specfun.reu_float.kept_ratio": ratio(n("specfun.reu_float") - n("specfun.reu_mp"),
                                                  n("specfun.reu_float")),
            "specfun.reu_mp.calls": n("specfun.reu_mp"),
            "specfun.reu_mp.self_s": s("specfun.reu_mp"),
            "specfun.reu_mp.max_dps": float(dps.max()) if len(dps) else 0.0,
            "specfun.bessel.calls": n("specfun.bessel"),
            "specfun.bessel.self_s": s("specfun.bessel"),
            "oracle.comm.self_s": s("oracle.comm"),
            # after k ticks the counter's next value is k; metrics() reads it once
            "logscale.ops": next(self._ls_counter),
            "trace.overhead_s": overhead_s,
        }
        for name, v in values.items():
            if isinstance(v, float) and math.isnan(v):
                values[name] = 0.0  # an extra could not be read: reported as absent
        return {name: (v, PER_LAYER[name]) for name, v in values.items()}


# metric -> unit; the order and names match BENCHMARK.json's per_layer
PER_LAYER = {
    "cli.self_s": "s",
    "core.root_scan.self_s": "s",
    "core.root_scan.evals": "count",
    "core.root_scan.evals_per_root": "ratio",
    "core.bound_terms.self_s": "s",
    "core.scatter_solve.calls": "count",
    "core.scatter_solve.self_s": "s",
    "core.basis_rows.self_s": "s",
    "core.reu_recurrence.self_s": "s",
    "core.phase_sweep.self_s": "s",
    "core.pw_sum.self_s": "s",
    "core.pw_sum.waves": "count",
    "core.pw_sum.cap_hits": "count",
    "core.wavefunction.self_s": "s",
    "specfun.laguerre_sweep.calls": "count",
    "specfun.laguerre_sweep.rows": "count",
    "specfun.laguerre_sweep.self_s": "s",
    "specfun.u_ratio.calls": "count",
    "specfun.u_ratio.cf_share": "ratio",
    "specfun.u_cf.calls": "count",
    "specfun.u_cf.self_s": "s",
    "specfun.u_series.calls": "count",
    "specfun.u_series.self_s": "s",
    "specfun.u_anchor.calls": "count",
    "specfun.u_anchor.self_s": "s",
    "specfun.reu_float.calls": "count",
    "specfun.reu_float.self_s": "s",
    "specfun.reu_float.kept_ratio": "ratio",
    "specfun.reu_mp.calls": "count",
    "specfun.reu_mp.self_s": "s",
    "specfun.reu_mp.max_dps": "digits",
    "specfun.bessel.calls": "count",
    "specfun.bessel.self_s": "s",
    "oracle.comm.self_s": "s",
    "logscale.ops": "count",
    "trace.overhead_s": "s",
}
