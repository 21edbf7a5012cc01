"""Spans around calls into the package's public functions, opened from the
benchmark's own files; nothing under src/ changes.

A traced function is replaced at every binding site: the defining module,
every module that copied the name with ``from .x import y`` (for example
``spectral.generate_algebra``, ``harness.gns``, ``qspace.sasaki_product``),
and the package namespace.  Function-local imports (``from .linalg import
proj_meet`` inside ``qspace``) and module-global lookups
(``FdAlgebra.decomposition`` reaching ``block_decompose``) resolve to the
patched defining module at call time.  Methods are patched on their class:
``Projector.__post_init__`` counts projector constructions.

Spans are kept in memory as (name, start, end, parent, command) and reduced
when the run ends.  A span's self time is its duration minus its children's,
so when every span nests inside its parent and belongs to its parent's
command, the self times of one command add up to its root span, the CLI
call.  ``reduce`` checks that nesting, that the CLI call is the only root,
and that each root span lies within the command time the closed loop
measured around it, by a median gap below ROOT_GAP_TOL_S.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = "cli"
# a root span sits inside the loop's timing of its command.  The gap is the
# loop's output redirection, tens of microseconds, unless a garbage
# collection or the host pauses the process in it, so the check is on the
# median gap of a pass
ROOT_GAP_TOL_S = 1e-3

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "linalg.op_norm": ("linalg", "op_norm"),
    "linalg.hermitian_eig": ("linalg", "hermitian_eig"),
    "linalg.orthonormalize": ("linalg", "orthonormalize"),
    "linalg.proj_meet": ("linalg", "proj_meet"),
    "linalg.proj_join": ("linalg", "proj_join"),
    "linalg.sasaki_product": ("linalg", "sasaki_product"),
    "algebra.generate_algebra": ("algebra", "generate_algebra"),
    "algebra.center_basis": ("algebra", "center_basis"),
    "algebra.block_decompose": ("algebra", "block_decompose"),
    "algebra.gns": ("algebra", "gns"),
    "algebra.commutant_basis": ("algebra", "commutant_basis"),
    "algebra.hat": ("algebra", "hat"),
    "qspace.hat_as_qfunction": ("qspace", "hat_as_qfunction"),
    "qspace.qfunction_star": ("qspace", "qfunction_star"),
    "qspace.thm3_diagnostics": ("qspace", "thm3_diagnostics"),
    "spectral.sigma_big": ("spectral", "sigma_big"),
    "spectral.invariant_subspace": ("spectral", "invariant_subspace"),
    "oml.verify_oml": ("oml", "verify_oml"),
    "oml.is_boolean": ("oml", "is_boolean"),
    "oml.is_distributive": ("oml", "is_distributive"),
    "sasaki.enumerate_semigroup": ("sasaki", "enumerate_semigroup"),
    "sasaki.closed_projections": ("sasaki", "closed_projections"),
    "harness.run_suite": ("harness", "run_suite"),
}
# span name -> (module, class, attribute) of methods and classmethods
METHODS = {
    "linalg.Projector": [("linalg", "Projector", "__post_init__")],
    "qspace.sup_norm": [("qspace", "QFunction", "sup_norm")],
    "oml.load": [("oml", "FiniteOml", "from_json"), ("oml", "SetOml", "from_json")],
}

# spans reported as .calls and .self_s, and spans reported as .self_s only
CALLS_SELF = ["linalg.op_norm", "linalg.Projector", "linalg.hermitian_eig",
              "linalg.orthonormalize", "linalg.proj_meet", "linalg.proj_join",
              "algebra.generate_algebra", "algebra.block_decompose", "algebra.gns",
              "algebra.commutant_basis", "algebra.hat", "qspace.hat_as_qfunction",
              "qspace.qfunction_star", "qspace.sup_norm", "spectral.sigma_big"]
SELF_ONLY = ["algebra.center_basis", "qspace.thm3_diagnostics",
             "spectral.invariant_subspace", "oml.load", "oml.verify_oml",
             "oml.is_boolean", "oml.is_distributive", "sasaki.enumerate_semigroup",
             "sasaki.closed_projections", "harness.run_suite", ROOT]


def _generator_key(args) -> str:
    h = hashlib.sha1()
    for g in args[0]:
        h.update(np.ascontiguousarray(g, dtype=complex).tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` patch
    and restore every binding site."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.command = -1  # index of the running command in the pass
        self.cycle = -1
        self.generator_keys: dict[int, set] = defaultdict(set)
        self.generator_calls = 0
        self.semigroup_elements = 0
        # ru_maxrss (KiB) at each command start and at each center_basis end
        self.command_rss: dict[int, int] = {}
        self.center_basis_rss_growth_kib = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (name, t0, t1, parent, self.command)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_generate(self, args, result):
        self.generator_calls += 1
        self.generator_keys[self.cycle].add(_generator_key(args))

    def _observe_semigroup(self, args, result):
        self.semigroup_elements += result.size

    def _observe_center(self, args, result):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        growth = rss - self.command_rss.get(self.command, rss)
        self.center_basis_rss_growth_kib = max(self.center_basis_rss_growth_kib, growth)

    def start_command(self, index: int):
        self.command = index
        self.command_rss[index] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "qgelfand" or k.startswith("qgelfand.")]
        observers = {"algebra.generate_algebra": self._observe_generate,
                     "sasaki.enumerate_semigroup": self._observe_semigroup,
                     "algebra.center_basis": self._observe_center}
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[f"qgelfand.{mod}"], attr)
            wrapper = self.wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, sites in METHODS.items():
            for mod, cls_name, attr in sites:
                cls = getattr(sys.modules[f"qgelfand.{mod}"], cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self.wrap(name, original.__func__))
                else:
                    wrapper = self.wrap(name, original)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def reduce(self, cycles: int, durations: list[float]) -> tuple[dict, dict]:
        """(per-layer metrics per traced cycle, consistency facts).

        durations[i] is the closed loop's time of command i.  Counts and
        times are divided by the number of traced cycles, so they compare
        across runs that fit a different number of cycles."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        misnested = 0
        for name, t0, t1, parent, cmd in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                _, p0, p1, _, pcmd = spans[parent]
                misnested += not (p0 <= t0 <= t1 <= p1 and cmd == pcmd)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        roots = defaultdict(list)
        orphans = 0
        # time under thm3 in op_norm called from Projector validation, and
        # under sigma_big in closure plus decomposition
        in_thm3 = [False] * n
        in_sigma = [False] * n
        op_norm_in_projector_thm3 = 0.0
        closure_in_sigma = 0.0
        for i, (name, t0, t1, parent, cmd) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur - child[i]
            total_s[name] += dur
            if parent < 0:
                roots[cmd].append(dur)
                orphans += name != ROOT
                continue
            in_thm3[i] = in_thm3[parent] or spans[parent][0] == "qspace.thm3_diagnostics"
            in_sigma[i] = in_sigma[parent] or spans[parent][0] == "spectral.sigma_big"
            if (name == "linalg.op_norm" and in_thm3[i]
                    and spans[parent][0] == "linalg.Projector"):
                op_norm_in_projector_thm3 += dur
            if in_sigma[i] and name in ("algebra.generate_algebra",
                                        "algebra.block_decompose"):
                closure_in_sigma += dur
        # every command has exactly one root span, which the loop's own
        # timing of that command covers
        root_mismatches = sum(
            not (0 <= i < len(durations) and len(roots[i]) == 1
                 and durations[i] >= roots[i][0])
            for i in set(roots) | set(range(len(durations))))
        gaps = [d - roots[i][0] for i, d in enumerate(durations) if len(roots[i]) == 1]

        def share(part, whole):
            return part / whole if whole > 0 else 0.0

        c = max(cycles, 1)
        metrics = {}
        for name in CALLS_SELF:
            metrics[f"{name}.calls"] = calls[name] / c
            metrics[f"{name}.self_s"] = self_s[name] / c
        for name in SELF_ONLY:
            metrics[f"{name}.self_s"] = self_s[name] / c
        metrics["linalg.sasaki_product.calls"] = calls["linalg.sasaki_product"] / c
        metrics["linalg.sasaki_product.total_s"] = total_s["linalg.sasaki_product"] / c
        metrics["algebra.generate_algebra.distinct_ratio"] = share(
            sum(len(keys) for keys in self.generator_keys.values()), self.generator_calls)
        metrics["sasaki.semigroup_elements"] = self.semigroup_elements / c
        metrics["share.center_basis_of_block_decompose"] = share(
            total_s["algebra.center_basis"], total_s["algebra.block_decompose"])
        metrics["share.op_norm_in_projector_of_thm3"] = share(
            op_norm_in_projector_thm3, total_s["qspace.thm3_diagnostics"])
        metrics["share.closure_of_sigma_big"] = share(
            closure_in_sigma, total_s["spectral.sigma_big"])

        facts = {
            "spans": n,
            "commands": len(roots),
            "orphan_spans": orphans,
            "misnested_spans": misnested,
            "root_mismatches": root_mismatches,
            "root_gap_median_s": statistics.median(gaps) if gaps else float("inf"),
            "center_basis_rss_growth_mb": self.center_basis_rss_growth_kib / 1024,
            "top_self_s_per_cycle": dict(sorted(
                ((k, v / c) for k, v in self_s.items()), key=lambda kv: -kv[1])[:12]),
        }
        return metrics, facts

    def write_spans(self, path: Path):
        """One JSON array per line: name, start, end, parent, command."""
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
