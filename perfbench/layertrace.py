"""Per-layer spans around the program's layer entry points.

The tracer wraps each function in ``LAYER_FUNCTIONS`` from outside the
package: the wrapper replaces the function's name in every ``mpdsa``
module that holds it (its own module and every module that imported it),
and methods are replaced on their class.  Each call records a span; a
layer's self time is its span minus the spans of the wrapped calls made
inside it, so helpers that are not wrapped (``potential_energy`` inside
``assemble_hamiltonian``, say) count towards the layer that called them.
Counters record the work a call was given.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, name) of every wrapped entry point, one span per call
LAYER_FUNCTIONS = (
    ("configspace", "enumerate_ball"),
    ("disorder", "sample_field"),
    ("operators", "assemble_hamiltonian"),
    ("spectral", "diagonalize"),
    ("msa", "AuditContext.eigensystem"),
    ("msa", "is_E_CNR"),
    ("msa", "is_m_loc"),
    ("msa", "is_m_tunneling"),
    ("msa", "ns_flags"),
    ("msa", "predicate_report"),
    ("msa", "verify_implications"),
    ("experiments", "ef_correlator"),
    ("experiments", "propagator_sup"),
    ("experiments", "estimate_event_probability"),
    ("runconfig", "load_config"),
    ("cli", "RunWriter.write_csv"),
    ("cli", "RunWriter.finalize"),
    ("cli", "main"),
)


# span name -> (counter name, work of one call, taking the call's arguments)
COUNTERS = {
    "disorder.sample_field": (
        "disorder.sites_sampled",
        lambda model, region, seed: len(region),
    ),
    "operators.assemble_hamiltonian": (
        "operators.rows_assembled",
        lambda spec, ball, sample=None: len(ball),
    ),
    "spectral.diagonalize": ("spectral.diagonalize.n3_sum", lambda op: op.n**3),
    "msa.ns_flags": (
        "msa.ns_flags.energies",
        lambda es, energies, params, m=None: int(np.size(energies)),
    ),
    "experiments.propagator_sup": (
        "experiments.propagator_sup.phase_evals",
        lambda es, x, y, t_grid: es.n * len(t_grid),
    ),
}


class Tracer:
    """Span and counter store of one process; ``install`` wraps the layers."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        # (parent span, child span) -> calls
        self.edges: Counter = Counter()
        self._stack: list = []

    def _wrap(self, name: str, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack
        counters = self.counters
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] += counter[1](*args, **kwargs)
            if stack:
                edges[stack[-1][0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span

        return wrapper

    def install(self) -> None:
        replaced = {}
        for module_name, qualname in LAYER_FUNCTIONS:
            module = importlib.import_module(f"mpdsa.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapped = self._wrap(f"{module_name}.{qualname}", original)
            if owner_name:
                setattr(owner, attr, wrapped)
            else:
                replaced[original] = wrapped
        for module_name, module in list(sys.modules.items()):
            if module_name != "mpdsa" and not module_name.startswith("mpdsa."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    def report(self) -> dict:
        names = [f"{m}.{q}" for m, q in LAYER_FUNCTIONS]
        return {
            "calls": {n: self.calls[n] for n in names},
            "self_s": {n: self.self_s[n] for n in names},
            "counters": dict(self.counters),
            "eigensystem_builds": self.edges["msa.AuditContext.eigensystem", "spectral.diagonalize"],
        }
