"""repro — a full reproduction of "HAP: A New Model for Packet Arrivals"
(Lin, Tsai, Huang, Gerla; SIGCOMM 1993).

HAP (Hierarchical Arrival Process) models network traffic as a three-level
hierarchy — users invoke applications, applications emit messages — and
shows that the resulting multi-time-scale correlation makes queueing delay
dramatically worse than Poisson or flat-MMPP models predict.

Quick start
-----------
>>> from repro import HAP
>>> hap = HAP.symmetric(
...     user_arrival_rate=0.0055, user_departure_rate=0.001,
...     app_arrival_rate=0.01, app_departure_rate=0.01,
...     message_arrival_rate=0.1, message_service_rate=20.0,
...     num_app_types=5, num_message_types=3,
... )
>>> round(hap.mean_message_rate, 2)     # the paper's lambda-bar
8.25
>>> sol = hap.solve(solution=2)         # closed-form queueing analysis
>>> result = hap.simulate(horizon=1e4)  # event-driven simulation

Package map
-----------
* :mod:`repro.core` — the HAP model, HAP-CS, on–off special cases, the
  MMPP mapping, and the paper's Solutions 0/1/2.
* :mod:`repro.markov` — CTMC/MMPP substrate and the matrix-geometric
  MMPP/M/1 solver.
* :mod:`repro.queueing` — M/M/1, M/G/1, G/M/1 (σ-algorithm) closed forms.
* :mod:`repro.sim` — the discrete-event simulator and traffic sources.
* :mod:`repro.analysis` — statistics, convergence and comparison helpers.
* :mod:`repro.control` — broadband-network control applications: admission
  tables, bandwidth allocation, CL overlay design.
* :mod:`repro.experiments` — the paper's parameter sets and per-figure
  experiment runners used by the benchmark suite.
"""

import importlib.util

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]) -> list[str]:
    """Serve a module's re-exports on first use (PEP 562); return its names.

    ``namespace`` is the calling module's ``globals()``; ``table`` maps a
    module, written relative to the caller's package (``".model"``), to the
    public names it provides.  This installs ``__getattr__``, which imports
    the module owning a name on first access and caches the name in
    ``namespace``, and ``__dir__``, which lists the names.  In a package, any
    other name is tried as a submodule (``repro.core.params``), so only an
    unknown name raises :class:`AttributeError`; an import error inside an
    existing module propagates unchanged.

    A name that is also a submodule's name (``repro.runtime.sweep``) is bound
    at once: importing that submodule later would rebind the package
    attribute to the module.
    """
    module_name = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        submodule = f"{module_name}.{name}"
        if name in owner:
            module = importlib.import_module(owner[name], namespace["__package__"])
            value = getattr(module, name)
        elif "__path__" in namespace and importlib.util.find_spec(submodule):
            value = importlib.import_module(submodule)
        else:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name in owner.keys() & {module.lstrip(".") for module in table}:
        __getattr__(name)
    return list(owner)


__all__ = [
    "__version__",
    *_lazy_exports(
        globals(),
        {
            ".core": (
                "HAP",
                "ApplicationType",
                "ClientServerApplicationType",
                "ClientServerHAPParameters",
                "ClientServerMessageType",
                "HAPParameters",
                "InterarrivalDistribution",
                "InterruptedPoisson",
                "MessageType",
                "TwoLevelHAP",
                "solve_bounded_solution2",
                "solve_solution0",
                "solve_solution1",
                "solve_solution2",
            ),
            ".queueing": ("solve_gm1", "solve_mg1", "solve_mm1"),
            ".sim": ("simulate_hap_mm1", "simulate_source_mm1"),
        },
    ),
]
