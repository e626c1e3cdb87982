"""Import-graph tests: a process loads only the modules its run touches.

Package ``__init__`` files re-export lazily (``repro._lazy_exports``),
``scipy.integrate``, ``scipy.special``, ``scipy.stats`` and ``networkx``
are imported inside the functions that call them, and nothing imports
``scipy.optimize``: an admission process loads no scipy.  Every case runs
in a fresh interpreter: by the time pytest runs a test, other tests have
imported most modules, which hides both an eager import and an
import-order cycle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Modules no headline-campaign process needs.
DEFERRED = (
    "networkx",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.special",
    "scipy.stats",
)

#: Entry points of the headline campaign, the CLI and an admission shard.
LEAN_IMPORTS = (
    "repro.sim.columnar_batch",
    "repro.runtime.columnar",
    "repro.experiments.headline",
    "repro.service.sharded",
    "repro.cli",
)

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.control",
    "repro.core",
    "repro.experiments",
    "repro.markov",
    "repro.queueing",
    "repro.runtime",
    "repro.service",
    "repro.sim",
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """Names in ``sys.modules`` after ``code`` ran in a fresh interpreter."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return run_fresh(textwrap.dedent(code) + report)


class TestLeanImports:
    def test_import_repro_loads_no_submodule_and_no_scipy(self):
        loaded = loaded_after("import repro")
        assert [m for m in loaded if m.startswith("repro.")] == []
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []

    @pytest.mark.parametrize("module", LEAN_IMPORTS)
    def test_entry_point_defers_solver_imports(self, module):
        loaded = loaded_after(f"import {module}")
        assert [m for m in DEFERRED if m in loaded] == []

    def test_headline_campaign_run_defers_solver_imports(self):
        loaded = loaded_after(
            f"""
            import {", ".join(LEAN_IMPORTS)}
            from repro.experiments.headline import run_headline_columnar_campaign

            campaign = run_headline_columnar_campaign(
                num_replications=1,
                sim_horizon=400.0,
                base_seed=1,
                max_workers=1,
                engine="columnar-batched",
            )
            assert campaign.completed == 1
            """
        )
        assert [m for m in DEFERRED if m in loaded] == []


class TestAdmissionWithoutScipy:
    def test_surface_build_live_solves_and_crossings_load_no_scipy(self):
        # Every sigma root and both bandwidth sizings run in-repo: an
        # admission process never loads scipy, not even on a live miss.
        loaded = loaded_after(
            """
            import asyncio

            from repro.core.interarrival import (
                InterarrivalDistribution,
                density_intersections,
            )
            from repro.core.params import HAPParameters
            from repro.experiments.configs import fig9_parameters
            from repro.service.server import AdmissionService
            from repro.service.surfaces import build_decision_surfaces

            params = HAPParameters.symmetric(
                user_arrival_rate=0.05,
                user_departure_rate=0.05,
                app_arrival_rate=0.05,
                app_departure_rate=0.05,
                message_arrival_rate=0.4,
                message_service_rate=3.0,
                num_app_types=2,
                num_message_types=1,
            )
            surfaces = build_decision_surfaces(
                params, (0.6, 0.9), max_population=2, max_workers=1
            )

            async def misses():
                with AdmissionService(surfaces) as service:
                    admit = await service.admit(1.0, 1.0, 2.0)
                    width = await service.bandwidth(2.0)
                return admit.tier, width.tier

            assert asyncio.run(misses()) == ("solve", "solve")
            crossings = density_intersections(
                InterarrivalDistribution(fig9_parameters())
            )
            assert len(crossings) == 2
            """
        )
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves(self, package):
        report = run_fresh(
            f"""
            import json, types
            import {package} as package

            listed = dir(package)
            namespace = {{}}
            exec("from {package} import *", namespace)
            try:
                package.no_such_name
                missing_error = None
            except AttributeError as error:
                missing_error = str(error)
            print(json.dumps({{
                "all": package.__all__,
                "unbound": [n for n in package.__all__ if n not in namespace],
                "modules": [
                    n for n in package.__all__
                    if isinstance(namespace.get(n), types.ModuleType)
                ],
                "not_in_dir": [n for n in package.__all__ if n not in listed],
                "missing_error": missing_error,
            }}))
            """
        )
        assert report["all"], package
        assert report["unbound"] == []
        # ``repro.runtime.sweep`` is both a submodule and an exported function.
        assert report["modules"] == []
        assert report["not_in_dir"] == []
        assert report["missing_error"] is not None
        assert repr(package) in report["missing_error"]

    def test_submodule_attribute_access(self):
        names = run_fresh(
            """
            import json
            import repro

            print(json.dumps([
                repro.core.params.HAPParameters.__name__,
                repro.__version__,
            ]))
            """
        )
        assert names == ["HAPParameters", "1.0.0"]

    def test_batch_names_listed_by_columnar_dir(self):
        listed = run_fresh(
            """
            import json
            import repro.sim.columnar as columnar

            print(json.dumps(dir(columnar)))
            """
        )
        assert {
            "sample_mmpp_streams_batch",
            "simulate_hap_approx_columnar_batch",
            "simulate_mmpp_columnar_batch",
            "simulate_poisson_columnar_batch",
        } <= set(listed)


class TestExamples:
    def test_every_example_imports(self):
        # Loaded under a non-``__main__`` name, so only the imports and
        # module-level definitions run: an example that imports a removed
        # public name fails here.
        loaded = run_fresh(
            f"""
            import importlib.util, json
            from pathlib import Path

            loaded = []
            for path in sorted(Path({str(EXAMPLES)!r}).glob("*.py")):
                spec = importlib.util.spec_from_file_location(
                    "example_" + path.stem, path
                )
                spec.loader.exec_module(importlib.util.module_from_spec(spec))
                loaded.append(path.name)
            print(json.dumps(loaded))
            """
        )
        assert loaded
        assert loaded == sorted(path.name for path in EXAMPLES.glob("*.py"))
