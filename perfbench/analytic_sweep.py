"""Workload ``analytic-sweep``: exact HAP/M/1 analysis over a parameter sweep.

One operation is one sweep point, evaluated through
:func:`repro.runtime.analytic.run_analytic_sweep` (one worker, in-process)
in sweeps of ``POINTS_PER_SWEEP`` points.  A point is a 2-application HAP
from the paper's Section-7 admission family with its own user arrival
rate and load, and runs what a figure pipeline runs for it:

* Solution 0 on the matrix-geometric (QBD) backend — HAP-to-MMPP mapping
  with mass-adaptive truncation, then the rate-matrix solve;
* the exact interarrival density and distribution on a ``GRID_POINTS``
  grid from the same mapped chain (spectral kernel build + evaluation);
* Solution 2 and M/M/1 for comparison.

Points are distinct (so the mapping cache never answers for them) and
Latin-hypercube sampled over ``USER_RATES`` x ``LOADS`` from ``--seed``,
so every sweep covers the whole family.  Work is sweep points.

Correctness per point: QBD utilization equals the mapped load; the
distribution is monotone within [0, 1] and is the integral of the density;
the exact delay is finite and at least the M/M/1 delay at the same rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

import repro.markov.spectral  # noqa: F401 — kernel classes are traced by module path
from common import Measurement
from repro.core import mmpp_mapping, solution0, solution2
from repro.core.params import HAPParameters
from repro.queueing import mm1
from repro.runtime import analytic

POINTS_PER_SWEEP = 8
GRID_POINTS = 256
USER_RATES = (0.035, 0.05)
LOADS = (0.25, 0.45)
TAIL_QUANTILE = 0.9

#: Traced layers, outermost first (``map`` and ``closed_form`` are shared
#: with the other workloads).
LAYERS = ("sweep", "point", "solution0", "map", "qbd", "kernel", "grid", "closed_form")


@dataclass(frozen=True)
class PointResult:
    """Everything one sweep point computed, plus its own latency."""

    elapsed: float
    service_rate: float
    mapped_rate: float
    utilization: float
    delay_exact: float
    delay_solution2: float
    delay_mm1: float
    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray


def point_parameters(user_rate: float) -> HAPParameters:
    """The sweep family: Section-7 admission parameters at ``user_rate``."""
    return HAPParameters.symmetric(
        user_arrival_rate=user_rate,
        user_departure_rate=0.05,
        app_arrival_rate=0.05,
        app_departure_rate=0.05,
        message_arrival_rate=0.4,
        message_service_rate=1.0,
        num_app_types=2,
        num_message_types=1,
        name="perfbench-sweep",
    )


def sweep_point(params: HAPParameters, service_rate: float) -> PointResult:
    """One point of the sweep (the task handed to the sweep runtime)."""
    started = perf_counter()
    # Program functions are called through their modules, so that a traced
    # run sees these calls too.
    exact = solution0.solve_solution0(params, service_rate, backend="qbd")
    # The same mapped chain Solution 0 just solved (a mapping-cache hit).
    mmpp = mmpp_mapping.symmetric_hap_to_mmpp(
        params, mass_tol=solution0.DEFAULT_PHASE_MASS_TOL
    ).mmpp
    grid = np.linspace(0.0, 8.0 / params.mean_message_rate, GRID_POINTS)
    density = mmpp.exact_interarrival_density(grid)
    cdf = mmpp.exact_interarrival_cdf(grid)
    delay_solution2 = solution2.solve_solution2(params, service_rate).mean_delay
    delay_mm1 = mm1.solve_mm1(params.mean_message_rate, service_rate).mean_delay
    return PointResult(
        elapsed=perf_counter() - started,
        service_rate=service_rate,
        mapped_rate=mmpp.mean_rate(),
        utilization=exact.utilization,
        delay_exact=exact.mean_delay,
        delay_solution2=delay_solution2,
        delay_mm1=delay_mm1,
        grid=grid,
        density=density,
        cdf=cdf,
    )


def _sweep_tasks(rng: np.random.Generator, sweep: int, point_fn):
    """One Latin-hypercube sweep over the family (labels unique per run)."""
    strata = (np.arange(POINTS_PER_SWEEP) + rng.random(POINTS_PER_SWEEP)) / POINTS_PER_SWEEP
    user_rates = USER_RATES[0] + (USER_RATES[1] - USER_RATES[0]) * strata
    loads = LOADS[0] + (LOADS[1] - LOADS[0]) * rng.permutation(strata)
    tasks = []
    for k, (user_rate, load) in enumerate(zip(user_rates, loads)):
        params = point_parameters(float(user_rate))
        service_rate = params.mean_message_rate / float(load)
        tasks.append((f"sweep{sweep}-point{k}", partial(point_fn, params, service_rate)))
    return tasks


def setup(seed: int) -> dict:
    """Seed the sweep generator and evaluate one point (lazy set-up)."""
    rng = np.random.default_rng([seed, 0x5EED])
    params = point_parameters(sum(USER_RATES) / 2)
    sweep_point(params, params.mean_message_rate / (sum(LOADS) / 2))
    return {"rng": rng, "point_fn": sweep_point}


def instrument(tracer, state: dict) -> None:
    """Trace the sweep runtime, the point harness and each analytic layer."""
    from repro.markov.spectral import KrylovKernel, SpectralKernel

    tracer.patch_function("repro.runtime.analytic", "run_analytic_sweep", "sweep")
    state["point_fn"] = tracer.wrap("point", sweep_point)
    tracer.patch_function("repro.core.solution0", "solve_solution0", "solution0")
    tracer.patch_function("repro.core.mmpp_mapping", "symmetric_hap_to_mmpp", "map")
    tracer.patch_function("repro.markov.matrix_geometric", "solve_mmpp_m1", "qbd")
    for kernel in (SpectralKernel, KrylovKernel):
        tracer.patch_method(kernel, "__init__", "kernel")
        tracer.patch_method(kernel, "bilinear", "grid")
    tracer.patch_function("repro.core.solution2", "solve_solution2", "closed_form")
    tracer.patch_function("repro.queueing.mm1", "solve_mm1", "closed_form")


def measure(state: dict, seconds: float):
    """Run whole sweeps until ``seconds`` have passed, timing the reference after each."""
    run = Measurement()
    evidence = []
    deadline = run.started + seconds
    sweep = 0
    while sweep == 0 or perf_counter() < deadline:
        tasks = _sweep_tasks(state["rng"], sweep, state["point_fn"])
        sweep += 1
        run.attempted += len(tasks)
        try:
            points = analytic.run_analytic_sweep(tasks, max_workers=1)
        except Exception as error:  # noqa: BLE001 — a failed sweep is counted, the run goes on
            run.failed += len(tasks)
            run.problems.append(f"sweep {sweep} raised {error!r}")
            continue
        for (label, _), point in zip(tasks, points):
            run.record(point.elapsed)
            evidence.append((label, point))
        run.calibrate()
    run.stop()
    return run, evidence


def check(state: dict, run: Measurement, evidence) -> None:
    """Count every point whose outputs are wrong as failed."""
    for label, point in evidence:
        problem = _point_problem(point)
        if problem:
            run.failed += 1
            run.problems.append(f"{label}: {problem}")


def _point_problem(point: PointResult) -> str:
    """Why a point's outputs are wrong ("" when they are right)."""
    load = point.mapped_rate / point.service_rate
    if not math.isclose(point.utilization, load, rel_tol=1e-6):
        return f"QBD utilization {point.utilization} != mapped load {load}"
    if not (math.isfinite(point.delay_exact) and point.delay_exact >= point.delay_mm1):
        return f"exact delay {point.delay_exact} below M/M/1 {point.delay_mm1}"
    if not (math.isfinite(point.delay_solution2) and point.delay_solution2 > 0.0):
        return f"Solution 2 delay {point.delay_solution2} is not positive"
    cdf, density = point.cdf, point.density
    if np.any(np.diff(cdf) < -1e-12) or cdf[0] < -1e-12 or cdf[-1] > 1.0 + 1e-9:
        return "interarrival distribution is not monotone within [0, 1]"
    if cdf[-1] < 0.9 or np.any(density < -1e-9):
        return "interarrival density is negative or misses its mass"
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(point.grid)
    integral = np.concatenate([[cdf[0]], cdf[0] + np.cumsum(steps)])
    if np.max(np.abs(integral - cdf)) > 1e-3:
        return "interarrival distribution is not the integral of the density"
    return ""


def close(state: dict) -> None:
    """Nothing outlives a sweep."""
