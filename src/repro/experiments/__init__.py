"""Experiment harnesses regenerating every table and figure of the paper.

Each module declares its simulation points as a
:class:`~repro.api.matrix.ScenarioMatrix`, exposes a ``run_*`` function
taking the uniform :class:`~repro.api.service.ExperimentContext` (built on
demand when omitted) and returning plain data structures, and a
``format_*`` helper producing the printed table; the benchmarks under
``benchmarks/`` and the examples under ``examples/`` drive these functions
through a shared :class:`~repro.api.service.SimulationService`.

| Paper artefact | Module |
| -------------- | ------ |
| Table 1 (branch analysis / compression) | :mod:`repro.experiments.table1` |
| Table 2 (security scenarios)            | :mod:`repro.experiments.table2` |
| Figure 7 (performance vs defenses)      | :mod:`repro.experiments.figure7` |
| Figure 8 (ProSpeCT synthetic mixes)     | :mod:`repro.experiments.figure8` |
| Figure 9 (power / area)                 | :mod:`repro.experiments.figure9` |
| Section 7.5 (trace-generation runtime)  | :mod:`repro.experiments.trace_runtime` |
| Section 8 Q3 (Cassandra-lite)           | :mod:`repro.experiments.cassandra_lite` |
| Section 8 Q4 (BTU flush on interrupts)  | :mod:`repro.experiments.interrupts` |
| CoreConfig design-space sweep (extra)   | :mod:`repro.experiments.sweep` |
"""

from repro.experiments.runner import WorkloadArtifacts, DESIGN_BUILDERS
from repro.experiments.registry import (
    EXPERIMENT_REGISTRY,
    ExperimentSpec,
    experiment_names,
    get_experiment,
    resolve_experiments,
)

# Importing the experiment modules populates EXPERIMENT_REGISTRY in paper
# artefact order (tables, figures, then the Section 7/8 studies).
from repro.experiments import table1  # noqa: E402,F401
from repro.experiments import table2  # noqa: E402,F401
from repro.experiments import figure7  # noqa: E402,F401
from repro.experiments import figure8  # noqa: E402,F401
from repro.experiments import figure9  # noqa: E402,F401
from repro.experiments import trace_runtime  # noqa: E402,F401
from repro.experiments import cassandra_lite  # noqa: E402,F401
from repro.experiments import interrupts  # noqa: E402,F401
from repro.experiments import sweep  # noqa: E402,F401

__all__ = [
    "WorkloadArtifacts",
    "DESIGN_BUILDERS",
    "EXPERIMENT_REGISTRY",
    "ExperimentSpec",
    "experiment_names",
    "get_experiment",
    "resolve_experiments",
]
