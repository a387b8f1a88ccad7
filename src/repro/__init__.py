"""repro — a reproduction of "A Study of BGP Path Vector Route Looping
Behavior" (Pei, Zhao, Massey, Zhang; ICDCS 2004).

A discrete-event BGP path-vector simulator with a transient-loop analysis
toolkit.  The typical entry points:

>>> from repro import run_experiment, tdown_clique, BgpConfig
>>> run = run_experiment(tdown_clique(6), BgpConfig.standard(mrai=5.0))
>>> run.result.convergence_time > 0
True

See :mod:`repro.experiments.figures` for drivers that regenerate every
figure of the paper's evaluation, and DESIGN.md / EXPERIMENTS.md at the
repository root for the system inventory and the reproduced results.
"""

from .bgp import VARIANT_NAMES, BgpConfig, BgpSpeaker, variant
from .engine import Scheduler
from .experiments import (
    RunSettings,
    run_experiment,
    tdown_clique,
    tdown_internet,
    tlong_internet,
)

__version__ = "1.0.0"

__all__ = [
    "BgpConfig",
    "BgpSpeaker",
    "RunSettings",
    "Scheduler",
    "VARIANT_NAMES",
    "run_experiment",
    "tdown_clique",
    "tdown_internet",
    "tlong_internet",
    "variant",
    "__version__",
]
