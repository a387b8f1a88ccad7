"""The drivers behind every committed result, and the claims table over them.

Each paper figure has a ``figureNx`` driver (one module per figure) that
runs its sweep and returns a :class:`~repro.experiments.report.FigureData`:
the measured series plus the paper's shape claims as machine checks.  The
§3.2 bound, Tagg, the Observations, the ablations and the extension
studies have drivers too; the table-shaped ones return a
:class:`~repro.experiments.report.TableData`.

Every driver's defaults are the parameters of its committed
``benchmarks/results/<id>.txt``, and :data:`CLAIMS` maps each id to its
driver: ``repro figure <id>`` reprints that file byte for byte and exits
non-zero when a claim stops holding.  The drivers still take size/seed
parameters, so paper-scale or toy sweeps are one call away.
"""

from .claims import CLAIMS, Claim
from .common import metric_sweep_figure, normalize_to, variant_comparison_series
from .fig4 import figure4a, figure4b, figure4c
from .fig5 import figure5a, figure5b
from .fig6 import figure6a, figure6b, figure6c
from .fig7 import figure7a, figure7b
from .fig8 import figure8a, figure8b, figure8c, figure8d
from .fig9 import figure9a, figure9b, figure9c, figure9d
from .tagg import figure_tagg
from .theory import theory_bound_figure
from .tradeoff import FateBreakdown, packet_fate_breakdown

__all__ = [
    "CLAIMS",
    "Claim",
    "FateBreakdown",
    "figure4a",
    "figure4b",
    "figure4c",
    "figure5a",
    "figure5b",
    "figure6a",
    "figure6b",
    "figure6c",
    "figure7a",
    "figure7b",
    "figure8a",
    "figure8b",
    "figure8c",
    "figure8d",
    "figure9a",
    "figure9b",
    "figure9c",
    "figure9d",
    "figure_tagg",
    "metric_sweep_figure",
    "normalize_to",
    "packet_fate_breakdown",
    "theory_bound_figure",
    "variant_comparison_series",
]
