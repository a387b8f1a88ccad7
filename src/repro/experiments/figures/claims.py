"""The claims table: one row per committed result under benchmarks/results/.

A row names the driver that regenerates ``benchmarks/results/<id>.txt``.
The driver's defaults *are* the committed parameters, so ``repro figure
<id>`` reprints that file byte for byte and its checks are the claim.  A
row also carries

* ``quick`` — toy parameters for ``repro figure <id> --quick``; rows that
  take under 0.3 s at claim parameters have none, run those under
  ``--quick`` too, and are byte-compared against their file by the tests;
* ``divergences`` — check names that fail at claim parameters *by
  design*, mapped to their number in EXPERIMENTS.md's "Known divergences".
  Such a check must keep failing: one that starts to hold is as much a
  finding as a claim that stops holding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ...core import ObservationCheck
from .ablation import (
    ablation_dataplane,
    ablation_jitter,
    ablation_mrai,
    ablation_processing_delay,
    mrai_optimum,
)
from .extensions import (
    churn_flap_period,
    combinations_clique,
    combinations_internet,
    damping,
    detection_latency,
    policy_ablation,
    protocol_triangle,
)
from .fig4 import figure4a, figure4b, figure4c
from .fig5 import figure5a, figure5b
from .fig6 import figure6a, figure6b, figure6c
from .fig7 import figure7a, figure7b
from .fig8 import figure8a, figure8b, figure8c, figure8d
from .fig9 import figure9a, figure9b, figure9c, figure9d
from .loops import detour_delay, exploration, loop_statistics
from .observations import observation1, observation2, observation3
from .tagg import figure_tagg
from .theory import theory_bound_figure
from .tradeoff import tradeoff_bclique, tradeoff_internet


@dataclass(frozen=True)
class Claim:
    """One committed result: its driver, toy parameters, known divergences."""

    driver: Callable[..., Any]
    quick: Optional[Mapping[str, Any]] = None
    divergences: Mapping[str, int] = field(default_factory=dict)

    def problems(self, checks: Sequence[ObservationCheck]) -> List[str]:
        """Why the claim is not reproduced at claim parameters (empty: it is).

        Every check must hold except the listed divergences, which must
        still fail.
        """
        found = {check.name for check in checks}
        lines = [
            f"known divergence {self.divergences[name]} (EXPERIMENTS.md) "
            f"check {name!r} is missing"
            for name in self.divergences
            if name not in found
        ]
        for check in checks:
            number = self.divergences.get(check.name)
            if number is None and not check.holds:
                lines.append(f"claim not reproduced: {check}")
            elif number is not None and check.holds:
                lines.append(
                    f"known divergence {number} (EXPERIMENTS.md) now holds; "
                    f"drop it from the claims table and the docs: {check}"
                )
        return lines


_TINY_SIZES = dict(sizes=(3, 4), mrai=2.0, seeds=(0,))
_TINY_INTERNET = dict(sizes=(12,), mrai=2.0, seeds=(0,))
_TINY_MRAI = dict(mrai_values=(1.0, 2.0, 3.0), seeds=(0,))

CLAIMS: Dict[str, Claim] = {
    "fig4a": Claim(figure4a, dict(sizes=(3, 4, 5), mrai=2.0, seeds=(0,))),
    "fig4b": Claim(figure4b, _TINY_SIZES),
    "fig4c": Claim(figure4c, dict(sizes=(12, 16), mrai=2.0, seeds=(0,))),
    "fig5a": Claim(figure5a, dict(_TINY_MRAI, clique_size=4)),
    "fig5b": Claim(figure5b, dict(_TINY_MRAI, bclique_size=4)),
    "fig6a": Claim(figure6a, dict(sizes=(3, 4, 5), mrai=2.0, seeds=(0,))),
    "fig6b": Claim(figure6b, _TINY_SIZES),
    "fig6c": Claim(figure6c, dict(sizes=(12, 16), mrai=2.0, seeds=(0,))),
    "fig7a": Claim(figure7a, dict(_TINY_MRAI, clique_size=4)),
    "fig7b": Claim(figure7b),
    "fig8a": Claim(figure8a, _TINY_SIZES),
    "fig8b": Claim(figure8b, _TINY_SIZES),
    "fig8c": Claim(figure8c, _TINY_INTERNET),
    "fig8d": Claim(figure8d, _TINY_INTERNET),
    "fig9a": Claim(figure9a, _TINY_SIZES),
    "fig9b": Claim(figure9b, _TINY_SIZES),
    "fig9c": Claim(
        figure9c, _TINY_INTERNET, divergences={"obs3-wrate-regression": 1}
    ),
    "fig9d": Claim(figure9d, _TINY_INTERNET),
    "tagg": Claim(
        figure_tagg,
        dict(prefix_counts=(8, 16), clique_size=4, origins=2, hold=5.0, mrai=2.0),
    ),
    "theory": Claim(theory_bound_figure),
    "observation1": Claim(observation1, dict(_TINY_MRAI, clique_size=4)),
    "observation2": Claim(observation2, dict(_TINY_MRAI, clique_size=4)),
    "observation3": Claim(
        observation3, dict(internet_size=12, mrai=2.0, seeds=(0,))
    ),
    "ablation_dataplane": Claim(ablation_dataplane),
    "ablation_mrai": Claim(ablation_mrai),
    "ablation_jitter": Claim(ablation_jitter),
    "ablation_processing_delay": Claim(ablation_processing_delay),
    "mrai_optimum": Claim(
        mrai_optimum, dict(mrai_values=(0.25, 1.0, 5.0), clique_size=4, seeds=(0,))
    ),
    "tradeoff_bclique": Claim(tradeoff_bclique, dict(size=4, mrai=2.0, seeds=(0,))),
    "tradeoff_internet": Claim(
        tradeoff_internet, dict(size=12, mrai=2.0, seeds=(0,))
    ),
    "combinations_clique": Claim(combinations_clique),
    "combinations_internet": Claim(
        combinations_internet, dict(size=12, mrai=2.0, seeds=(0,))
    ),
    "policy_ablation": Claim(policy_ablation, _TINY_INTERNET),
    "loop_statistics": Claim(
        loop_statistics,
        dict(clique_size=5, bclique_size=4, internet_size=12, mrai=2.0, seeds=(0,)),
    ),
    "exploration": Claim(exploration, dict(sizes=(3, 4, 5), mrai=2.0, seeds=(0,))),
    "detection_latency": Claim(detection_latency, dict(hold_times=(3.0, 9.0), size=3)),
    "detour_delay": Claim(detour_delay),
    "damping": Claim(damping),
    "churn_flap_period": Claim(churn_flap_period),
    "protocol_triangle": Claim(protocol_triangle),
}
