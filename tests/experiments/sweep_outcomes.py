"""A sweep, and every trial its outcome stream carried."""

from repro.experiments import sweep


def sweep_outcomes(xs, make_scenario, make_config, seeds=(0,), **kwargs):
    """:func:`~repro.experiments.sweep`'s point summaries, and each trial's
    outcome — its run, or its ``TrialFailure`` — in task order (x-major,
    then seed) whatever order the workers finished in."""
    heard = {}

    def hear(task, outcome):
        heard[(task.x, task.seed)] = outcome

    points = sweep(
        xs, make_scenario, make_config, seeds=seeds, on_outcome=hear, **kwargs
    )
    return points, [heard[(x, seed)] for x in xs for seed in seeds]
