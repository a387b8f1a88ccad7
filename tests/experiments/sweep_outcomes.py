"""A sweep's trials as one trial-runner batch, every outcome kept."""

from repro.experiments import RunSettings, TrialTask
from repro.experiments.sweep import TrialRunner, summarize_points


def sweep_batch(
    xs,
    make_scenario,
    make_config,
    seeds=(0,),
    settings=RunSettings(),
    jobs=1,
    policy=None,
    digests=False,
):
    """The point summaries :func:`~repro.experiments.sweep` would print for
    these arguments, each trial's outcome — its run, or its
    ``TrialFailure`` — in task order (x-major, then seed) whatever order
    the workers finished in, and the batch's ``SupervisionReport``."""
    tasks = []
    for x in xs:
        config = make_config(x)
        tasks.extend(
            TrialTask(x, seed, make_scenario, config, settings, digests=digests)
            for seed in seeds
        )
    outcomes, report = TrialRunner(jobs, policy).run(tasks)
    return summarize_points(xs, outcomes), outcomes, report


def sweep_outcomes(*args, **kwargs):
    """:func:`sweep_batch` without the report."""
    points, outcomes, _report = sweep_batch(*args, **kwargs)
    return points, outcomes
