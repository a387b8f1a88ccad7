"""Figure 4: overall looping duration vs convergence time across sizes.

Paper shape being reproduced: the looping duration tracks the convergence
time — nearly coinciding for Tdown (panels a, c), trailing by roughly one
MRAI round for Tlong (panel b).

Runs under pytest-benchmark (the recorded studies below); ``python -m
repro figure fig4a --jobs 4`` runs the same driver on the parallel
executor, trials fanned out to worker processes with bit-identical results.
"""

from _support import record

from repro.experiments.figures import figure4a, figure4b, figure4c

CLIQUE_SIZES = (5, 8, 11, 14, 17)
BCLIQUE_SIZES = (4, 6, 8, 10, 12)
INTERNET_SIZES = (29, 48, 75, 110)


def test_fig4a_tdown_clique(benchmark):
    figure = benchmark.pedantic(
        lambda: figure4a(sizes=CLIQUE_SIZES, mrai=30.0, seeds=(0, 1)),
        rounds=1,
        iterations=1,
    )
    record(benchmark, figure)
    # Tdown: looping duration within a few seconds of convergence time.
    for loop_d, conv_t in zip(
        figure.series["looping_duration"], figure.series["convergence_time"]
    ):
        assert conv_t > 0
        assert loop_d > 0.6 * conv_t


def test_fig4b_tlong_bclique(benchmark):
    figure = benchmark.pedantic(
        lambda: figure4b(sizes=BCLIQUE_SIZES, mrai=30.0, seeds=(0, 1)),
        rounds=1,
        iterations=1,
    )
    record(benchmark, figure)
    # Tlong: the gap is positive (about one MRAI round in the paper).
    gaps = [
        conv_t - loop_d
        for loop_d, conv_t in zip(
            figure.series["looping_duration"], figure.series["convergence_time"]
        )
    ]
    assert all(gap > 0 for gap in gaps)


def test_fig4c_tdown_internet(benchmark):
    figure = benchmark.pedantic(
        lambda: figure4c(sizes=INTERNET_SIZES, mrai=30.0, seeds=(0, 1, 2)),
        rounds=1,
        iterations=1,
    )
    record(benchmark, figure)
    # Convergence time grows with topology size (paper: 527 s at n=110).
    conv = figure.series["convergence_time"]
    assert conv[-1] > conv[0]

