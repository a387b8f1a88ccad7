"""Pinned whole-run digests across the speaker's configuration matrix.

Each row fixes one run — scenario family × §5 variant × MRAI mode × UPDATE
packing × seed, all at MRAI 2 s — and pins the first 16 hex digits of its
:func:`~repro.analysis.determinism.fingerprint_run` digest (message trace,
FIB change log and summary).  Session-layer families (Treset, Tcrash, Tflap)
run with :func:`~repro.experiments.with_session_timers`, as their schedule
demands.  A refactor of the speaker, the MRAI timers or the RIBs that keeps
behaviour must keep every row; a row that moves is a behaviour change to
explain, not a table to regenerate.

Every (family, variant) pair appears twice, each time under a different
(mode, packing, seed) combination, so all four mode × packing combinations
are covered for every family.

Regenerate — only for a change that is *meant* to alter runs — with
``PYTHONPATH=src python tests/integration/test_pinned_digests.py`` and paste
its output over ``PINNED``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.determinism import fingerprint_run
from repro.bgp import MRAI_PER_PEER, MRAI_PER_PREFIX, VARIANT_NAMES, variant
from repro.experiments import run_experiment, with_session_timers
from repro.experiments.scenarios import (
    tagg_clique,
    tcrash_clique,
    tdown_clique,
    tdown_internet,
    tflap_bclique,
    tlong_bclique,
    treset_clique,
)

MRAI = 2.0

FAMILIES = {
    "tdown-clique-6": lambda: tdown_clique(6),
    "tlong-bclique-5": lambda: tlong_bclique(5),
    "tdown-internet-24": lambda: tdown_internet(24, seed=0),
    "treset-clique-5": lambda: treset_clique(5),
    "tcrash-clique-5": lambda: tcrash_clique(5, restart_after=10.0),
    "tflap-bclique-4": lambda: tflap_bclique(4, period=3.0, count=2),
    "tagg-clique-4-p32": lambda: tagg_clique(4, prefixes=32, hold=10.0),
}

COMBINATIONS = [
    (MRAI_PER_PREFIX, False),
    (MRAI_PER_PREFIX, True),
    (MRAI_PER_PEER, False),
    (MRAI_PER_PEER, True),
]


def matrix():
    """The pinned rows' keys: ``(family, variant, mode, batched, seed)``."""
    rows = []
    for s, family in enumerate(FAMILIES):
        for shift in (0, 2):
            for i, name in enumerate(VARIANT_NAMES):
                mode, batched = COMBINATIONS[(i + s + shift) % 4]
                rows.append((family, name, mode, batched, (i + s + shift // 2) % 2))
    return rows


def digest(family, name, mode, batched, seed) -> str:
    scenario = FAMILIES[family]()
    config = replace(variant(name, mrai=MRAI), mrai_mode=mode, batch_updates=batched)
    if scenario.needs_sessions:
        config = with_session_timers(config)
    run = run_experiment(scenario, config, seed=seed, keep_network=True)
    return fingerprint_run(run).digest[:16]


def row_id(row) -> str:
    family, name, mode, batched, seed = row
    return f"{family}-{name}-{mode}-{'batched' if batched else 'plain'}-s{seed}"


PINNED = {
    "tdown-clique-6-standard-per-prefix-plain-s0": "2cbc577d3d10db43",
    "tdown-clique-6-ssld-per-prefix-batched-s1": "012ae503e5caaa33",
    "tdown-clique-6-wrate-per-peer-plain-s0": "27c39f21f1773379",
    "tdown-clique-6-assertion-per-peer-batched-s1": "55a8ae60a707b8ca",
    "tdown-clique-6-ghost-flushing-per-prefix-plain-s0": "a9bc59bc557f2773",
    "tdown-clique-6-standard-per-peer-plain-s1": "a61aa7b991a1a1f1",
    "tdown-clique-6-ssld-per-peer-batched-s0": "38868ac120d0060d",
    "tdown-clique-6-wrate-per-prefix-plain-s1": "17226a84bf9ddcd0",
    "tdown-clique-6-assertion-per-prefix-batched-s0": "56f3203ee73387ef",
    "tdown-clique-6-ghost-flushing-per-peer-plain-s1": "206745bf383891ae",
    "tlong-bclique-5-standard-per-prefix-batched-s1": "c642ba26ef323c33",
    "tlong-bclique-5-ssld-per-peer-plain-s0": "4e4bdd15e954bfd9",
    "tlong-bclique-5-wrate-per-peer-batched-s1": "84899bee206e7694",
    "tlong-bclique-5-assertion-per-prefix-plain-s0": "caec64a8af102574",
    "tlong-bclique-5-ghost-flushing-per-prefix-batched-s1": "bc7d6cee5d895017",
    "tlong-bclique-5-standard-per-peer-batched-s0": "58ee9d442ce5f49a",
    "tlong-bclique-5-ssld-per-prefix-plain-s1": "3b45cc690c55cdc8",
    "tlong-bclique-5-wrate-per-prefix-batched-s0": "d7ea6f67d4f48d34",
    "tlong-bclique-5-assertion-per-peer-plain-s1": "d3264b4a37311f98",
    "tlong-bclique-5-ghost-flushing-per-peer-batched-s0": "a8afc261aa3759fd",
    "tdown-internet-24-standard-per-peer-plain-s0": "8ee62ff9e323d7a9",
    "tdown-internet-24-ssld-per-peer-batched-s1": "f5d2821e34c7fb7a",
    "tdown-internet-24-wrate-per-prefix-plain-s0": "8316aaa35ae0e233",
    "tdown-internet-24-assertion-per-prefix-batched-s1": "958481d9e28d2c5e",
    "tdown-internet-24-ghost-flushing-per-peer-plain-s0": "fffb67a14e235381",
    "tdown-internet-24-standard-per-prefix-plain-s1": "3f9b54ac89b20c81",
    "tdown-internet-24-ssld-per-prefix-batched-s0": "595880355693cd35",
    "tdown-internet-24-wrate-per-peer-plain-s1": "48c060bbd02f5dd1",
    "tdown-internet-24-assertion-per-peer-batched-s0": "97c02527b9aac041",
    "tdown-internet-24-ghost-flushing-per-prefix-plain-s1": "5213270717f7d483",
    "treset-clique-5-standard-per-peer-batched-s1": "7950a79f5f6c1ef6",
    "treset-clique-5-ssld-per-prefix-plain-s0": "ab9cb301e35087bc",
    "treset-clique-5-wrate-per-prefix-batched-s1": "7950a79f5f6c1ef6",
    "treset-clique-5-assertion-per-peer-plain-s0": "d75a9c0d7e9e2861",
    "treset-clique-5-ghost-flushing-per-peer-batched-s1": "7950a79f5f6c1ef6",
    "treset-clique-5-standard-per-prefix-batched-s0": "1429f5642fd2efe8",
    "treset-clique-5-ssld-per-peer-plain-s1": "a1c5143afa35fef6",
    "treset-clique-5-wrate-per-peer-batched-s0": "1429f5642fd2efe8",
    "treset-clique-5-assertion-per-prefix-plain-s1": "dff167d4221382ac",
    "treset-clique-5-ghost-flushing-per-prefix-batched-s0": "1429f5642fd2efe8",
    "tcrash-clique-5-standard-per-prefix-plain-s0": "008078a47328fe3d",
    "tcrash-clique-5-ssld-per-prefix-batched-s1": "c837dff1bbb2b53f",
    "tcrash-clique-5-wrate-per-peer-plain-s0": "008078a47328fe3d",
    "tcrash-clique-5-assertion-per-peer-batched-s1": "c0afc5e6ce603eeb",
    "tcrash-clique-5-ghost-flushing-per-prefix-plain-s0": "008078a47328fe3d",
    "tcrash-clique-5-standard-per-peer-plain-s1": "a96b94ff7d518ea8",
    "tcrash-clique-5-ssld-per-peer-batched-s0": "19e6c8d4e71247e0",
    "tcrash-clique-5-wrate-per-prefix-plain-s1": "a96b94ff7d518ea8",
    "tcrash-clique-5-assertion-per-prefix-batched-s0": "60ca5402758c39c5",
    "tcrash-clique-5-ghost-flushing-per-peer-plain-s1": "a96b94ff7d518ea8",
    "tflap-bclique-4-standard-per-prefix-batched-s1": "ad164e53fe00742a",
    "tflap-bclique-4-ssld-per-peer-plain-s0": "e7f772afec5b3592",
    "tflap-bclique-4-wrate-per-peer-batched-s1": "beb907a9905d3e99",
    "tflap-bclique-4-assertion-per-prefix-plain-s0": "8404570da88b10ca",
    "tflap-bclique-4-ghost-flushing-per-prefix-batched-s1": "bb964800605833be",
    "tflap-bclique-4-standard-per-peer-batched-s0": "b4fdc950e7b4e94a",
    "tflap-bclique-4-ssld-per-prefix-plain-s1": "17dd305a157c9399",
    "tflap-bclique-4-wrate-per-prefix-batched-s0": "8509ccc02d6f47e2",
    "tflap-bclique-4-assertion-per-peer-plain-s1": "d8eed364afdae522",
    "tflap-bclique-4-ghost-flushing-per-peer-batched-s0": "d4d111e85696cdca",
    "tagg-clique-4-p32-standard-per-peer-plain-s0": "6910cd98b9633998",
    "tagg-clique-4-p32-ssld-per-peer-batched-s1": "990e6aad1ba24b68",
    "tagg-clique-4-p32-wrate-per-prefix-plain-s0": "20ee6eb4e07ee8cd",
    "tagg-clique-4-p32-assertion-per-prefix-batched-s1": "368d8c04d3b7c8b0",
    "tagg-clique-4-p32-ghost-flushing-per-peer-plain-s0": "827326589866c4ca",
    "tagg-clique-4-p32-standard-per-prefix-plain-s1": "8fb6db7f9c21031b",
    "tagg-clique-4-p32-ssld-per-prefix-batched-s0": "442e022b595aceff",
    "tagg-clique-4-p32-wrate-per-peer-plain-s1": "22c6abf5ea1b6ae3",
    "tagg-clique-4-p32-assertion-per-peer-batched-s0": "9d2afa66d7a34b7a",
    "tagg-clique-4-p32-ghost-flushing-per-prefix-plain-s1": "8fb6db7f9c21031b",
}


@pytest.mark.parametrize("row", matrix(), ids=row_id)
def test_digest_is_pinned(row):
    assert digest(*row) == PINNED[row_id(row)]


def test_matrix_covers_every_family_variant_and_combination():
    rows = matrix()
    assert set(PINNED) == {row_id(row) for row in rows}
    for family in FAMILIES:
        mine = [row for row in rows if row[0] == family]
        assert {row[1] for row in mine} == set(VARIANT_NAMES)
        assert {(row[2], row[3]) for row in mine} == set(COMBINATIONS)
        assert {row[4] for row in mine} == {0, 1}


if __name__ == "__main__":
    print("PINNED = {")
    for row in matrix():
        print(f'    "{row_id(row)}": "{digest(*row)}",')
    print("}")
