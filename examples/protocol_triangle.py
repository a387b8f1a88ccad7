#!/usr/bin/env python
"""Link state vs distance vector vs path vector on one identical failure.

§2 of the paper surveys transient looping across routing-protocol families;
this example stages the comparison directly through the protocol-triangle
driver (the committed ``benchmarks/results/protocol_triangle.txt``).  All
three protocol implementations share the same network substrate,
processing-delay model, failure injection, and loop metrics, so the only
variable is the protocol.

Usage::

    python examples/protocol_triangle.py [bclique_size]
"""

import sys

from repro.experiments.figures.extensions import protocol_triangle


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print(
        f"Failing the edge-to-core link of a B-Clique-{size} under three "
        "routing protocols\n(identical substrate, delays, and metrics).\n"
    )
    print(protocol_triangle(size=size).render())
    print(
        "\nReading: link state floods fast (short inconsistency, but loops"
        "\nstill form); distance vector pays in message churn; path-vector"
        "\nBGP pays in time — its MRAI timer stretches the inconsistent"
        "\nwindow, which is exactly the paper's thesis."
    )


if __name__ == "__main__":
    main()
