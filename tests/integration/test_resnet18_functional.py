"""Full ResNet18 through the functional MAICC path, bit-for-bit.

The headline correctness result: the paper's benchmark network (all 20
mapped layers plus stem, pooling, residual adds, and the classifier) runs
through the node-group execution model — CMem data layout, filter
splitting, 256-lane sub-vectors, per-group accumulation — and reproduces
the int8 reference engine exactly at full 224x224 resolution.

~5 s on a 2-vCPU x86_64 host (fast mode does one tensordot per filter
tap), so it is not marked slow and runs under ``-m 'not slow'`` too.
"""

import numpy as np

from repro.core.functional import simulate_quantized_graph
from repro.nn import build_resnet18, quantize_graph


def test_resnet18_functional_equals_reference():
    graph = build_resnet18()
    x = np.random.default_rng(2023).normal(size=(3, 224, 224))
    qgraph = quantize_graph(graph, [x])

    reference = qgraph.forward(x)
    simulated = simulate_quantized_graph(qgraph, x)

    mismatched = [
        name for name in reference
        if not np.array_equal(reference[name], simulated[name])
    ]
    assert not mismatched, f"activations diverge at {mismatched}"

    # And the classification outcome is identical, of course.
    assert int(np.argmax(simulated[qgraph.output_name])) == int(
        np.argmax(reference[qgraph.output_name])
    )
