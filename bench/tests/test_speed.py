"""The speed gauge's rescaling, on made-up probes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import speed  # noqa: E402

REF = speed.REF_KERNEL_NS


def test_stretches_are_cut_at_probes_and_scaled_by_their_neighbours():
    g = speed.Gauge()
    # (start, end, kernel ns): one probe before the window, one inside, one after
    g.probes = [(0, 10, REF), (50, 60, 3 * REF), (200, 210, REF)]
    wall, rescaled = g.rescale(0, 2, 20, 180)
    assert wall == (50 - 20) + (180 - 60)      # probe time is left out
    assert rescaled == wall * 2 / (1 + 3)      # both stretches sit between REF and 3*REF


def test_reference_speed_leaves_wall_time_as_it_is():
    g = speed.Gauge()
    g.probes = [(0, 10, REF), (1_000, 1_010, REF)]
    assert g.rescale(0, 1, 10, 1_000) == (990, 990.0)


def test_timed_returns_the_result_and_stops_cleanly():
    g = speed.Gauge()
    g.start()
    try:
        out, wall, rescaled = g.timed(sum, range(100_000))
    finally:
        g.stop()
    assert out == sum(range(100_000))
    assert wall > 0 and rescaled > 0
