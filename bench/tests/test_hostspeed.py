"""The host-speed probe is fixed work that the cyclic GC never sees."""

import gc

from bench.hostspeed import NOMINAL_S, HostSpeedProbe


def test_probe_is_fixed_work_of_about_the_nominal_length():
    probe = HostSpeedProbe()
    fastest = min(probe.seconds() for _ in range(5))
    # Another host class may be faster or slower, but not by an order.
    assert NOMINAL_S / 10 < fastest < NOMINAL_S * 10


def test_probe_leaves_nothing_for_the_collector():
    probe = HostSpeedProbe()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        probe.seconds()
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown <= 5
    assert gc.collect() == 0
