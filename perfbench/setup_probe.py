"""Set-up time of one CLI invocation, measured in a fresh interpreter:
``import dampedwave`` (numpy included), ``config.load_setup`` and
``experiments.build_data``.  Prints the seconds, then the calibration
kernel's seconds measured right after in the same process (second run,
after the first has built the FFT plans).

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import dampedwave  # noqa: F401
    from dampedwave import config, experiments

    experiments.build_data(config.load_setup(sys.argv[1]))
    setup = time.perf_counter() - start

    from calibrate import SETUP_KERNEL_SHAPE, kernel_seconds

    kernel_seconds(SETUP_KERNEL_SHAPE)  # the first run also builds numpy's FFT plans
    print(repr(setup), repr(kernel_seconds(SETUP_KERNEL_SHAPE)))


if __name__ == "__main__":
    main()
