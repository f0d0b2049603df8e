"""Set-up probe: a fresh interpreter imports cascadeg2 and completes a workload's first request.

Usage, from the repository root:  python3 perfbench/first_request.py WORKLOAD SEED
run.py times this whole process from start to exit.
"""

import sys

import checkout


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    checkout.prepare()
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.request(workload.inputs(np.random.default_rng(seed))[0])


if __name__ == "__main__":
    main()
