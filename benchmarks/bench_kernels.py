"""``subdivide``, re-exported for ``perfbench/workloads.py``, which imports it
from here.

Kernel timings come from the benchmark harness: ``python3 perfbench/run.py
--workload flow-small --seed 1 --trace 1`` reports ``kernels.state.*`` and
``kernels.advance.*`` among its per-layer metrics.
"""

from calabiflow.meshes import subdivide

__all__ = ["subdivide"]
