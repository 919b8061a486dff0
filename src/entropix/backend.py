"""The oracle's kernel module under the names external tools read.

There is one kernel implementation, the numpy ``_kernels_py``; this module
stays because ``perfbench/`` looks the kernels up as ``backend.kernels``
and records ``backend.BACKEND`` with each run.
"""

from entropix import _kernels_py as kernels

BACKEND = "python"
