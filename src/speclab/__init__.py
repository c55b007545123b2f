"""speclab: desk-scale numerical laboratory for spectral asymptotics.

Exact spectra on the flat torus T^n and the round sphere S^n make every
spectral-projector quantity a finite sum, so the classical one-term
asymptotics (local Weyl law, off-diagonal kernel limits, norm-growth
exponents, nodal geometry) can be measured rather than merely cited.
"""

import os

# OpenBLAS reads this once, when numpy loads it (at a run's first array path, not
# at import); its idle worker thread would only spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
