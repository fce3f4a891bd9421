"""Names under which bench/layers.py finds the Howell engine of `linalg`."""

from .linalg import HowellAccumulator  # noqa: F401

# held for bench/layers.py until ROADMAP item 2 replaces its wrapper table
from .linalg import kernel as kernel_mod_fast  # noqa: F401
