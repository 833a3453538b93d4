"""Desk-scale simulator for quantum sealed-message protocols.

Sparse exact states, honest and adversarial parties, and the numerical
verification of the detection bounds they obey.
"""

# perfbench/test_oracles.py::test_tracer_self_times_and_uninstall reads these two back here.
from .states import apply_unitary_c, squared_overlap  # noqa: F401

__version__ = "0.1.0"
