"""nediff: diffraction of slow electron wavepackets by optical near fields.

Two engines share one data model: a closed-form phase-mask engine resolving
the interaction into photon orders, and a split-step solver of the 2D
time-dependent Schrodinger equation used as ground truth.
"""

__version__ = "0.1.0"
