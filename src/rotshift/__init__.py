"""Exact invariants of rotation-decorated labeled graphs.

The package takes a finite left-resolving labeled graph whose symbols
carry exact circle rotation angles and computes invariants of the
dynamical system and operator algebra it presents: the sofic language,
condition (I), irreducibility, the lattice of invariant ideals and the
induced quotients, minimality of the decorated action, simplicity and
pure-infiniteness verdicts, and K-groups via the integer invariant
factors of I - A.  Every exact decision is paired with an independent
numeric or brute-force oracle in rotshift.oracles.
"""

__version__ = "0.1.0"
