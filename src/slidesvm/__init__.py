"""Linear binary SVM with the slide loss.

The loss is zero for confident correct classifications, ramps linearly inside
the margin, and saturates at 1, which gives a closed-form proximal operator
and a working-set ADMM solver that touches only the samples near the margin.

Each name is imported from the module that defines it, as in
``from slidesvm.admm import train``.
"""

__version__ = "0.1.0"
