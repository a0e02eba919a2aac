"""A test-only operator built from phi alone: the cubic Volterra operator.

F(u) = integral_0^x u^3, so phi(u) = u^3 and phi'(u) = 3u^2. It declares
nothing but phi, phi' and its guard u >= ``u_min``, so every other method
is the base class's generic path: phi' is not affine, so the operator
states no A(u)q in the sampling basis, and its constants estimate takes
every two-sided ratio on the grid. Like both built-ins it lies in the
paper's class: A(u)q = I(3u^2 q) is smoothing.
"""

from dataclasses import dataclass

import numpy as np

from dsmflow.operators import ScaleOperator


@dataclass(frozen=True)
class CubicVolterra(ScaleOperator):
    u_min: float = 0.1

    def phi(self, u, out=None):
        cube = np.multiply(u, u, out)
        cube *= u
        return cube

    def dphi(self, u, out=None):
        slope = np.multiply(u, u, out)
        slope *= 3.0
        return slope
