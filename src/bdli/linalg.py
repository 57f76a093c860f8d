"""Small 3D vector/matrix kernels used throughout the package.

Vectors are plain ``numpy`` arrays: a ``Vec3`` is a float64 array of shape
``(3,)``, a ``Mat3`` of shape ``(3, 3)`` (row-major), and a ``PhaseVec`` of
shape ``(6,)`` whose first three entries are position-like and last three
velocity-like.  All kernels are pure functions of their arguments, so values
are freely copyable and safe to use concurrently.
"""

from __future__ import annotations

import numpy as np

Vec3 = np.ndarray
Mat3 = np.ndarray
PhaseVec = np.ndarray


def as_vec3(a) -> Vec3:
    """Coerce to a finite float64 vector of shape (3,).

    Raises ValueError on wrong shape or non-finite entries; this is the
    gate through which external values enter the numeric kernels.
    """
    v = np.asarray(a, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite components in 3-vector: {v}")
    return v


def hat(B) -> Mat3:
    """Skew matrix of the cross product with B: hat(B) @ v == v x B.

    Row-major layout::

        (  0    B3  -B2 )
        ( -B3   0    B1 )
        (  B2  -B1   0  )
    """
    B = np.asarray(B, dtype=float)
    b1, b2, b3 = B
    return np.array(
        [
            [0.0, b3, -b2],
            [-b3, 0.0, b1],
            [b2, -b1, 0.0],
        ]
    )
