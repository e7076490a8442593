"""Small numeric helpers shared by the backends."""

import numpy as np

UNITARITY_TOL = 1e-12


def as_unitary(m, tol=UNITARITY_TOL):
    """Validate and return a unitary matrix as complex128."""
    u = np.asarray(m, dtype=np.complex128)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"matrix must be square, got {u.shape}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if err > tol:
        raise ValueError(f"matrix is not unitary (max deviation {err:.3e})")
    return u


def apply_unitary(amps, u, bits):
    """Apply a k-qubit unitary to an amplitude vector.

    `bits` lists the amplitude-index bit positions the gate acts on,
    most significant qubit of `u` first.
    """
    n = int(amps.size).bit_length() - 1
    k = len(bits)
    axes = [n - 1 - b for b in bits]
    t = np.moveaxis(amps.reshape((2,) * n), axes, range(k))
    shape = t.shape
    t = np.asarray(u) @ t.reshape(2 ** k, -1)
    t = np.moveaxis(t.reshape(shape), range(k), axes)
    return np.ascontiguousarray(t).reshape(-1)


def operator_matrix(apply, dim):
    """Matrix of the linear map `apply` on C^dim, built by applying it
    to each computational basis column."""
    return np.array([apply(col)
                     for col in np.eye(dim, dtype=np.complex128)]).T


def kron_all(factors):
    """Kronecker product, first factor most significant."""
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out
