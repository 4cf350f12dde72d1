"""Independent reference computations for the benchmark's output checks.

Nothing here imports qalg: each function rebuilds the expected answer from
first principles in numpy or plain Python, so a wrong answer from the
program cannot also make its own check pass.

Conventions shared with qalg (stated in its README): mode 0 is the least
significant bit of a dense basis label and the last Kronecker factor; a
label bit is 1 - occupation, so the occupied state of a mode is the Z = +1
eigenstate; the Pauli word with masks (x, z) is the tensor product of
X, Y, Z or I per mode.
"""

from __future__ import annotations

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_RAISE = (_X + 1j * _Y) / 2
_LOWER = (_X - 1j * _Y) / 2
_NUMBER = (_I2 + _Z) / 2


def site_matrix(single: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    """single acting on one mode, identity elsewhere (mode 0 last factor)."""
    out = np.ones((1, 1), dtype=complex)
    for m in range(n_modes - 1, -1, -1):
        out = np.kron(out, single if m == mode else _I2)
    return out


def pauli_word(x_mask: int, z_mask: int, n_modes: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in range(n_modes - 1, -1, -1):
        xb, zb = x_mask >> m & 1, z_mask >> m & 1
        out = np.kron(out, _Y if xb and zb else _X if xb else _Z if zb else _I2)
    return out


def pauli_sum(terms, n_modes: int) -> np.ndarray:
    """Dense matrix of [(x_mask, z_mask, complex coefficient), ...]."""
    dim = 1 << n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for x, z, c in terms:
        out += c * pauli_word(x, z, n_modes)
    return out


def fermion_matrices(n_modes: int):
    """(annihilators, creators) of string-dressed fermions on n_modes modes.

    f_i = a_i S_i with S_i the product of (1 - 2 n_k) over k < i.
    """
    ann, cre = [], []
    for i in range(n_modes):
        string = np.eye(1 << n_modes, dtype=complex)
        for k in range(i):
            string = string @ (np.eye(1 << n_modes)
                               - 2 * site_matrix(_NUMBER, k, n_modes))
        ann.append(site_matrix(_LOWER, i, n_modes) @ string)
        cre.append(site_matrix(_RAISE, i, n_modes) @ string)
    return ann, cre


def fermion_expr(terms, n_modes: int) -> np.ndarray:
    """Dense matrix of [(complex coeff, [("+"|"-", mode), ...]), ...]."""
    ann, cre = fermion_matrices(n_modes)
    dim = 1 << n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in terms:
        acc = np.eye(dim, dtype=complex)
        for kind, mode in factors:
            acc = acc @ (cre[mode] if kind == "+" else ann[mode])
        out += coeff * acc
    return out


def float_closure_dim(mats, tol: float = 1e-8) -> int:
    """Dimension of the real Lie algebra generated by Hermitian matrices.

    Breadth-first brackets i[A, B] with Gram-Schmidt rank decisions on
    unit-normalized elements.  Hermitian matrices independent over the reals
    are independent over the complex numbers, so complex inner products
    decide the real rank.
    """
    d = mats[0].shape[0]
    full = d * d
    rows = np.zeros((0, full), dtype=complex)
    elems = []

    def insert(m):
        nonlocal rows
        v = m.reshape(-1)
        norm = np.linalg.norm(v)
        if norm < tol:
            return False
        v = v / norm
        for _ in range(2):
            v = v - rows.conj() @ v @ rows if len(rows) else v
        rest = np.linalg.norm(v)
        if rest < tol:
            return False
        rows = np.vstack([rows, v / rest])
        elems.append(m / norm)
        return True

    for m in mats:
        insert(np.asarray(m, dtype=complex))
    start = 0
    while start < len(elems) and len(elems) < full:
        end = len(elems)
        for j in range(start, end):
            for i in range(j):
                insert(1j * (elems[i] @ elems[j] - elems[j] @ elems[i]))
                if len(elems) == full:
                    return full
        start = end
    return len(elems)


def codewords(n_modes: int, excitations: int) -> list:
    """Occupation masks of C(n, k), ascending in their mode-0-first string."""
    masks = [m for m in range(1 << n_modes) if bin(m).count("1") == excitations]

    def printed(m):
        return "".join("1" if m >> k & 1 else "0" for k in range(n_modes))

    return sorted(masks, key=printed)


def encoded_pair_generator(n_modes: int, excitations: int, kind: str,
                           pair) -> np.ndarray:
    """Codeword matrix of the pair hop (kind x) or of q_j - q_i (kind z)."""
    i, j = pair
    words = codewords(n_modes, excitations)
    pos = {w: k for k, w in enumerate(words)}
    out = np.zeros((len(words), len(words)))
    for col, w in enumerate(words):
        qi, qj = w >> i & 1, w >> j & 1
        if kind == "z":
            out[col, col] = qj - qi
        elif qi != qj:
            out[pos[w ^ (1 << i | 1 << j)], col] = 1.0
    return out
