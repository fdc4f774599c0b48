"""Seeded four-qubit state families for the benchmark, in plain numpy.

Every generator takes a ``numpy.random.Generator`` and returns raw complex
matrices; nothing here imports vqmc. Basis order is big-endian over
(A, B, C, D), as in the package's JSON state format. Choi matrices of maps
C -> C'D follow the package convention J = sum_ij |i><j| (x) N(|i><j|), so
block (i, j) of the 8x8 matrix is N(|i><j|) on C'D.

Rejection sampling (keeping outputs with a positive minimum eigenvalue)
draws again from the same generator, so a seed fixes the whole corpus.
"""

from __future__ import annotations

import numpy as np

Z = np.diag([1.0, -1.0]).astype(complex)


def ket(bits: str) -> np.ndarray:
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def dm(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix of the given rank (full rank by default)."""
    g = _ginibre(rng, dim, dim if rank is None else rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def hermitian(rng, dim: int) -> np.ndarray:
    g = _ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# Builtins, written out independently of the package factories
# ---------------------------------------------------------------------------


def w4() -> np.ndarray:
    return dm(0.5 * (ket("0001") + ket("0010") + ket("0100") + ket("1000")))


def ghz4() -> np.ndarray:
    return dm((ket("0000") + ket("1111")) / np.sqrt(2.0))


def rho2() -> np.ndarray:
    return 0.5 * (dm(ket("0000")) + dm(ket("1111")))


def mix(p: float) -> np.ndarray:
    """p * W4 + (1 - p) * GHZ4."""
    return p * w4() + (1.0 - p) * ghz4()


def convex_mix(lam: float) -> np.ndarray:
    """lam * W4 + (1 - lam) * RHO2."""
    return lam * w4() + (1.0 - lam) * rho2()


# ---------------------------------------------------------------------------
# Channels C -> C'D and their application
# ---------------------------------------------------------------------------


def identity_extension_choi() -> np.ndarray:
    """Choi matrix (4x4, on C C') of the identity map on one qubit."""
    phi = ket("00") + ket("11")
    return dm(phi)


def random_channel_choi(rng) -> np.ndarray:
    """Choi matrix (8x8) of a random channel C -> C'D from a Stinespring
    isometry with a qubit environment."""
    isometry, _ = np.linalg.qr(_ginibre(rng, 8, 2))
    choi = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            lifted = np.outer(isometry[:, i], isometry[:, j].conj())
            out = np.trace(lifted.reshape(4, 2, 4, 2), axis1=1, axis2=3)
            choi[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = out
    return choi


def apply_on_c(sigma_abc: np.ndarray, choi: np.ndarray) -> np.ndarray:
    """(id_AB (x) N)(sigma) = sum_ij sigma_AB^{ij} (x) N(|i><j|), blockwise."""
    out_dim = choi.shape[0] // 2
    blocks = sigma_abc.reshape(4, 2, 4, 2)
    out = np.zeros((4 * out_dim, 4 * out_dim), dtype=complex)
    for i in range(2):
        for j in range(2):
            out += np.kron(blocks[:, i, :, j], choi[out_dim * i : out_dim * (i + 1),
                                                      out_dim * j : out_dim * (j + 1)])
    return out


def extension_choi(choi_r: np.ndarray) -> np.ndarray:
    """Choi matrix of R o M^-1 with M = Tr_D o R: the unique map C -> C'D
    that extends the marginal (id (x) M)(sigma) to (id (x) R)(sigma)."""
    blocks = [[choi_r[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] for j in range(2)] for i in range(2)]
    # superoperator of M on vec(X) in row-major order, columns indexed by (i, j)
    sup = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            traced = np.trace(blocks[i][j].reshape(2, 2, 2, 2), axis1=1, axis2=3)
            sup[:, 2 * i + j] = traced.reshape(4)
    inv = np.linalg.inv(sup)
    out = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            block = sum(inv[2 * k + l, 2 * i + j] * blocks[k][l] for k in range(2) for l in range(2))
            out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = block
    return out


# ---------------------------------------------------------------------------
# Seeded families
# ---------------------------------------------------------------------------


def generic_state(rng) -> np.ndarray:
    """Full-rank Ginibre state: no linear extension reproduces it."""
    return density(rng, 16)


def low_rank_state(rng) -> np.ndarray:
    """Rank 1, 2, 4 or 8, so conditional kernel dimensions vary."""
    return density(rng, 16, rank=int(rng.choice([1, 2, 4, 8])))


def markov_state(rng) -> tuple[np.ndarray, np.ndarray]:
    """Classical-C Markov state sum_c p_c rho_AB^c (x) |c><c| (x) sigma_D^c.

    Returns the state and the Choi matrix of the measure-and-prepare channel
    |c><c'| -> delta_cc' |c><c| (x) sigma_D^c, which extends the marginal.
    """
    weights = rng.dirichlet([1.0, 1.0])
    out = np.zeros((16, 16), dtype=complex)
    choi = np.zeros((8, 8), dtype=complex)
    for c in range(2):
        rho_ab = density(rng, 4, rank=int(rng.integers(1, 5)))
        sigma_d = density(rng, 2)
        prepared = np.kron(dm(ket(str(c))), sigma_d)
        out += weights[c] * np.kron(rho_ab, prepared)
        choi[4 * c : 4 * c + 4, 4 * c : 4 * c + 4] = prepared
    return out, choi


def virtual_only_state(rng) -> tuple[np.ndarray, np.ndarray]:
    """(id_AB (x) R)(sigma_ABC) with R(X) = X (x) tau_D + 0.05 L(X) (x) Z_D.

    Tr_D o R = id, so the D-marginal is sigma itself and R's Choi matrix is
    the unique extension; L has a random Hermitian Choi matrix, which makes
    R Hermitian-preserving but not completely positive. Returns the state
    and the Choi matrix of R.
    """
    while True:
        sigma = density(rng, 8)
        tau = density(rng, 2)
        choi_l = hermitian(rng, 4)
        choi_l /= np.abs(np.linalg.eigvalsh(choi_l)).max()
        choi_r = np.kron(identity_extension_choi(), tau) + 0.05 * np.kron(choi_l, Z)
        state = apply_on_c(sigma, choi_r)
        state = (state + state.conj().T) / 2
        if np.linalg.eigvalsh(state)[0] > 1e-6:
            return state, choi_r


def hptp_extension_state(rng) -> tuple[np.ndarray, np.ndarray]:
    """(id_AB (x) R)(sigma_ABC) with R = (1+t) N1 - t N2 for random channels.

    sigma is near the maximally mixed state and t is drawn from [0.1, 0.3].
    R is not an extension map, so Tr_D rho differs from sigma, but the unique
    linear extension of Tr_D rho is R o (Tr_D o R)^-1. Returns the state and
    that extension's Choi matrix.
    """
    while True:
        sigma = 0.9 * np.eye(8) / 8 + 0.1 * density(rng, 8)
        t = float(rng.uniform(0.1, 0.3))
        choi_r = (1 + t) * random_channel_choi(rng) - t * random_channel_choi(rng)
        state = apply_on_c(sigma, choi_r)
        state = (state + state.conj().T) / 2
        if np.linalg.eigvalsh(state)[0] > 1e-6:
            return state, extension_choi(choi_r)
