import inspect

import numpy as np
import pytest

from vqmc import linops, markov
from vqmc.registers import ket, projector

from conftest import random_hermitian, random_psd


class TestEigh:
    def test_identity(self):
        w, _ = linops.eigh(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_rank_one_projector(self):
        bell = projector((ket("00") + ket("11")) / np.sqrt(2.0))
        w, _ = linops.eigh(bell)
        assert np.allclose(sorted(w), [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            h = random_hermitian(rng, int(rng.integers(2, 17)))
            w, v = linops.eigh(h)
            assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(linops.NonHermitianError, match="asymmetry"):
            linops.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad, where", [
        (np.nan, (0, 0)), (np.inf, (0, 0)), (np.nan, (0, 1)), (np.inf, (0, 1)),
    ])
    def test_rejects_non_finite(self, bad, where):
        # NaN comparisons are false, so an asymmetry or trace check alone lets NaN through
        h = np.eye(2, dtype=complex)
        h[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linops.eigh(h)

    def test_absorbs_tiny_asymmetry(self):
        h = np.eye(2) + np.array([[0.0, 1e-13], [0.0, 0.0]])
        w, _ = linops.eigh(h)
        assert np.allclose(w, [1.0, 1.0])


class TestKernelBasis:
    def test_zero_matrix_full_kernel(self):
        basis = linops.kernel_basis(np.zeros((4, 4)))
        assert basis.dim == 4
        assert np.abs(basis.projector() - np.eye(4)).max() <= 1e-12

    def test_coherent_rank_one_block(self):
        # 1/4 (|00> + |10>)(<00| + <10|): kernel spans |01>, |11>, |00>-|10>
        matrix = 0.25 * projector(ket("00") + ket("10"))
        basis = linops.kernel_basis(matrix)
        assert basis.dim == 3
        expected = np.stack(
            [ket("01"), ket("11"), (ket("00") - ket("10")) / np.sqrt(2.0)], axis=1
        )
        contained, leak = linops.subspace_contained(
            linops.SubspaceBasis(expected), basis, tol=1e-10
        )
        assert contained and leak <= 1e-10

    def test_single_basis_state_block(self):
        # 1/4 |01><01|: kernel spans |00>, |10>, |11>
        basis = linops.kernel_basis(0.25 * projector(ket("01")))
        assert basis.dim == 3
        expected = linops.SubspaceBasis(np.stack([ket("00"), ket("10"), ket("11")], axis=1))
        contained, _ = linops.subspace_contained(expected, basis, tol=1e-10)
        assert contained

    def test_rejects_indefinite(self):
        with pytest.raises(linops.NotPositiveSemidefiniteError) as err:
            linops.kernel_basis(np.diag([1.0, -0.5]))
        assert err.value.eigenvalue == pytest.approx(-0.5)

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
    def test_threshold_robustness(self, rel_tol):
        # spectral gaps in this domain are O(1/4); any threshold in
        # [1e-12, 1e-4] gives the same kernel
        matrix = 0.25 * projector(ket("00") + ket("10"))
        assert linops.kernel_basis(matrix, rel_tol=rel_tol).dim == 3


class TestKernelFrames:
    def test_match_kernel_basis_bit_for_bit(self, rng):
        stack = np.stack([random_psd(rng, 4, rank) for rank in (1, 2, 3, 4)]
                         + [np.zeros((4, 4)), 0.25 * projector(ket("00") + ket("10"))])
        for rel_tol in (0.0, 1e-10, 1e-4):
            frames = linops.kernel_frames(stack, rel_tol=rel_tol)
            for matrix, frame in zip(stack, frames):
                basis = linops.kernel_basis(matrix, rel_tol=rel_tol)
                assert frame.shape == basis.vectors.shape
                assert frame.tobytes() == basis.vectors.tobytes()
                assert not frame.flags.writeable

    def test_first_failing_matrix_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([1.0, -0.25])])
        with pytest.raises(linops.NotPositiveSemidefiniteError) as err:
            linops.kernel_frames(stack)
        assert err.value.eigenvalue == pytest.approx(-0.5)
        stack[1] = [[0.0, 1e-3], [0.0, 0.0]]
        stack[2] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(linops.NonHermitianError, match="asymmetry 1.000000e-03"):
            linops.kernel_frames(stack)
        stack[2, 0, 1] = np.nan
        with pytest.raises(linops.NonHermitianError, match="asymmetry 1.000000e-03"):
            linops.kernel_frames(stack)
        stack[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            linops.kernel_frames(stack)


class TestSubspaceContained:
    def test_nested_basis_states(self):
        a = linops.SubspaceBasis(ket("01")[:, None])
        b = linops.SubspaceBasis(np.stack([ket("01"), ket("10")], axis=1))
        contained, leak = linops.subspace_contained(a, b)
        assert contained and leak == 0.0

    def test_leaking_basis_state(self):
        a = linops.SubspaceBasis(np.stack([ket("00"), ket("10")], axis=1))
        b = linops.SubspaceBasis(np.stack([ket("01"), ket("10")], axis=1))
        contained, leak = linops.subspace_contained(a, b)
        assert not contained
        assert leak == pytest.approx(1.0, abs=1e-12)

    def test_constructed_nested_pairs(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            dim = int(rng.integers(3, 9))
            k = int(rng.integers(2, dim + 1))
            frame = np.linalg.qr(
                rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
            )[0]
            outer = linops.SubspaceBasis(frame)
            inner = linops.SubspaceBasis(frame[:, : int(rng.integers(1, k + 1))])
            contained, leak = linops.subspace_contained(inner, outer)
            assert contained and leak <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(linops.SubspaceMismatchError):
            linops.subspace_contained(
                linops.SubspaceBasis(np.eye(2)), linops.SubspaceBasis(np.eye(4))
            )

    def test_empty_inner_is_contained(self):
        empty = linops.SubspaceBasis(np.zeros((4, 0)))
        contained, leak = linops.subspace_contained(empty, linops.SubspaceBasis(np.eye(4)))
        assert contained and leak == 0.0


class TestRank:
    def test_identity(self):
        assert linops.rank_of(np.eye(8)) == 8

    def test_w4_conditional_block_is_rank_one(self):
        # both single-outcome blocks of the W marginal on BC are rank one
        assert linops.rank_of(0.25 * projector(ket("01"))) == 1
        assert linops.rank_of(0.25 * projector(ket("00") + ket("10"))) == 1

    def test_constructed_rank(self):
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            dim = int(rng.integers(2, 13))
            rank = int(rng.integers(1, dim + 1))
            assert linops.rank_of(random_psd(rng, dim, rank)) == rank


class TestSupportKernelDuality:
    def test_duality_and_rank_monotonicity(self):
        # planted inclusions and non-inclusions; 200 seeded pairs
        hits = {"included": 0, "not_included": 0}
        for seed in range(200):
            rng = np.random.default_rng(3000 + seed)
            dim = int(rng.integers(3, 9))
            rank_x = int(rng.integers(1, dim))
            if seed % 2 == 0:
                # plant Supp(Y) inside Supp(X) => Ker(X) inside Ker(Y)
                frame = np.linalg.qr(
                    rng.standard_normal((dim, rank_x))
                    + 1j * rng.standard_normal((dim, rank_x))
                )[0]
                rank_y = int(rng.integers(1, rank_x + 1))
                x = frame @ random_psd(rng, rank_x) @ frame.conj().T
                y = frame[:, :rank_y] @ random_psd(rng, rank_y) @ frame[:, :rank_y].conj().T
            else:
                x = random_psd(rng, dim, rank_x)
                y = random_psd(rng, dim, dim)  # full rank: kernel of Y is trivial
            ker_x = linops.kernel_basis(x)
            ker_y = linops.kernel_basis(y)
            ker_incl, _ = linops.subspace_contained(ker_x, ker_y)
            supp_incl, _ = linops.subspace_contained(
                linops.support_basis(y), linops.support_basis(x)
            )
            assert ker_incl == supp_incl
            if ker_incl:
                assert linops.rank_of(x) >= linops.rank_of(y)
                hits["included"] += 1
            else:
                hits["not_included"] += 1
        assert hits["included"] >= 50 and hits["not_included"] >= 50

    def test_kernel_support_resolve_identity(self):
        for seed in range(20):
            rng = np.random.default_rng(4000 + seed)
            dim = int(rng.integers(2, 13))
            matrix = random_psd(rng, dim, int(rng.integers(1, dim + 1)))
            total = (
                linops.kernel_basis(matrix).projector()
                + linops.support_basis(matrix).projector()
            )
            assert np.abs(total - np.eye(dim)).max() <= 1e-10


class TestSubspaceBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            linops.SubspaceBasis(np.ones((3, 2)))

    def test_from_columns_orthonormalizes(self):
        cols = np.stack([ket("00"), ket("00") + ket("11")], axis=1)
        basis = linops.SubspaceBasis.from_columns(cols)
        assert basis.dim == 2
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_vectors_are_immutable(self):
        basis = linops.SubspaceBasis(np.eye(2))
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 5.0

    def test_vectors_must_be_a_column_array(self):
        with pytest.raises(ValueError, match="must form a 2-d column array, got ndim 1"):
            linops.SubspaceBasis(np.ones(3))

    def test_more_columns_than_dimensions(self):
        with pytest.raises(ValueError, match="3 columns cannot be independent in dimension 2"):
            linops.SubspaceBasis(np.ones((2, 3)))


class TestHermitianPart:
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_needs_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            linops.hermitian_part(np.ones(shape))

    def test_asymmetry_is_judged_at_the_module_tolerance(self):
        step = np.array([[0.0, linops.HERMITIAN_ATOL], [0.0, 0.0]])
        assert np.array_equal(linops.hermitian_part(step), (step + step.T) / 2)
        with pytest.raises(linops.NonHermitianError, match="> 1.0e-12"):
            linops.hermitian_part(2 * step)


BAD_TOLERANCES = [float("nan"), float("inf"), float("-inf"), -1.0]


class TestToleranceArguments:
    """Each public tolerance argument is checked by one rule, linops._check_tolerance."""

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    @pytest.mark.parametrize("call", [
        linops.kernel_basis,
        linops.support_basis,
        linops.rank_of,
        lambda matrix, rel_tol: linops.kernel_frames(matrix[None], rel_tol=rel_tol),
    ], ids=["kernel_basis", "support_basis", "rank_of", "kernel_frames"])
    def test_rel_tol_must_be_finite_and_nonnegative(self, call, value):
        # a negative or NaN cut-off would empty every kernel, an infinite one fill it
        with pytest.raises(ValueError, match="rel_tol must be finite and nonnegative"):
            call(np.eye(2), rel_tol=value)

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    def test_containment_tol_must_be_finite_and_nonnegative(self, value):
        basis = linops.SubspaceBasis(np.eye(2))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            linops.subspace_contained(basis, basis, tol=value)

    def test_zero_is_a_tolerance(self):
        assert linops.kernel_basis(np.diag([0.0, 1.0]), rel_tol=0.0).dim == 1
        basis = linops.SubspaceBasis(np.eye(2))
        assert linops.subspace_contained(basis, basis, tol=0.0) == (True, 0.0)

    def test_the_leak_tolerance_is_one_name(self):
        assert markov.INCLUSION_LEAK_TOL is linops.INCLUSION_LEAK_TOL
        for call in (linops.subspace_contained, markov.kernel_inclusion_check):
            default = inspect.signature(call).parameters["tol"].default
            assert default is linops.INCLUSION_LEAK_TOL
