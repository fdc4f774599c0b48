import itertools

import numpy as np
import pytest

from vqmc import linops, markov
from vqmc import registers as reg
from vqmc.registers import (
    ChoiOperator,
    DensityOperator,
    LabelError,
    QubitRegister,
    identity_channel_choi,
    ket,
    projector,
)

import oracles
from conftest import random_cptp_choi, random_density


@pytest.fixture(scope="module")
def w4_marginal():
    return reg.partial_trace(reg.make_state("W4"), "D")


class TestConditionalBlock:
    def test_w4_outcome_zero_keeps_ac(self, w4_marginal):
        # oracle-computed value: diag(1/2, 0, 1/4, 0) on (A, C); weight 3/4.
        block = markov.conditional_block(w4_marginal, "C", 0, {"B"})
        assert block.kept_labels == ("A", "C")
        expected = np.diag([0.5, 0.0, 0.25, 0.0])
        assert np.abs(block.matrix - expected).max() <= 1e-14
        assert block.weight == pytest.approx(0.75)

    def test_w4_outcome_one_keeps_bc(self, w4_marginal):
        block = markov.conditional_block(w4_marginal, "C", 1, {"A"})
        assert block.kept_labels == ("B", "C")
        assert np.abs(block.matrix - 0.25 * projector(ket("01"))).max() <= 1e-14
        assert block.weight == pytest.approx(0.25)

    def test_matches_loop_oracle_on_w4(self, w4_marginal):
        for outcome in (0, 1):
            for trace_pos, trace_label in ((1, "B"), (0, "A")):
                mine = markov.conditional_block(w4_marginal, "C", outcome, {trace_label})
                ref = oracles.conditional_block_loop(
                    np.asarray(w4_marginal.matrix), 3, 2, outcome, [trace_pos]
                )
                assert np.abs(mine.matrix - ref).max() <= 1e-14

    def test_product_state_factorizes(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        rho_c = random_density(rng, 2)
        state = DensityOperator(
            register=QubitRegister(("A", "B", "C")),
            matrix=np.kron(np.kron(rho_a, rho_b), rho_c),
        )
        total = 0.0
        for j in (0, 1):
            block = markov.conditional_block(state, "C", j, {"B"})
            weight = rho_c[j, j].real
            embedded = np.zeros((2, 2))
            embedded[j, j] = 1.0
            assert np.abs(block.matrix - weight * np.kron(rho_a, embedded)).max() <= 1e-12
            total += block.weight
        assert total == pytest.approx(1.0)

    def test_weight_conservation_on_random_states(self):
        for seed in range(100):
            rng = np.random.default_rng(5000 + seed)
            state = DensityOperator(
                register=QubitRegister(("A", "B", "C")), matrix=random_density(rng, 8)
            )
            weights = sum(
                markov.conditional_block(state, "C", j, {"B"}).weight for j in (0, 1)
            )
            assert abs(weights - state.trace()) <= 1e-10

    def test_bad_outcome(self, w4_marginal):
        with pytest.raises(ValueError, match="outcome"):
            markov.conditional_block(w4_marginal, "C", 2, {"B"})

    def test_measured_label_cannot_be_traced(self, w4_marginal):
        with pytest.raises(LabelError):
            markov.conditional_block(w4_marginal, "C", 0, {"C"})


class TestKernelInclusion:
    def test_w4_marginal_passes_with_equal_kernels(self, w4_marginal):
        report = markov.kernel_inclusion_check(w4_marginal)
        assert report.verdict is True
        # A<->B symmetry makes the AC and BC kernels identical
        for entry in report.per_outcome:
            assert entry.ker_dim_ac == entry.ker_dim_bc
            assert entry.max_leak <= 1e-12
        assert [e.ker_dim_ac for e in report.per_outcome] == [2, 3]

    def test_mix_half_passes(self):
        marginal = reg.partial_trace(reg.make_state("MIX", p=0.5), "D")
        assert markov.kernel_inclusion_check(marginal).verdict is True

    def test_convex_mix_matches_oracle_fixture(self):
        # the mixture of W4 and RHO2 stays A<->B symmetric, so inclusion
        # holds at every lambda; fixed by the committed oracle fixture
        mixture = reg.mix(reg.make_state("W4"), reg.make_state("RHO2"), 0.5)
        report = markov.kernel_inclusion_check(reg.partial_trace(mixture, "D"))
        oracle = oracles.inclusion_oracle(np.asarray(mixture.matrix))
        assert report.verdict == oracle["verdict"] is True
        for entry, ref in zip(report.per_outcome, oracle["outcomes"]):
            assert entry.ker_dim_ac == ref["ker_dim_ac"]
            assert abs(entry.max_leak - ref["max_leak"]) <= 1e-10

    def test_engineered_violation_is_detected(self):
        # break the A<->B symmetry by hand: A carries |0><0| where B carries
        # |1><1| on the C=1 branch, so Ker(AC|1) leaks out of Ker(BC|1)
        matrix = 0.5 * projector(ket("000")) + 0.5 * projector(ket("011"))
        state = DensityOperator(register=QubitRegister(("A", "B", "C")), matrix=matrix)
        report = markov.kernel_inclusion_check(state)
        assert report.verdict is False
        failing = report.per_outcome[1]
        assert not failing.contained
        assert failing.max_leak == pytest.approx(1.0, abs=1e-10)

    def test_leaking_vector_comes_from_the_ac_kernel(self, rng):
        # C = 0 branch: A and B each pure in unrelated directions, so kernel
        # vectors of the AC block leak out of the BC kernel
        def pure(dim):
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            return np.outer(vec, vec.conj())

        matrix = 0.5 * np.kron(np.kron(pure(2), pure(2)), projector(ket("0")))
        matrix += 0.5 * np.kron(pure(4), projector(ket("1")))
        state = DensityOperator(register=QubitRegister(("A", "B", "C")), matrix=matrix)
        report = markov.kernel_inclusion_check(state)
        leaking = [entry for entry in report.per_outcome if not entry.contained]
        assert leaking
        for entry in report.per_outcome:
            ac = markov.conditional_block(state, "C", entry.outcome, {"B"}).matrix
            bc = markov.conditional_block(state, "C", entry.outcome, {"A"}).matrix
            if entry.contained:
                assert entry.leaking_vector is None and entry.leaking_vector_leak is None
                continue
            vector = entry.leaking_vector
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
            assert np.abs(ac @ vector).max() <= 1e-10
            # leak out of Ker(BC) = the component on the support of BC
            w, v = np.linalg.eigh(bc)
            support = v[:, w > 1e-10 * w[-1]]
            leak = np.linalg.norm(support.conj().T @ vector)
            assert entry.leaking_vector_leak == pytest.approx(leak, abs=1e-12)
            assert entry.leaking_vector_leak > report.tol
            assert "leaking_vector" not in entry.to_dict()

    def test_requires_three_labels(self):
        with pytest.raises(LabelError, match="three"):
            markov.kernel_inclusion_check(reg.make_state("W4"))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_tol(self, w4_marginal, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            markov.kernel_inclusion_check(w4_marginal, tol=tol)

    @pytest.mark.parametrize("rel_tol", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_rel_tol(self, rel_tol):
        # on MIX(0) a negative cut-off would empty every kernel (dims (0, 0)
        # instead of (3, 3)) and pass vacuously
        mix0 = reg.partial_trace(reg.make_state("MIX", p=0.0), "D")
        report = markov.kernel_inclusion_check(mix0)
        assert [(o.ker_dim_ac, o.ker_dim_bc) for o in report.per_outcome] == [(3, 3), (3, 3)]
        with pytest.raises(ValueError, match="rel_tol must be finite and nonnegative"):
            markov.kernel_inclusion_check(mix0, rel_tol=rel_tol)

    def test_zero_tol_is_allowed(self, w4_marginal):
        assert markov.kernel_inclusion_check(w4_marginal, tol=0.0).tol == 0.0

    def test_report_serializes(self, w4_marginal):
        payload = markov.kernel_inclusion_check(w4_marginal).to_dict()
        assert payload["verdict"] is True
        assert "necessary_only" not in payload
        assert {entry["j"] for entry in payload["outcomes"]} == {0, 1}


def three_label_cases():
    """Builtin marginals and seeded three-qubit states, some on labels other than A-D."""
    cases = {name: reg.partial_trace(reg.make_state(name), "D") for name in ("W4", "GHZ4", "RHO2")}
    for p in (0.0, 0.05, 0.5, 1.0):
        cases[f"MIX({p})"] = reg.partial_trace(reg.make_state("MIX", p=p), "D")
    rng = np.random.default_rng(2101)
    for k, rank in enumerate((None, None, 1, 2, 4)):
        matrix = random_density(rng, 8, rank)
        for labels in (("A", "B", "C"), ("Q", "X", "P")):
            name = f"rank {rank or 8} #{k} on {''.join(labels)}"
            cases[name] = DensityOperator(register=QubitRegister(labels), matrix=matrix)
    return cases


THREE_LABEL_CASES = three_label_cases()


def signed_block_operator(negatives):
    """Hermitian operator on (A, B, C) whose conditional blocks on C are
    diag(1 + x, -x) (x) |j><j|, with x = ``negatives`` of "AC0", "BC0",
    "AC1" or "BC1" and 0 otherwise."""
    matrix = np.zeros((8, 8), dtype=complex)
    for j in (0, 1):
        a, b = (np.diag([1.0 + x, -x]) for x in (negatives.get(f"{side}{j}", 0.0)
                                                 for side in ("AC", "BC")))
        matrix += np.kron(np.kron(a, b), projector(ket(str(j))))
    return DensityOperator(register=QubitRegister(("A", "B", "C")), matrix=matrix,
                           normalized=False, check_psd=False)


class TestStackedInclusion:
    @pytest.mark.parametrize("name", list(THREE_LABEL_CASES))
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_matches_the_loop_oracle(self, name, position):
        state = THREE_LABEL_CASES[name]
        cond = state.labels[position]
        report = markov.kernel_inclusion_check(state, condition_on=cond)
        oracle = oracles.three_qubit_inclusion_oracle(np.asarray(state.matrix), position)
        assert report.verdict == oracle["verdict"]
        for entry, ref in zip(report.per_outcome, oracle["outcomes"]):
            assert (entry.ker_dim_ac, entry.ker_dim_bc) == (ref["ker_dim_ac"], ref["ker_dim_bc"])
            assert entry.contained == ref["contained"]
            assert abs(entry.max_leak - ref["max_leak"]) <= 1e-10

    @pytest.mark.parametrize("name", list(THREE_LABEL_CASES))
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_stacked_blocks_are_the_conditional_blocks(self, name, position):
        state = THREE_LABEL_CASES[name]
        cond = state.labels[position]
        first, second = [lab for lab in state.labels if lab != cond]
        stack = markov._conditional_stack(state, cond, [{second}, {first}])
        for j in (0, 1):
            for side, traced in enumerate((second, first)):
                block = markov.conditional_block(state, cond, j, {traced}).matrix
                assert stack[j, side].tobytes() == block.tobytes()
                ref = oracles.conditional_block_loop(
                    np.asarray(state.matrix), 3, position, j, [state.labels.index(traced)]
                )
                assert np.abs(block - ref).max() <= 1e-14

    @pytest.mark.parametrize(
        "negatives, expected",
        [
            ({"AC0": 0.5, "BC1": 0.25}, -0.5),
            ({"BC0": 0.3, "AC1": 0.2}, -0.3),
            ({"AC1": 0.2, "BC1": 0.7}, -0.2),
            ({"BC1": 0.4}, -0.4),
            # above the PSD floor: the first block passes, the second raises
            ({"AC0": 1e-9, "BC0": 0.6}, -0.6),
        ],
    )
    def test_non_psd_operator_raises_for_the_first_failing_block(self, negatives, expected):
        state = signed_block_operator(negatives)
        with pytest.raises(linops.NotPositiveSemidefiniteError) as err:
            markov.kernel_inclusion_check(state)
        assert err.value.eigenvalue == pytest.approx(expected, abs=1e-15)

    def test_leaking_vector_is_read_only(self):
        matrix = 0.5 * projector(ket("000")) + 0.5 * projector(ket("011"))
        state = DensityOperator(register=QubitRegister(("A", "B", "C")), matrix=matrix)
        vector = markov.kernel_inclusion_check(state).per_outcome[1].leaking_vector
        assert vector is not None and not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 0.0

    def test_one_eigendecomposition_and_no_per_block_helpers(self, monkeypatch, w4_marginal):
        leaking = DensityOperator(
            register=QubitRegister(("A", "B", "C")),
            matrix=0.5 * projector(ket("000")) + 0.5 * projector(ket("011")),
        )
        shapes = []
        eigh = np.linalg.eigh

        def recording(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("inclusion must not build or decompose blocks one by one")

        monkeypatch.setattr(np.linalg, "eigh", recording)
        monkeypatch.setattr(markov, "conditional_block", forbidden)
        monkeypatch.setattr(linops, "kernel_basis", forbidden)
        for state, verdict in ((w4_marginal, True), (leaking, False)):
            shapes.clear()
            assert markov.kernel_inclusion_check(state).verdict is verdict
            assert shapes == [(4, 4, 4)]


class TestApplyChoi:
    def test_append_zero_on_ghz3(self):
        ghz3 = reg.make_state("GHZ3")
        out = markov.apply_choi(ghz3, reg.make_channel_choi("APPEND_ZERO"), "C")
        expected = np.kron(ghz3.matrix, projector(ket("0")))
        assert out.labels == ("A", "B", "C", "D")
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_w_recovery_does_not_reproduce_w4(self, w4_marginal):
        # oracle-fixed: the block-diagonal recovery Choi misses every
        # C-off-diagonal coherence of the W state; the largest gap is 1/4
        residual = markov.verify_recovery(reg.make_state("W4"), w4_marginal, reg.make_channel_choi("W_RECOVERY"))
        assert residual == pytest.approx(0.25, abs=1e-12)

    def test_identity_channel_is_identity(self, rng):
        state = DensityOperator(
            register=QubitRegister(("A", "C")), matrix=random_density(rng, 4)
        )
        out = markov.apply_choi(state, identity_channel_choi(), "C")
        assert out.labels == ("A", "C")
        assert np.abs(out.matrix - state.matrix).max() <= 1e-14

    def test_measure_and_append_recovers_rho2(self):
        rho2 = reg.make_state("RHO2")
        marginal = reg.partial_trace(rho2, "D")
        residual = markov.verify_recovery(rho2, marginal, reg.make_channel_choi("MEASURE_AND_APPEND"))
        assert residual <= 1e-15

    def test_append_zero_misses_ghz4_coherence(self):
        ghz4 = reg.make_state("GHZ4")
        residual = markov.verify_recovery(
            ghz4, reg.partial_trace(ghz4, "D"), reg.make_channel_choi("APPEND_ZERO")
        )
        assert residual >= 0.49

    def test_linearity(self, rng):
        choi = reg.make_channel_choi("W_RECOVERY")
        register = QubitRegister(("A", "C"))
        for _ in range(20):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            alpha = float(rng.uniform(0.1, 0.9))
            mixed = DensityOperator(register=register, matrix=alpha * rho + (1 - alpha) * sigma)
            lhs = markov.apply_choi(mixed, choi, "C").matrix
            rhs = alpha * markov.apply_choi(
                DensityOperator(register=register, matrix=rho), choi, "C"
            ).matrix + (1 - alpha) * markov.apply_choi(
                DensityOperator(register=register, matrix=sigma), choi, "C"
            ).matrix
            assert np.abs(lhs - rhs).max() <= 1e-11

    def test_random_cptp_chois_preserve_state_validity(self):
        register = QubitRegister(("A", "C"))
        for seed in range(50):
            rng = np.random.default_rng(6000 + seed)
            choi = ChoiOperator(matrix=random_cptp_choi(rng))
            state = DensityOperator(register=register, matrix=random_density(rng, 4))
            out = markov.apply_choi(state, choi, "C")
            assert out.labels == ("A", "C", "D")
            assert abs(out.trace() - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10

    def test_extension_label_collision(self):
        with pytest.raises(LabelError, match="collide"):
            markov.apply_choi(reg.make_state("W4"), reg.make_channel_choi("APPEND_ZERO"), "C")

    @staticmethod
    def by_hand(rho, choi, act_on):
        """apply_choi's output matrix with its layout written out index by index:
        the acted qubit's axes moved last, the einsum, then the output axes
        moved back with the extension right after ``act_on``."""
        n, labels, ext = rho.register.n_qubits, list(rho.labels), list(choi.extension_labels)
        axis = labels.index(act_on)
        order = [k for k in range(n) if k != axis] + [axis]
        rest_dim, out_dim = rho.dim // 2, choi.output_dim
        grouped = np.transpose(rho.matrix.reshape((2,) * (2 * n)), order + [n + k for k in order])
        grouped = grouped.reshape(rest_dim, 2, rest_dim, 2)
        out = np.einsum("acbd,codp->aobp", grouped, choi.matrix.reshape(2, out_dim, 2, out_dim))
        out_labels = [lab for lab in labels if lab != act_on] + [act_on] + ext
        final = labels[:axis + 1] + ext + labels[axis + 1:]
        m = len(final)
        perm = [out_labels.index(lab) for lab in final]
        full = np.transpose(out.reshape((2,) * (2 * m)), perm + [m + q for q in perm])
        matrix = full.reshape(2 ** m, 2 ** m)
        return tuple(final), (matrix + matrix.conj().T) / 2

    @staticmethod
    def relabeled(rho, labels):
        return DensityOperator(register=QubitRegister(labels), matrix=rho.matrix)

    def cases(self):
        marginals = [reg.partial_trace(reg.make_state(name), "D")
                     for name in ("W4", "GHZ4", "RHO2")]
        marginals += [reg.make_state("GHZ3"), reg.partial_trace(reg.make_state("MIX", p=0.3), "D")]
        two_qubit_ext = ChoiOperator(
            matrix=projector(sum(np.kron(ket(b), ket(b + "01")) for b in "01")),
            extension_labels=("D", "E"))
        chois = [reg.make_channel_choi(name) for name in reg.CHANNEL_NAMES]
        chois += [identity_channel_choi(), two_qubit_ext]
        for marginal in marginals:
            for choi in chois:
                yield marginal, choi, "C"  # the builtin layout
                yield marginal, choi, "B"  # the extension follows B
                yield self.relabeled(marginal, ("C", "X", "Y")), choi, "C"
                yield self.relabeled(marginal, ("P", "C", "Q")), choi, "C"

    def test_output_is_bitwise_the_hand_written_layout(self):
        count = 0
        for rho, choi, act_on in self.cases():
            out = markov.apply_choi(rho, choi, act_on)
            labels, matrix = self.by_hand(rho, choi, act_on)
            assert out.labels == labels
            assert np.array_equal(out.matrix, matrix), (rho.labels, choi.extension_labels, act_on)
            count += 1
        assert count == 5 * 6 * 4

    def test_extension_follows_b(self):
        out = markov.apply_choi(reg.make_state("GHZ3"), reg.make_channel_choi("APPEND_ZERO"), "B")
        assert out.labels == ("A", "B", "D", "C")
        expected = projector((ket("0000") + ket("1101")) / np.sqrt(2.0))
        assert np.abs(out.matrix - expected).max() <= 1e-15


class TestBlockOperators:
    def test_theta_blocks_of_ghz_marginal(self):
        marginal = reg.partial_trace(reg.make_state("GHZ4"), "D")
        blocks = {(b.row, b.col): b for b in markov.theta_blocks(marginal, "A")}
        assert np.abs(blocks[(0, 0)].matrix - 0.5 * projector(ket("00"))).max() <= 1e-15
        assert np.abs(blocks[(1, 1)].matrix - 0.5 * projector(ket("11"))).max() <= 1e-15
        assert np.abs(blocks[(0, 1)].matrix).max() == 0.0
        assert blocks[(0, 0)].on_labels == ("B", "C")

    def test_theta_blocks_of_product(self, rng):
        sigma = random_density(rng, 4)
        state = DensityOperator(
            register=QubitRegister(("A", "B", "C")),
            matrix=np.kron(projector(ket("0")), sigma),
        )
        blocks = {(b.row, b.col): b for b in markov.theta_blocks(state, "A")}
        assert np.abs(blocks[(0, 0)].matrix - sigma).max() <= 1e-14
        for key in ((0, 1), (1, 0), (1, 1)):
            assert np.abs(blocks[key].matrix).max() <= 1e-14

    def test_block_hermiticity_and_trace(self):
        for seed in range(50):
            rng = np.random.default_rng(7000 + seed)
            state = DensityOperator(
                register=QubitRegister(("A", "B", "C")), matrix=random_density(rng, 8)
            )
            blocks = {(b.row, b.col): b for b in markov.theta_blocks(state, "A")}
            assert np.abs(blocks[(0, 1)].matrix - blocks[(1, 0)].matrix.conj().T).max() <= 1e-12
            diag_trace = sum(np.trace(blocks[(i, i)].matrix).real for i in (0, 1))
            assert diag_trace == pytest.approx(1.0, abs=1e-10)


class TestMarginalBlockConsistency:
    def test_w4_has_no_pairwise_witness(self):
        # oracle-fixed: the four traced blocks on B are pairwise distinct
        # (diag(1/2,1/4), |1><0|/4, |0><1|/4, |0><0|/4), so the pairwise
        # linearity test cannot flag the W state
        report = markov.marginal_block_consistency(reg.make_state("W4"), "B", {"C", "D"})
        assert report.consistent is True
        assert report.witnesses == ()

    def test_engineered_witness_is_found(self):
        # GHZ4 blocks over A: M_01 = |000><111|/2 traces to zero like the
        # zero off-diagonal M_10's partner... build an explicit case instead:
        # equal traced blocks with different full blocks
        ghz4 = reg.make_state("GHZ4")
        report = markov.marginal_block_consistency(ghz4, "B", {"C", "D"})
        assert report.consistent is False
        pairs = {(w.first, w.second) for w in report.witnesses}
        assert ((0, 1), (1, 0)) in pairs

    def test_product_state_is_consistent(self, rng):
        sigma = random_density(rng, 8)
        state = DensityOperator(
            register=QubitRegister(("A", "B", "C", "D")),
            matrix=np.kron(random_density(rng, 2), sigma),
        )
        report = markov.marginal_block_consistency(state, "B", {"C", "D"})
        assert report.consistent is True

    def test_appended_state_is_consistent(self):
        ghz3 = reg.make_state("GHZ3")
        extended = reg.tensor(
            ghz3,
            DensityOperator(register=QubitRegister(("D",)), matrix=projector(ket("0"))),
        )
        report = markov.marginal_block_consistency(extended, "C", {"D"})
        assert report.consistent is True

    def test_report_serializes(self):
        payload = markov.marginal_block_consistency(
            reg.make_state("GHZ4"), "B", {"C", "D"}
        ).to_dict()
        assert payload["consistent"] is False
        assert payload["witnesses"]


def traced_part(matrix, labels, drop):
    """Tr_drop of a matrix on ``labels``, by one einsum: the test's own partial trace."""
    m = len(labels)
    kets = [chr(ord("a") + i) for i in range(m)]
    bras = [ket if lab in drop else chr(ord("a") + m + i)
            for i, (ket, lab) in enumerate(zip(kets, labels))]
    kept = [i for i, lab in enumerate(labels) if lab not in drop]
    spec = "".join(kets + bras) + "->" + "".join([kets[i] for i in kept] + [bras[i] for i in kept])
    return np.einsum(spec, matrix.reshape((2,) * (2 * m))).reshape(2 ** len(kept), -1)


def pairwise_witnesses(state, keep, extend_to, tol=markov.BLOCK_MATCH_TOL):
    """The pairwise linearity test as a double loop over the blocks, a < b:
    ``[(first, second, traced_gap, block_gap)]``."""
    complement = [lab for lab in state.labels if lab != keep and lab not in extend_to]
    blocks = markov.operator_blocks(state, complement)
    traced = [traced_part(b.matrix, b.on_labels, extend_to) for b in blocks]
    found = []
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            traced_gap = np.abs(traced[a] - traced[b]).max()
            block_gap = np.abs(blocks[a].matrix - blocks[b].matrix).max()
            if traced_gap <= tol < block_gap:
                found.append(((blocks[a].row, blocks[a].col), (blocks[b].row, blocks[b].col),
                              traced_gap, block_gap))
    return found


def consistency_states():
    rng = np.random.default_rng(35)
    states = {name: reg.make_state(name) for name in ("W4", "GHZ4", "RHO2", "GHZ3")}
    states["MIX(0.3)"] = reg.make_state("MIX", p=0.3)
    states["W4 + GHZ4"] = reg.mix(reg.make_state("W4"), reg.make_state("GHZ4"), 0.5)
    for n in (3, 4):
        register = QubitRegister(tuple("ABCD"[:n]))
        for rank in (1, 2 ** n):
            states[f"seeded {n}-qubit rank {rank}"] = DensityOperator(
                register=register, matrix=random_density(rng, 2 ** n, rank))
    return states


CONSISTENCY_STATES = consistency_states()


def keep_and_extensions(labels):
    """Every (keep, extend_to) that leaves a label to index the blocks."""
    for keep in labels:
        others = [lab for lab in labels if lab != keep]
        for size in range(len(others)):
            for extend_to in itertools.combinations(others, size):
                yield keep, set(extend_to)


class TestPairwiseBlockComparison:
    @pytest.mark.parametrize("name", list(CONSISTENCY_STATES))
    def test_witnesses_are_those_of_the_pairwise_loop(self, name):
        state = CONSISTENCY_STATES[name]
        for keep, extend_to in keep_and_extensions(state.labels):
            report = markov.marginal_block_consistency(state, keep, extend_to)
            expected = pairwise_witnesses(state, keep, extend_to)
            assert [(w.first, w.second) for w in report.witnesses] == [e[:2] for e in expected]
            for witness, (_, _, traced_gap, block_gap) in zip(report.witnesses, expected):
                assert witness.traced_gap == pytest.approx(traced_gap, abs=1e-15)
                assert witness.block_gap == pytest.approx(block_gap, abs=1e-15)
            assert report.consistent == (not expected)
            assert len(report.blocks) == len(report.traced)
            for block, traced in zip(report.blocks, report.traced):
                expected_part = traced_part(block.matrix, block.on_labels, extend_to)
                assert np.abs(traced - expected_part).max() <= 1e-15

    def test_w4_report_keeps_its_blocks_and_their_traces_out_of_its_contract(self):
        w4 = reg.make_state("W4")
        report = markov.marginal_block_consistency(w4, "B", {"C", "D"})
        expected = markov.operator_blocks(w4, ["A"])
        assert [(b.row, b.col, b.on_labels) for b in report.blocks] == [
            (b.row, b.col, b.on_labels) for b in expected]
        assert all(np.array_equal(b.matrix, e.matrix) for b, e in zip(report.blocks, expected))
        # Tr_CD of M_00, M_01, M_10, M_11 on B: diag(1/2, 1/4), |1><0|/4, |0><1|/4, |0><0|/4
        quarter = np.array([[[2, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [0, 0]],
                            [[1, 0], [0, 0]]]) / 4
        assert np.abs(report.traced - quarter).max() <= 1e-15
        bare = markov.ConsistencyReport(consistent=True, witnesses=(), tol=report.tol)
        assert report == bare
        assert report.to_dict() == bare.to_dict() == {"consistent": True,
                                                      "tol": report.tol, "witnesses": []}
        assert "traced" not in repr(report)


class TestValidationBranches:
    def test_recovered_labels_must_match_the_target(self):
        ghz3 = reg.make_state("GHZ3")
        target = DensityOperator(register=QubitRegister(("A", "B", "C", "E")),
                                 matrix=np.kron(ghz3.matrix, projector(ket("0"))))
        with pytest.raises(LabelError, match=r"recovered labels .* do not match target"):
            markov.verify_recovery(target, ghz3, reg.make_channel_choi("APPEND_ZERO"))

    def test_blocks_need_a_remaining_subsystem(self):
        with pytest.raises(LabelError, match="blocks need at least one remaining subsystem"):
            markov.operator_blocks(reg.make_state("GHZ3"), ["A", "B", "C"])

    def test_block_labels_must_be_distinct(self):
        with pytest.raises(LabelError, match=r"block labels must be distinct, got \['A', 'A'\]"):
            markov.operator_blocks(reg.make_state("W4"), ["A", "A"])

    def test_extend_to_labels_must_be_known(self):
        with pytest.raises(LabelError, match="unknown label 'Z'"):
            markov.marginal_block_consistency(reg.make_state("W4"), "B", {"C", "Z"})

    def test_keep_label_cannot_be_extended_to(self):
        with pytest.raises(LabelError, match="keep label 'B' cannot be part of extend_to"):
            markov.marginal_block_consistency(reg.make_state("W4"), "B", {"B", "C"})

    def test_consistency_needs_a_block_index(self):
        with pytest.raises(LabelError, match="no subsystem left to index the blocks"):
            markov.marginal_block_consistency(reg.make_state("W4"), "A", {"B", "C", "D"})


class TestVerifyRecovery:
    def test_exact_cases(self, w4_marginal):
        ghz3 = reg.make_state("GHZ3")
        extended = reg.tensor(
            ghz3,
            DensityOperator(register=QubitRegister(("D",)), matrix=projector(ket("0"))),
        )
        assert markov.verify_recovery(
            extended, ghz3, reg.make_channel_choi("APPEND_ZERO")
        ) <= 1e-15

    def test_inclusion_passes_wherever_exact_recovery_exists(self):
        # these states with a known exact recovery channel pass the structural test
        rho2 = reg.make_state("RHO2")
        ghz3 = reg.make_state("GHZ3")
        extended = reg.tensor(
            ghz3,
            DensityOperator(register=QubitRegister(("D",)), matrix=projector(ket("0"))),
        )
        for state in (rho2, extended):
            marginal = reg.partial_trace(state, "D")
            assert markov.kernel_inclusion_check(marginal).verdict is True
