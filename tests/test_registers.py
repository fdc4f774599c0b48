import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from vqmc import registers as reg
from vqmc.registers import (
    ChoiOperator,
    DensityOperator,
    LabelError,
    QubitRegister,
    ket,
    projector,
)

from conftest import random_density


def qubit_state(label: str, matrix) -> DensityOperator:
    return DensityOperator(register=QubitRegister((label,)), matrix=matrix)


class TestRegister:
    def test_distinct_labels_required(self):
        with pytest.raises(LabelError):
            QubitRegister(("A", "A"))

    def test_dims(self):
        r = QubitRegister(("A", "B", "C", "D"))
        assert r.dim == 16 and r.dims == (2, 2, 2, 2)

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            QubitRegister(("A", "B")).axis("Z")


class TestDensityOperator:
    def test_rejects_negative(self):
        with pytest.raises(Exception, match="not PSD"):
            qubit_state("A", np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            qubit_state("A", np.diag([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            qubit_state("A", np.diag([bad, 0.0]))

    def test_unnormalized_blocks_allowed(self):
        op = DensityOperator(
            register=QubitRegister(("A",)), matrix=np.diag([0.25, 0.0]), normalized=False
        )
        assert op.trace() == pytest.approx(0.25)

    def test_matrix_is_immutable(self):
        op = qubit_state("A", np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 3.0


class TestTensor:
    def test_plus_times_zero(self):
        plus = qubit_state("C", 0.5 * np.ones((2, 2)))
        zero = qubit_state("D", projector(ket("0")))
        out = reg.tensor(plus, zero)
        assert out.labels == ("C", "D")
        # each 2x2 block is plus[i,j] * |0><0|
        assert np.allclose(out.matrix[:2, :2], 0.5 * np.diag([1.0, 0.0]))
        assert np.allclose(out.matrix[:2, 2:], 0.5 * np.diag([1.0, 0.0]))
        assert out.trace() == pytest.approx(1.0)

    def test_ghz3_with_appended_zero(self):
        ghz3 = reg.make_state("GHZ3")
        out = reg.tensor(ghz3, qubit_state("D", projector(ket("0"))))
        expected = np.kron(ghz3.matrix, projector(ket("0")))
        assert np.abs(out.matrix - expected).max() == 0.0
        assert out.labels == ("A", "B", "C", "D")

    def test_label_collision(self):
        with pytest.raises(LabelError, match="collision"):
            reg.tensor(reg.make_state("GHZ3"), qubit_state("A", np.eye(2) / 2))

    def test_round_trip_with_partial_trace(self):
        for seed in range(50):
            rng = np.random.default_rng(100 + seed)
            rho = DensityOperator(
                register=QubitRegister(("A", "B")), matrix=random_density(rng, 4)
            )
            extended = reg.tensor(rho, qubit_state("E", np.eye(2) / 2))
            back = reg.partial_trace(extended, "E")
            assert np.abs(back.matrix - rho.matrix).max() <= 1e-12


class TestPartialTrace:
    def test_ghz4_marginal_is_classical(self):
        marginal = reg.partial_trace(reg.make_state("GHZ4"), "D")
        expected = 0.5 * (projector(ket("000")) + projector(ket("111")))
        assert np.abs(marginal.matrix - expected).max() <= 1e-15
        assert marginal.labels == ("A", "B", "C")

    def test_w4_marginal(self):
        marginal = reg.partial_trace(reg.make_state("W4"), "D")
        phi = ket("001") + ket("010") + ket("100")
        expected = 0.25 * (projector(ket("000")) + projector(phi))
        assert np.abs(marginal.matrix - expected).max() <= 1e-15

    def test_composition_matches_single_call(self):
        w4 = reg.make_state("W4")
        two_step = reg.partial_trace(reg.partial_trace(w4, "D"), "C")
        one_step = reg.partial_trace(w4, {"C", "D"})
        assert np.array_equal(two_step.matrix, one_step.matrix)
        assert two_step.labels == one_step.labels == ("A", "B")

    def test_trace_preserved(self):
        assert reg.partial_trace(reg.make_state("W4"), {"B", "D"}).trace() == pytest.approx(1.0)

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            reg.partial_trace(reg.make_state("W4"), "Q")


class TestPartialTranspose:
    def test_product_state_transposes_factor(self):
        rng = np.random.default_rng(7)
        rho_a = random_density(rng, 2)
        rho_c = random_density(rng, 2)
        prod = DensityOperator(
            register=QubitRegister(("A", "C")), matrix=np.kron(rho_a, rho_c)
        )
        out = reg.partial_transpose(prod, "C")
        assert np.abs(out.matrix - np.kron(rho_a, rho_c.T)).max() <= 1e-15

    def test_entangled_state_goes_indefinite(self):
        bell = DensityOperator(
            register=QubitRegister(("A", "B")),
            matrix=projector((ket("00") + ket("11")) / np.sqrt(2.0)),
        )
        flipped = reg.partial_transpose(bell, "B")
        eigenvalues = np.linalg.eigvalsh(flipped.matrix)
        assert np.allclose(sorted(eigenvalues), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_is_exact(self):
        w4 = reg.make_state("W4")
        back = reg.partial_transpose(reg.partial_transpose(w4, "C"), "C")
        assert np.array_equal(back.matrix, w4.matrix)


class TestMakeState:
    def test_w4(self):
        w4 = reg.make_state("W4")
        assert w4.trace() == pytest.approx(1.0)
        assert np.linalg.matrix_rank(w4.matrix, tol=1e-10) == 1
        assert w4.matrix[int("0001", 2), int("1000", 2)] == pytest.approx(0.25)

    def test_mix_endpoints_collapse(self):
        assert np.array_equal(reg.make_state("MIX", p=0.0).matrix, reg.make_state("GHZ4").matrix)
        assert np.array_equal(reg.make_state("MIX", p=1.0).matrix, reg.make_state("W4").matrix)

    def test_rho2_diagonal(self):
        rho2 = reg.make_state("RHO2")
        diag = np.diag(rho2.matrix).real
        assert diag[0] == 0.5 and diag[15] == 0.5
        assert np.abs(rho2.matrix - np.diag(diag)).max() == 0.0

    def test_mix_validates_p(self):
        with pytest.raises(ValueError):
            reg.make_state("MIX", p=1.5)
        with pytest.raises(ValueError):
            reg.make_state("MIX")

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 20).tolist())
    def test_mix_is_a_state_across_grid(self, p):
        state = reg.make_state("MIX", p=p)
        assert state.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown state"):
            reg.make_state("W5")


class TestMakeChannelChoi:
    @pytest.mark.parametrize("name", reg.CHANNEL_NAMES)
    def test_factory_invariants(self, name):
        choi = reg.make_channel_choi(name)
        assert choi.cp_flag
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-12
        reduced = np.trace(choi.matrix.reshape(2, 4, 2, 4), axis1=1, axis2=3)
        assert np.abs(reduced - np.eye(2)).max() <= 1e-12

    def test_append_zero_is_rank_one(self):
        choi = reg.make_channel_choi("APPEND_ZERO")
        assert choi.matrix.shape == (8, 8)
        assert np.linalg.matrix_rank(choi.matrix, tol=1e-10) == 1

    def test_w_recovery_block_diagonal(self):
        choi = reg.make_channel_choi("W_RECOVERY")
        psi0 = (ket("00") + ket("01")) / np.sqrt(2.0)
        assert np.abs(choi.matrix[:4, :4] - projector(psi0)).max() <= 1e-15
        assert np.abs(choi.matrix[4:, 4:] - projector(ket("10"))).max() <= 1e-15
        assert np.abs(choi.matrix[:4, 4:]).max() == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown channel"):
            reg.make_channel_choi("NOPE")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cp_flag", [True, False])
    def test_rejects_non_finite(self, bad, cp_flag):
        j = reg.make_channel_choi("APPEND_ZERO").matrix.copy()
        j[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ChoiOperator(matrix=j, cp_flag=cp_flag)

    def test_non_cp_choi_requires_flag(self):
        j = reg.make_channel_choi("APPEND_ZERO").matrix - reg.make_channel_choi(
            "MEASURE_AND_APPEND"
        ).matrix
        with pytest.raises(Exception, match="not PSD"):
            ChoiOperator(matrix=j)
        hp = ChoiOperator(matrix=j, cp_flag=False)
        assert hp.trace_scale == pytest.approx(0.0, abs=1e-12)


class TestJsonFormat:
    def test_round_trip_is_lossless(self, tmp_path, rng):
        state = reg.make_state("MIX", p=1.0 / 3.0)
        path = tmp_path / "state.json"
        reg.save_state(state, path)
        loaded = reg.load_state(path)
        assert loaded.labels == state.labels
        assert loaded.normalized == state.normalized
        assert np.array_equal(loaded.matrix, state.matrix)

    def test_format_fields(self, tmp_path):
        path = tmp_path / "w4.json"
        reg.save_state(reg.make_state("W4"), path)
        payload = json.loads(path.read_text())
        assert payload["labels"] == ["A", "B", "C", "D"]
        assert payload["dims"] == [2, 2, 2, 2]
        assert payload["normalized"] is True
        assert len(payload["re"]) == 16 and len(payload["im"]) == 16

    @pytest.mark.parametrize("payload", [[1, 2], "W4", None])
    def test_rejects_a_payload_that_is_not_an_object(self, payload):
        with pytest.raises(ValueError, match="must be a JSON object"):
            reg.state_from_dict(payload)

    @pytest.mark.parametrize("key", ["labels", "re", "im"])
    def test_rejects_a_missing_field(self, key):
        payload = reg.state_to_dict(reg.make_state("W4"))
        del payload[key]
        with pytest.raises(ValueError, match=f"lacks '{key}'"):
            reg.state_from_dict(payload)

    def test_rejects_qudit_dims(self):
        with pytest.raises(ValueError, match="qubit"):
            reg.state_from_dict(
                {"labels": ["A"], "dims": [3], "re": [[1.0]], "im": [[0.0]]}
            )

    @pytest.mark.parametrize("labels", [[["A"], ["B"]], ["A", 2], [None, "B"]])
    def test_rejects_labels_that_are_not_strings(self, labels):
        payload = {"labels": labels, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(ValueError, match="'labels' must be strings"):
            reg.state_from_dict(payload)

    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
    def test_rejects_a_normalized_flag_that_is_not_boolean(self, flag):
        payload = reg.state_to_dict(reg.make_state("W4"))
        payload["normalized"] = flag
        with pytest.raises(ValueError, match="'normalized' must be true or false"):
            reg.state_from_dict(payload)

    @pytest.mark.parametrize("flag", [True, False])
    def test_accepts_a_boolean_normalized_flag(self, flag):
        payload = reg.state_to_dict(reg.make_state("W4"))
        payload["normalized"] = flag
        assert reg.state_from_dict(payload).normalized is flag

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("value", [{"x": 1}, [[1.0, 0.0], [0.0]], "one"])
    def test_rejects_a_part_that_is_not_a_matrix_of_numbers(self, key, value):
        payload = {"labels": ["A"], "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        payload[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be a matrix of numbers"):
            reg.state_from_dict(payload)

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", ["0.5", False, True, None, 10 ** 400],
                             ids=["text", "false", "true", "null", "int beyond float"])
    def test_rejects_an_entry_that_is_not_a_number(self, key, entry):
        # np.asarray(..., dtype=float) alone would read "0.5" as 0.5 and false as 0
        payload = {"labels": ["A"], "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        payload[key][1][0] = entry
        with pytest.raises(ValueError) as caught:
            reg.state_from_dict(payload)
        assert str(caught.value) == f"state payload {key!r} must be a matrix of numbers"

    def test_rejects_a_part_nested_deeper_than_the_call_stack(self):
        # a recursive walk of the nested lists would raise RecursionError here
        deep = 1.0
        for _ in range(900):
            deep = [deep]
        payload = {"labels": ["A"], "re": deep, "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError) as caught:
            reg.state_from_dict(payload)
        assert str(caught.value) == "state payload 're' must be a matrix of numbers"

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_entry(self, key, entry):
        payload = {"labels": ["A"], "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        payload[key][1][0] = entry
        with pytest.raises(ValueError, match=f"'{key}' has non-finite entries"):
            reg.state_from_dict(payload)

    def test_round_trip_of_a_complex_state_is_lossless(self, tmp_path, rng):
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrix = matrix @ matrix.conj().T
        state = reg.DensityOperator(register=reg.QubitRegister(("A", "B")),
                                    matrix=matrix / np.trace(matrix).real)
        path = tmp_path / "state.json"
        reg.save_state(state, path)
        assert np.array_equal(reg.load_state(path).matrix, state.matrix)

    @pytest.mark.parametrize("im, shape", [([[0]], (1, 1)), (0, ()), ([0.0] * 8, (8,)),
                                           (np.zeros((4, 4)).tolist(), (4, 4))])
    def test_rejects_an_imaginary_part_of_another_shape(self, im, shape):
        payload = {"labels": ["A", "B", "C"], "re": (np.eye(8) / 8).tolist(), "im": im}
        with pytest.raises(ValueError) as caught:
            reg.state_from_dict(payload)
        assert str(caught.value) == (
            f"state payload 're' has shape (8, 8) but 'im' has shape {shape}")

    @pytest.mark.parametrize("dims", [[], [2], [2, 2, 2]])
    def test_rejects_dims_of_another_length_than_labels(self, dims):
        payload = {"labels": ["A", "B"], "dims": dims, "re": (np.eye(4) / 4).tolist(),
                   "im": np.zeros((4, 4)).tolist()}
        with pytest.raises(ValueError, match=f"one entry per label, got {len(dims)} for 2 labels"):
            reg.state_from_dict(payload)


def integer_qubit_matrix(rng) -> np.ndarray:
    # small Gaussian integers: every product in a Kronecker product is exact,
    # so a reordered product compares bit for bit
    return rng.integers(-9, 10, (2, 2)) + 1j * rng.integers(-9, 10, (2, 2))


def kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for factor in factors:
        out = np.kron(out, factor)
    return out


class TestLayoutHelpers:
    LABELS = ("A", "B", "C", "D")

    def test_permuted_product_equals_the_product_of_reordered_factors(self, rng):
        factors = dict(zip(self.LABELS, (integer_qubit_matrix(rng) for _ in self.LABELS)))
        assert len({f.tobytes() for f in factors.values()}) == len(factors)
        product = kron_all(factors[lab] for lab in self.LABELS)
        for order in itertools.permutations(self.LABELS):
            out = reg._permuted(product, self.LABELS, order)
            assert np.array_equal(out, kron_all(factors[lab] for lab in order)), order

    def test_permutation_and_inverse_round_trip(self, rng):
        matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        for order in itertools.permutations(self.LABELS):
            there = reg._permuted(matrix, self.LABELS, order)
            assert np.array_equal(reg._permuted(there, order, self.LABELS), matrix), order

    def test_single_qubit_and_identity_order_leave_the_matrix(self, rng):
        one = integer_qubit_matrix(rng)
        assert np.array_equal(reg._permuted(one, ("C",), ("C",)), one)
        matrix = rng.standard_normal((8, 8)) + 0j
        assert np.array_equal(reg._permuted(matrix, ("A", "B", "C"), ("A", "B", "C")), matrix)

    @pytest.mark.parametrize("act_on, expected", [
        ("A", ("A", "X", "Y", "B", "C")),
        ("B", ("A", "B", "X", "Y", "C")),
        ("C", ("A", "B", "C", "X", "Y")),
    ])
    def test_extended_labels_insert_right_after_act_on(self, act_on, expected):
        assert reg._extended_labels(("A", "B", "C"), act_on, ("X", "Y")) == expected
        assert reg._acted_on(("A", "B", "C"), expected) == (act_on, ("X", "Y"))

    @pytest.mark.parametrize("labels", [("A", "B", "C"), ("W", "X", "Y", "Z")])
    @pytest.mark.parametrize("ext", [("D",), ("E", "D")])
    def test_acted_on_inverts_extended_labels(self, labels, ext):
        for act_on in labels:
            target = reg._extended_labels(labels, act_on, ext)
            assert reg._acted_on(labels, target) == (act_on, ext)

    @pytest.mark.parametrize("target, message", [
        (("C", "A", "B"), "extend the marginal by at least one subsystem"),
        (("X", "A", "B", "C"), "inserted right after one of them"),  # extension first
        (("A", "X", "B", "C", "Y"), "inserted right after one of them"),  # split extension
        (("B", "A", "C", "X"), "inserted right after one of them"),  # labels reordered
        (("A", "B", "X"), "inserted right after one of them"),  # a label missing
    ])
    def test_acted_on_rejects_every_other_layout(self, target, message):
        with pytest.raises(ValueError, match=message):
            reg._acted_on(("A", "B", "C"), target)

    def test_extended_labels_with_no_extension(self):
        assert reg._extended_labels(["A", "B", "C"], "B", ()) == ("A", "B", "C")

    def test_output_trace_of_a_product(self, rng):
        a = integer_qubit_matrix(rng)
        out = kron_all([integer_qubit_matrix(rng) for _ in range(2)])
        assert np.array_equal(reg._output_trace(np.kron(a, out)), a * np.trace(out))


class TestValidationBranches:
    @pytest.mark.parametrize("bits", ["", "012"])
    def test_ket_needs_a_bit_string(self, bits):
        with pytest.raises(ValueError, match="expected a nonempty bit string"):
            ket(bits)

    def test_register_needs_a_label(self):
        with pytest.raises(LabelError, match="register needs at least one label"):
            QubitRegister(())

    def test_matrix_dimension_must_match_register(self):
        with pytest.raises(ValueError, match="does not match register dimension 2"):
            qubit_state("A", np.eye(4) / 4)

    def test_choi_labels_must_be_distinct(self):
        with pytest.raises(LabelError, match="Choi extension labels must be distinct"):
            ChoiOperator(matrix=np.eye(16) / 8, extension_labels=("D", "D"))

    def test_choi_names_only_what_it_creates(self):
        fields = [field.name for field in dataclasses.fields(ChoiOperator)]
        assert fields == ["matrix", "extension_labels", "cp_flag"]
        with pytest.raises(TypeError, match="act_on"):
            ChoiOperator(matrix=reg.make_channel_choi("APPEND_ZERO").matrix, act_on="A")

    def test_choi_size_must_match_its_labels(self):
        with pytest.raises(ValueError, match=r"Choi matrix must be 8x8, got \(4, 4\)"):
            ChoiOperator(matrix=np.eye(4) / 2)

    def test_choi_output_trace_must_be_proportional_to_identity(self):
        matrix = np.kron(np.diag([1.0, 0.0]), np.eye(4) / 4)
        with pytest.raises(ValueError, match="not proportional to the identity"):
            ChoiOperator(matrix=matrix)

    def test_cannot_trace_out_every_subsystem(self):
        with pytest.raises(LabelError, match="cannot trace out every subsystem"):
            reg.partial_trace(reg.make_state("GHZ3"), ("A", "B", "C"))

    def test_mix_needs_one_register(self):
        ghz3 = reg.make_state("GHZ3")
        with pytest.raises(LabelError, match="cannot mix states on different registers"):
            reg.mix(ghz3, reg.partial_trace(reg.make_state("GHZ4"), "A"), 0.5)

    @pytest.mark.parametrize("weight", [-0.1, 1.5])
    def test_mix_weight_must_lie_in_the_unit_interval(self, weight):
        ghz3 = reg.make_state("GHZ3")
        with pytest.raises(ValueError, match=r"mixing weight must lie in \[0, 1\]"):
            reg.mix(ghz3, ghz3, weight)
