"""Unit tests for the low-level kernels in repro.sim.ops.

Every fast path is checked against the dense matrix product on random
states, for several qubit placements and batch sizes.
"""

import numpy as np
import pytest

from repro.circuits import gates as G
from repro.circuits.circuit import Instruction
from repro.sim.ops import (
    BitCache,
    apply_diagonal,
    apply_gate_matrix,
    apply_instruction,
    apply_pauli_rows,
    probabilities,
)


def random_state(rng, n, batch=1):
    s = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    return s


def dense_apply(state, U, targets, n):
    """Reference implementation: build the full 2^n matrix and multiply."""
    full = np.eye(1, dtype=complex)
    # Build permutation-free full operator by summing basis transitions.
    dim = 1 << n
    op = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    for col in range(dim):
        sub_in = 0
        for pos, t in enumerate(targets):
            sub_in |= ((col >> t) & 1) << pos
        for sub_out in range(1 << k):
            amp = U[sub_out, sub_in]
            if amp == 0:
                continue
            row = col
            for pos, t in enumerate(targets):
                bit = (sub_out >> pos) & 1
                row = (row & ~(1 << t)) | (bit << t)
            op[row, col] += amp
    return state @ op.T


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("q", [0, 1, 3])
@pytest.mark.parametrize("batch", [1, 3])
def test_1q_dense_matches_reference(rng, n, q, batch):
    if q >= n:
        pytest.skip("qubit outside register")
    U = G.SXGate().matrix
    state = random_state(rng, n, batch)
    expected = dense_apply(state, U, [q], n)
    got = apply_gate_matrix(state.copy(), U, [q], n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("targets", [(0, 1), (1, 0), (0, 3), (3, 1)])
@pytest.mark.parametrize("batch", [1, 2])
def test_2q_dense_matches_reference(rng, targets, batch):
    n = 4
    U = (G.CHGate().matrix @ G.SwapGate().matrix)  # some dense 4x4 unitary
    state = random_state(rng, n, batch)
    expected = dense_apply(state, U, list(targets), n)
    got = apply_gate_matrix(state.copy(), U, list(targets), n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("targets", [(0, 1, 2), (2, 0, 3), (3, 1, 0)])
def test_3q_general_path(rng, targets):
    n = 4
    U = G.CCXGate().matrix
    state = random_state(rng, n, 2)
    expected = dense_apply(state, U, list(targets), n)
    got = apply_gate_matrix(state.copy(), U, list(targets), n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize(
    "gate,qubits",
    [
        (G.RZGate(0.37), (1,)),
        (G.PhaseGate(-0.9), (0,)),
        (G.ZGate(), (2,)),
        (G.SGate(), (1,)),
        (G.SdgGate(), (0,)),
        (G.TGate(), (2,)),
        (G.TdgGate(), (1,)),
        (G.XGate(), (1,)),
        (G.HGate(), (2,)),
        (G.SXGate(), (0,)),
        (G.CXGate(), (0, 2)),
        (G.CXGate(), (2, 0)),
        (G.CZGate(), (1, 2)),
        (G.CPGate(1.23), (2, 0)),
        (G.SwapGate(), (0, 2)),
        (G.CCXGate(), (0, 1, 2)),
        (G.CCXGate(), (2, 0, 1)),
        (G.CCPGate(0.6), (1, 2, 0)),
        (G.CHGate(), (1, 0)),
    ],
)
def test_apply_instruction_matches_matrix(rng, gate, qubits):
    n = 3
    instr = Instruction(gate, list(qubits))
    state = random_state(rng, n, 2)
    expected = dense_apply(state, gate.matrix, list(qubits), n)
    got = apply_instruction(state.copy(), instr, n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_barrier_and_id_are_noops(rng):
    state = random_state(rng, 2, 1)
    for gate, qs in [(G.BarrierOp(2), [0, 1]), (G.IdGate(), [0])]:
        out = apply_instruction(state.copy(), Instruction(gate, qs), 2)
        np.testing.assert_allclose(out, state)


def test_apply_diagonal(rng):
    n = 3
    diag = np.exp(1j * rng.normal(size=4))
    state = random_state(rng, n, 2)
    U = np.diag(diag)
    expected = dense_apply(state, U, [2, 0], n)
    got = state.copy()
    apply_diagonal(got, diag, [2, 0], n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


class TestPauliRows:
    @pytest.mark.parametrize("pauli", ["X", "Y", "Z"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_matches_matrix_on_selected_rows(self, rng, pauli, q):
        from repro.noise.pauli import PAULI_MATRICES

        n, batch = 3, 5
        state = random_state(rng, n, batch)
        rows = np.array([0, 2, 4])
        expected = state.copy()
        expected[rows] = dense_apply(
            state[rows], PAULI_MATRICES[pauli], [q], n
        )
        got = state.copy()
        apply_pauli_rows(got, pauli, q, rows, n)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_identity_is_noop(self, rng):
        state = random_state(rng, 2, 3)
        got = state.copy()
        apply_pauli_rows(got, "I", 0, np.array([0, 1]), 2)
        np.testing.assert_allclose(got, state)

    def test_empty_rows_is_noop(self, rng):
        state = random_state(rng, 2, 3)
        got = state.copy()
        apply_pauli_rows(got, "X", 0, np.array([], dtype=int), 2)
        np.testing.assert_allclose(got, state)

    def test_unknown_pauli_raises(self, rng):
        state = random_state(rng, 1, 1)
        with pytest.raises(ValueError):
            apply_pauli_rows(state, "Q", 0, np.array([0]), 1)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("pauli", ["X", "Y", "Z"])
    @pytest.mark.parametrize("q", [0, 3, 6])
    def test_row_views_match_2d_gather_bytewise(self, rng, dtype, pauli, q):
        """The per-row form makes the moves and multiplies of the 2-D
        ``np.ix_`` gather it replaced, so the bytes are equal."""
        n, bits = 7, BitCache()
        state = random_state(rng, n, 6).astype(dtype)
        state.real[:, ::5] = -0.0
        state.imag[:, 1::7] = -0.0
        rows = np.array([5, 0, 3])
        want = state.copy()
        perm = bits.perm_flip(n, q)
        if pauli == "Z":
            want[rows] *= bits.sign_z(n, q)
        elif pauli == "X":
            want[rows] = want[np.ix_(rows, perm)]
        else:
            yfac = 1j * (-bits.sign_z(n, q))
            want[rows] = want[np.ix_(rows, perm)] * yfac
        got = state.copy()
        apply_pauli_rows(got, pauli, q, rows, n, bits)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestBitCache:
    def test_mask(self):
        bits = BitCache()
        m = bits.mask_bit(3, 1)
        expected = [(i >> 1) & 1 for i in range(8)]
        np.testing.assert_array_equal(m.astype(int), expected)

    def test_perm(self):
        bits = BitCache()
        p = bits.perm_flip(3, 2)
        np.testing.assert_array_equal(p, [i ^ 4 for i in range(8)])

    def test_sign(self):
        bits = BitCache()
        s = bits.sign_z(2, 0)
        np.testing.assert_array_equal(s, [1, -1, 1, -1])

    def test_cached_instances_are_reused(self):
        bits = BitCache()
        assert bits.mask_bit(3, 1) is bits.mask_bit(3, 1)


def test_probabilities_normalised(rng):
    state = random_state(rng, 3, 4) * 2.0  # deliberately unnormalised
    p = probabilities(state)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


class TestPauliStringRows:
    """apply_pauli_string_rows: the batched scheduler's fire kernel.

    Property-based: any Pauli string on any row subset (empty, single,
    all, non-contiguous) must match the dense kron'd-matrix reference.
    """

    def _reference(self, state, label, qubits, rows, n):
        from functools import reduce

        from repro.noise.pauli import PAULI_MATRICES

        # dense_apply puts qubits[pos] on sub-index bit pos, and
        # np.kron(A, B) places B on the low bits — so fold factors
        # low-to-high.
        U = reduce(
            lambda acc, ch: np.kron(PAULI_MATRICES[ch], acc),
            label[1:],
            PAULI_MATRICES[label[0]],
        )
        expected = state.copy()
        if rows.size:
            expected[rows] = dense_apply(
                state[rows], U, list(qubits), n
            )
        return expected

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([], dtype=int),          # empty subset
            np.array([2]),                    # single row
            np.arange(5),                     # all rows
            np.array([0, 2, 4]),              # non-contiguous
        ],
        ids=["empty", "single", "all", "noncontiguous"],
    )
    @pytest.mark.parametrize("label,qubits", [("XZ", (0, 2)), ("YY", (1, 0))])
    def test_row_subsets_match_dense(self, rng, rows, label, qubits):
        from repro.sim.ops import apply_pauli_string_rows

        n, batch = 3, 5
        state = random_state(rng, n, batch)
        expected = self._reference(state, label, qubits, rows, n)
        got = state.copy()
        apply_pauli_string_rows(got, label, qubits, rows, n)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_length_mismatch_raises(self, rng):
        from repro.sim.ops import apply_pauli_string_rows

        state = random_state(rng, 2, 2)
        with pytest.raises(ValueError, match="does not match"):
            apply_pauli_string_rows(state, "XY", (0,), np.array([0]), 2)

    def test_property_matches_dense(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.sim.ops import apply_pauli_string_rows

        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            n=st.integers(2, 4),
            batch=st.integers(1, 6),
            seed=st.integers(0, 2**31 - 1),
            data=st.data(),
        )
        def check(n, batch, seed, data):
            qubits = tuple(
                data.draw(
                    st.lists(
                        st.integers(0, n - 1),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            )
            label = data.draw(
                st.text(
                    alphabet="IXYZ",
                    min_size=len(qubits),
                    max_size=len(qubits),
                )
            )
            rows = np.array(
                sorted(
                    data.draw(st.sets(st.integers(0, batch - 1)))
                ),
                dtype=int,
            )
            state = random_state(np.random.default_rng(seed), n, batch)
            expected = self._reference(state, label, qubits, rows, n)
            got = state.copy()
            apply_pauli_string_rows(got, label, qubits, rows, n)
            np.testing.assert_allclose(got, expected, atol=1e-12)

        check()
