"""Schema validation and content addressing of the service model."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.model import (
    RequestValidationError,
    SimRequest,
    SimResponse,
    SweepRequest,
    service_max_qubits,
)


def _req(**over):
    base = dict(operation="add", n=2, m=3, x=(1,), y=(2, 5))
    base.update(over)
    return SimRequest(**base)


class TestValidation:
    def test_valid_request_passes(self):
        _req().validate()

    def test_every_error_is_collected(self):
        with pytest.raises(RequestValidationError) as exc:
            _req(operation="sub", shots=0, error_axis="3q").validate()
        joined = "; ".join(exc.value.errors)
        assert "operation" in joined
        assert "shots" in joined
        assert "error_axis" in joined
        assert len(exc.value.errors) >= 3

    @pytest.mark.parametrize(
        "field,value",
        [
            ("error_rate", -0.1),
            ("error_rate", 1.0),
            ("shots", 0),
            ("trajectories", 0),
            ("method", "qpu"),
            ("seed", -1),
            ("priority", 10),
            ("depth", 0),
            ("convention", "weird"),
        ],
    )
    def test_out_of_envelope_rejected(self, field, value):
        with pytest.raises(RequestValidationError):
            _req(**{field: value}).validate()

    def test_operand_out_of_register_range(self):
        with pytest.raises(RequestValidationError) as exc:
            _req(x=(4,)).validate()  # 4 needs 3 bits, register has 2
        assert any("x" in e for e in exc.value.errors)

    def test_duplicate_operand_values(self):
        with pytest.raises(RequestValidationError):
            _req(y=(2, 2)).validate()

    def test_empty_operand(self):
        with pytest.raises(RequestValidationError):
            _req(x=()).validate()

    def test_width_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_QUBITS", "4")
        assert service_max_qubits() == 4
        with pytest.raises(RequestValidationError) as exc:
            _req().validate()  # 2 + 3 = 5 > 4
        assert any("cap" in e for e in exc.value.errors)

    def test_density_capped_at_exact_lane_width(self):
        # Density at 11-13 qubits runs for minutes on an executor slot:
        # the service admits explicit density only where PTM is exact.
        from repro.sim.density import DensityMatrixEngine
        from repro.sim.engines import EXACT_MAX_QUBITS

        assert EXACT_MAX_QUBITS == 10 < DensityMatrixEngine.max_qubits
        _req(n=5, m=5, x=(3,), y=(7,), method="density").validate()
        with pytest.raises(RequestValidationError) as exc:
            _req(n=6, m=6, x=(3,), y=(7,), method="density").validate()
        assert exc.value.status == 422
        (message,) = exc.value.errors
        assert "limited to 10 qubits, got 12" in message
        assert 'method="cut"' in message
        # The same width through the trajectory lane stays admitted.
        _req(n=6, m=6, x=(3,), y=(7,), method="trajectory").validate()

    def test_width_limit_with_schema_errors_is_400(self):
        with pytest.raises(RequestValidationError) as exc:
            _req(n=6, m=6, x=(3,), y=(7,), method="density",
                 shots=0).validate()
        assert exc.value.status == 400
        assert len(exc.value.errors) == 2

    def test_mul_counts_product_register(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_MAX_QUBITS", "7")
        # mul is 2*(n+m) = 8 wide even though n+m = 4.
        with pytest.raises(RequestValidationError):
            _req(operation="mul", n=2, m=2, y=(1,)).validate()


class TestFromDict:
    def test_round_trip(self):
        req = _req(seed=9, error_rate=0.01, priority=2)
        again = SimRequest.from_dict(req.to_dict())
        assert again == req

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestValidationError) as exc:
            SimRequest.from_dict(
                dict(operation="add", n=2, m=3, x=[1], y=[2], qubits=5)
            )
        assert any("unknown" in e for e in exc.value.errors)

    def test_missing_required_fields(self):
        with pytest.raises(RequestValidationError) as exc:
            SimRequest.from_dict({"operation": "add"})
        assert any("missing" in e for e in exc.value.errors)

    def test_non_object_body(self):
        with pytest.raises(RequestValidationError):
            SimRequest.from_dict([1, 2, 3])

    def test_type_coercion_rejects_garbage(self):
        with pytest.raises(RequestValidationError):
            SimRequest.from_dict(
                dict(operation="add", n="two", m=3, x=[1], y=[2])
            )


class TestContentKey:
    def test_operand_order_is_canonical(self):
        assert _req(y=(2, 5)).content_key() == _req(y=(5, 2)).content_key()

    def test_priority_does_not_affect_key(self):
        assert _req(priority=0).content_key() == _req(priority=9).content_key()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", 1),
            ("shots", 513),
            ("error_rate", 0.001),
            ("depth", 3),
            ("method", "density"),
            ("x", (2,)),
        ],
    )
    def test_result_determining_fields_change_key(self, field, value):
        assert _req().content_key() != _req(**{field: value}).content_key()

    def test_rng_seed_mixes_content(self):
        # Same user seed, different requests -> independent streams.
        assert _req(seed=5).rng_seed() != _req(seed=5, shots=999).rng_seed()
        assert _req(seed=5).rng_seed()[0] == 5


class TestResponse:
    def test_json_round_trip(self):
        resp = SimResponse(
            content_key="abc",
            counts={13: 200, 25: 56},
            num_qubits=5,
            shots=256,
            method="density",
            program_fingerprint="deadbeef",
            seed=7,
            success=True,
            min_diff=10,
            success_probability=0.97,
            cache="miss",
            timings_ms={"total": 1.5},
        )
        again = SimResponse.from_dict(resp.to_dict())
        assert again == resp
        counts = again.counts_object()
        assert counts.shots == 256
        assert counts[13] == 200
        assert counts.method == "density"


# -- fuzzing ---------------------------------------------------------------

_VALID_SIM = dict(
    operation="add", n=2, m=3, x=[1], y=[2, 5], depth=2, error_axis="2q",
    error_rate=0.01, shots=64, trajectories=8, method="trajectory", seed=7,
    convention="qiskit", priority=5, tenant="t",
)
_VALID_BASE = {k: v for k, v in _VALID_SIM.items() if k != "error_rate"}

#: Values a JSON decoder can hand the model, edge cases first: huge and
#: boundary ints, non-finite floats (``1e999``/``Infinity``/``NaN``).
_JSON_SCALARS = st.one_of(
    st.sampled_from([
        10**400, -(10**400), 2**63, 2**63 - 1, -1, 0,
        float("inf"), float("-inf"), float("nan"), 1e300, 0.5,
    ]),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)

#: (parser, valid body, mutable paths): a path names a key, a key of
#: ``base``, or element 0 of a list.
_TARGETS = [
    (SimRequest, _VALID_SIM, [(k,) for k in _VALID_SIM] + [("x", 0), ("y", 1)]),
    (
        SweepRequest,
        {"base": _VALID_BASE, "rates": [0.001, 0.01], "tenant": "t",
         "priority": 3},
        [("base",), ("rates",), ("tenant",), ("priority",), ("rates", 0)]
        + [("base", k) for k in _VALID_BASE]
        + [("base", "x", 0)],
    ),
]


def _mutated(body, path, value):
    """``body`` with ``value`` at ``path``; unchanged when an earlier
    mutation replaced the container the path runs through."""
    body = copy.deepcopy(body)
    holder = body
    for step in path[:-1]:
        holder = holder.get(step) if isinstance(holder, dict) else None
    key = path[-1]
    if (isinstance(holder, dict) and isinstance(key, str)) or (
        isinstance(holder, list) and isinstance(key, int) and key < len(holder)
    ):
        holder[key] = value
    return body


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_dict_returns_a_request_or_a_validation_error(data):
    """Any JSON-shaped value in any field is either accepted or reported
    as a :class:`RequestValidationError` (a 4xx), never another error."""
    parser, body, paths = data.draw(st.sampled_from(_TARGETS))
    # Outer keys before inner ones, so a replaced container is seen.
    for path in sorted(data.draw(
        st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)
    ), key=len):
        body = _mutated(body, path, data.draw(_JSON))
    try:
        parsed = parser.from_dict(body)
    except RequestValidationError:
        return
    assert isinstance(parsed, parser)
