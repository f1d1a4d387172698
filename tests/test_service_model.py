"""Schema validation and content addressing of the service model."""

import pytest

from repro.service.model import (
    RequestValidationError,
    SimRequest,
    SimResponse,
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
