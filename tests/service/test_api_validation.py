"""The service API boundary: a spec payload either decodes to a
:class:`RunSpec` or raises :class:`ApiError` (HTTP 400) — never any
other exception, and never a spec the engine would waste time on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import RunSpec
from repro.service import api


def payload(**fields):
    return dict({"workload": "educational"}, **fields)


class TestRejectedPayloads:
    @pytest.mark.parametrize(
        "bad",
        [
            payload(workload="nosuch"),
            payload(workload=7),
            payload(instructions=-5),
            payload(instructions=0),
            payload(instructions="100"),
            payload(instructions=True),
            payload(instructions=100.0),
            payload(instructions=10 ** 12),
            payload(instructions=api.MAX_BUDGET_INSTRUCTIONS + 1),
            payload(warmup_instructions=-1),
            payload(warmup_instructions=False),
            payload(process_count=0),
            payload(seed_offset="3"),
            payload(label=5),
            payload(config=[]),
            payload(config={"cache_size_bytes": "8K"}),
            payload(config={"decode_overlap": 1}),
        ],
    )
    def test_rejected_with_api_error(self, bad):
        with pytest.raises(api.ApiError):
            api.spec_from_payload(bad)

    def test_budget_bounds_are_inclusive(self):
        spec = api.spec_from_payload(
            payload(instructions=api.MAX_BUDGET_INSTRUCTIONS, warmup_instructions=0)
        )
        assert spec.instructions == api.MAX_BUDGET_INSTRUCTIONS
        assert spec.warmup_instructions == 0

    def test_defaults_match_run_spec(self):
        spec = api.spec_from_payload(payload())
        assert spec == RunSpec(workload="educational")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10 ** 13), max_value=10 ** 13)
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
field_names = st.sampled_from(
    [
        "workload",
        "instructions",
        "warmup_instructions",
        "process_count",
        "seed_offset",
        "config",
        "label",
        "cache_size_bytes",
        "decode_overlap",
        "bogus",
    ]
)
field_values = st.one_of(
    json_values,
    st.sampled_from(["educational", "scientific", "nosuch"]),
    st.dictionaries(field_names, json_values, max_size=3),
)
payloads = st.one_of(
    json_values, st.dictionaries(field_names, field_values, max_size=6)
)


class TestRandomPayloads:
    @settings(max_examples=300, deadline=None)
    @given(candidate=payloads)
    def test_run_spec_or_api_error(self, candidate):
        try:
            spec = api.spec_from_payload(candidate)
        except api.ApiError:
            return
        assert isinstance(spec, RunSpec)
        assert 1 <= spec.instructions <= api.MAX_BUDGET_INSTRUCTIONS
        assert 0 <= spec.warmup_instructions <= api.MAX_BUDGET_INSTRUCTIONS
        assert spec.name  # describable: config values are well typed
