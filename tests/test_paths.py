import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lepage import paths
from lepage.paths import (
    DomainError,
    PathValidationError,
    StepPath,
    path_from_csv,
    path_to_csv,
    path_to_json,
    sup_norm,
)


def path_from_json(text: str) -> StepPath:
    """The inverse of ``path_to_json``."""
    payload = json.loads(text)
    return StepPath(
        int(payload["dimension"]),
        np.asarray(payload["initial_value"], dtype=np.float64),
        np.asarray(payload["jump_times"], dtype=np.float64),
        np.asarray(payload["post_jump_values"], dtype=np.float64).reshape(
            len(payload["jump_times"]), int(payload["dimension"])
        ),
    )


def unit_jump_path(t: float, height: float = 1.0) -> StepPath:
    return StepPath(1, [0.0], [t], [[height]])


def difference_on_union_grid(a: StepPath, b: StepPath) -> np.ndarray:
    """``a(t) - b(t)`` at 0 and at every jump time of either path: one row per segment of ``a - b``."""
    ts = [0.0, *a.jump_times, *b.jump_times]
    return a(ts) - b(ts)


class TestEvaluate:
    def test_before_jump(self):
        assert unit_jump_path(0.5)(0.4) == np.array([0.0])

    def test_right_continuity_at_jump(self):
        assert unit_jump_path(0.5)(0.5) == np.array([1.0])

    def test_last_segment(self):
        assert unit_jump_path(0.5)(1.0) == np.array([1.0])

    def test_domain_errors(self):
        p = unit_jump_path(0.5)
        with pytest.raises(DomainError):
            p(-0.1)
        with pytest.raises(DomainError):
            p(1.1)

    def test_nan_time_is_a_domain_error(self):
        # nan < 0 and nan > 1 are both false: the path read its last value
        p = unit_jump_path(0.5)
        with pytest.raises(DomainError):
            p(float("nan"))
        with pytest.raises(DomainError):
            p([0.2, float("nan")])

    def test_vectorized(self):
        p = unit_jump_path(0.5)
        out = p([0.0, 0.5, 0.9])
        assert out.shape == (3, 1)
        assert np.array_equal(out.ravel(), [0.0, 1.0, 1.0])

    def test_scalar_gives_one_value_per_coordinate(self):
        p = StepPath(2, [0.0, 1.0], [0.5], [[-3.0, 2.0]])
        assert p(0.7).shape == (2,)
        assert np.array_equal(p(0.7), [-3.0, 2.0])


class TestSupNorm:
    def test_unit_jump(self):
        assert sup_norm(unit_jump_path(0.5)) == 1.0

    def test_zero_path(self):
        assert sup_norm(StepPath(1, np.zeros(1))) == 0.0

    def test_coordinatewise(self):
        p = StepPath(2, [0.0, 0.0], [0.5], [[-3.0, 2.0]])
        assert sup_norm(p) == 3.0


class TestValidation:
    def test_jump_at_zero_rejected(self):
        with pytest.raises(PathValidationError):
            StepPath(1, [0.0], [0.0], [[1.0]])

    def test_jump_after_one_rejected(self):
        with pytest.raises(PathValidationError):
            StepPath(1, [0.0], [1.5], [[1.0]])

    def test_unsorted_times_rejected(self):
        with pytest.raises(PathValidationError):
            StepPath(1, [0.0], [0.5, 0.4], [[1.0], [2.0]])

    def test_duplicate_times_rejected(self):
        with pytest.raises(PathValidationError):
            StepPath(1, [0.0], [0.5, 0.5], [[1.0], [2.0]])

    def test_value_shape_mismatch(self):
        with pytest.raises(PathValidationError):
            StepPath(1, [0.0], [0.5], [[1.0], [2.0]])

    def test_immutable(self):
        p = unit_jump_path(0.5)
        with pytest.raises(ValueError):
            p.jump_times[0] = 0.9


# -- property tests ----------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def step_paths(draw, dimension=None):
    d = dimension if dimension is not None else draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    times = sorted(draw(st.sets(st.floats(min_value=1e-3, max_value=1.0), min_size=m, max_size=m)))
    values = [[draw(finite) for _ in range(d)] for _ in range(m)]
    init = [draw(finite) for _ in range(d)]
    return StepPath(d, init, np.array(times), np.array(values).reshape(m, d))


@given(step_paths(), finite)
@settings(max_examples=100)
def test_scaling_of_sup_norm_is_exact(p, a):
    assert np.max(np.abs(a * p([0.0, *p.jump_times]))) == abs(a) * sup_norm(p)


@pytest.mark.parametrize("dimension", [1, 2])
@given(data=st.data())
@settings(max_examples=100)
def test_sup_norm_is_the_largest_segment_value(dimension, data):
    # every path with no jumps too: sup_norm reads the extremes of the post-jump values, not a copy of all
    p = data.draw(step_paths(dimension=dimension))
    no_jumps = StepPath(dimension, p.initial_value)
    for path in (p, no_jumps):
        got = sup_norm(path)
        assert type(got) is float and repr(got) == repr(float(np.max(np.abs(path.segment_values()))))


@given(st.data())
@settings(max_examples=100)
def test_triangle_inequality(data):
    d = data.draw(st.integers(1, 3))
    x = data.draw(step_paths(dimension=d))
    y = data.draw(step_paths(dimension=d))
    minus_y = StepPath(d, -y.initial_value, y.jump_times, -y.post_jump_values)
    assert np.max(np.abs(difference_on_union_grid(x, minus_y))) <= sup_norm(x) + sup_norm(y)


@given(step_paths())
@settings(max_examples=60)
def test_serialization_round_trips_bit_exactly(p):
    assert path_from_csv(path_to_csv(p)) == p
    assert path_from_json(path_to_json(p)) == p


AWKWARD = StepPath(2, [1.0 / 3.0, -1e-300], [0.1234567890123456789, 1.0],
                   [[np.pi, 1e300], [-1.0 / 7.0, 5e-324]])


def test_csv_round_trip_awkward_floats():
    p = AWKWARD
    assert path_from_csv(path_to_csv(p)) == p
    assert path_from_json(path_to_json(p)) == p


def reference_path_csv(path: StepPath) -> str:
    """The per-row ``csv.writer`` serializer that ``path_to_csv`` replaced: its oracle."""
    def fmt(x) -> str:
        return format(float(x), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"value_{i + 1}" for i in range(path.dimension)])
    writer.writerow([fmt(0.0)] + [fmt(v) for v in path.initial_value])
    for t, row in zip(path.jump_times, path.post_jump_values):
        writer.writerow([fmt(t)] + [fmt(v) for v in row])
    return buf.getvalue()


@given(step_paths())
@settings(max_examples=200)
def test_csv_equals_reference_writer(p):
    assert path_to_csv(p) == reference_path_csv(p)


def test_csv_equals_reference_writer_on_awkward_floats():
    negative_zero = StepPath(1, [-0.0], [0.5, 1.0], [[-0.0], [1e16]])
    for p in (AWKWARD, negative_zero, StepPath(3, np.zeros(3))):
        assert path_to_csv(p) == reference_path_csv(p)


def boundary_path(jumps: int, d: int) -> StepPath:
    """A path of ``jumps`` jumps at awkward times and values, for checks at serializer block boundaries."""
    rng = np.random.default_rng(jumps * 10 + d)
    times = np.cumsum(rng.random(jumps) + 0.25)
    values = rng.standard_normal((jumps, d)) * 10.0 ** rng.integers(-300, 300, (jumps, d))
    return StepPath(d, rng.standard_normal(d) / 3.0, times / times[-1] if jumps else times, values)


BLOCK_BOUNDARY_JUMPS = [0, 1, paths._BLOCK_ROWS - 1, paths._BLOCK_ROWS, paths._BLOCK_ROWS + 1,
                        2 * paths._BLOCK_ROWS + 1]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("jumps", BLOCK_BOUNDARY_JUMPS)
def test_csv_equals_reference_writer_at_block_boundaries(jumps, d):
    p = boundary_path(jumps, d)
    pieces = list(paths._csv_blocks(p))
    assert "".join(pieces) == path_to_csv(p) == reference_path_csv(p)
    # the header, the t=0 row and one piece per block: the text is never made whole
    assert len(pieces) == 2 + -(-jumps // paths._BLOCK_ROWS)


def test_csv_format_shape():
    text = path_to_csv(StepPath(2, [0.0, 1.0], [0.5], [[1.0, 2.0]]))
    lines = text.splitlines()
    assert lines[0] == "t,value_1,value_2"
    assert lines[1].startswith("0,")
    assert len(lines) == 3


def test_csv_rejects_missing_origin_row():
    with pytest.raises(PathValidationError):
        path_from_csv("t,value_1\n0.5,1\n")
