"""The Euler top, the rigid body on so(3), against its closed form.

Rotation about an axis of extreme moment is stable and about the middle one
it is not: at t E_ab, k the third index, the pencil of ``corpus.rigid_body``
is NonDegenerate of type (1, 0, 0) exactly when (c_k - c_a)(c_k - c_b) > 0,
and of type (0, 1, 0) otherwise.
"""

import random

import pytest

from bipencil.analyzer import analyze_point
from bipencil.scalars import EXACT, float_mode

from oracles import corpus

AXES = [(0, 1), (0, 2), (1, 2)]       # E12, E13, E23
MODES = pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])


def analyze(c, axis, t, mode):
    point = [0, 0, 0]
    point[axis] = t
    case = corpus.rigid_body(3, c, point)
    return analyze_point(case.field0, case.field_inf, case.point, mode, case.rank)


@MODES
@pytest.mark.parametrize("seed", range(12))
def test_the_euler_top_has_its_closed_form_type(seed, mode):
    rng = random.Random(f"euler-top:{seed}")
    c = rng.sample(range(-9, 10), 3)
    for axis, (a, b) in enumerate(AXES):
        k = 3 - a - b
        t = rng.choice([-1, 1]) * rng.randint(1, 5)
        rep = analyze(c, axis, t, mode)
        assert rep.verdict.kind == "NonDegenerate", (c, axis)
        elliptic = (c[k] - c[a]) * (c[k] - c[b]) > 0
        assert rep.total_type.to_json_dict() == \
            {"ke": int(elliptic), "kh": int(not elliptic), "kf": 0}, (c, axis)


@MODES
def test_the_symmetric_top_is_degenerate_off_its_symmetry_axis(mode):
    # c = (1, 1, 3): elliptic about E12, the axis of the distinct moment, and
    # AdNotSemisimple(-1) about E13 and E23
    reps = [analyze((1, 1, 3), axis, 1, mode) for axis in range(3)]
    assert reps[0].verdict.kind == "NonDegenerate"
    assert reps[0].total_type.to_json_dict() == {"ke": 1, "kh": 0, "kf": 0}
    for rep in reps[1:]:
        assert (rep.verdict.kind, rep.verdict.reason) == ("Degenerate", "AdNotSemisimple(-1)")
