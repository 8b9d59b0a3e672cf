import dataclasses
import math

import numpy as np
import pytest

from monoflow.report import CheckOutcome, CheckReport, worst

NAN = float("nan")


class TestWorst:
    @pytest.mark.parametrize(
        "margins",
        [[NAN], [NAN, 1.0, -5.0], [1.0, NAN, -5.0], [-5.0, 2.0, NAN], [-math.inf, NAN], [NAN, -math.inf]],
    )
    def test_nan_anywhere_is_the_worst_and_fails(self, margins):
        m, _ = worst(margins)
        assert math.isnan(m)
        rep = CheckReport()
        rep.add("probe", m)
        assert not rep.outcomes[0].passed and not rep.all_passed
        assert rep.lines()[0].startswith("[FAIL] probe: worst margin nan")

    def test_nan_keeps_the_detail_of_the_first_nan(self):
        assert worst([(1.0, "a"), (NAN, "b"), (NAN, "c"), (-1.0, "d")])[1] == "b"

    def test_nan_from_a_generator_and_numpy_scalars(self):
        m, _ = worst(np.float64(x) for x in (0.5, NAN, 0.25))
        assert math.isnan(m) and type(m) is float

    def test_empty_is_plus_infinity_and_passes(self):
        assert worst([]) == (math.inf, "")
        assert worst(iter(())) == (math.inf, "")
        rep = CheckReport()
        rep.add("empty", *worst([]))
        assert rep.all_passed

    def test_ties_keep_the_first_detail(self):
        assert worst([(2.0, "a"), (1.0, "b"), (1.0, "c"), (3.0, "d")]) == (1.0, "b")
        assert worst([(math.inf, "only")]) == (math.inf, "only")
        assert worst([(0.0, "pos"), (-0.0, "neg")])[1] == "pos"

    def test_equals_builtin_min_on_finite_input(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 20))
            xs = (rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)).tolist()
            if rng.random() < 0.3:
                xs[int(rng.integers(n))] = xs[0]  # a tie
            got = worst(xs)[0]
            assert got == min(xs) and math.copysign(1.0, got) == math.copysign(1.0, min(xs))
            pairs = [(x, str(i)) for i, x in enumerate(xs)]
            assert worst(pairs) == min(pairs, key=lambda t: t[0])


class TestDerivedVerdict:
    @pytest.mark.parametrize(
        "margin,passed",
        [(0.0, True), (-0.0, True), (1e-300, True), (math.inf, True), (-1e-300, False), (-math.inf, False), (NAN, False)],
    )
    def test_pass_exactly_when_margin_nonnegative(self, margin, passed):
        assert CheckOutcome("x", margin).passed is passed

    def test_verdict_cannot_be_set(self):
        o = CheckOutcome("x", -1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.passed = True
        with pytest.raises(TypeError):
            CheckOutcome("x", -1.0, passed=True)
        assert "passed" not in {f.name for f in dataclasses.fields(CheckOutcome)}

    def test_add_takes_name_margin_detail(self):
        rep = CheckReport()
        rep.add("a", 1, "where")
        rep.add("b", -2.5)
        assert [(o.name, o.margin, o.detail, o.passed) for o in rep.outcomes] == [
            ("a", 1.0, "where", True),
            ("b", -2.5, "", False),
        ]
        assert rep.lines() == ["[PASS] a: worst margin 1.000e+00 (where)", "[FAIL] b: worst margin -2.500e+00"]
