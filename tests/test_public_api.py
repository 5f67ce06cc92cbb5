"""Tests for the package's public name list."""

import causalflow


def test_all_names_are_unique_and_resolve():
    names = causalflow.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(causalflow, name) is not None, name


def test_star_import():
    namespace: dict = {}
    exec("from causalflow import *", namespace)
    assert set(causalflow.__all__) <= namespace.keys()


def test_names_are_the_defining_modules_own():
    import causalflow.pattern
    import causalflow.simulator
    import causalflow.verdict

    assert causalflow.PatternError is causalflow.pattern.PatternError
    assert causalflow.classify_determinism is causalflow.verdict.classify_determinism
    assert causalflow.run_branch is causalflow.simulator.run_branch
    assert set(causalflow.__all__) <= set(dir(causalflow))
