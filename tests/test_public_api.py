"""Tests for the package's public name list and its record types."""

import pytest

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


# Every record type of the library: a factory for a value, its repr, and a
# value of another kind whose fields are equal, or None to compare by identity.
_RECORDS = {
    "ValidationResult": (
        lambda: causalflow.ValidationResult(("F0",)),
        "ValidationResult(violations=('F0',))",
        None,
    ),
    "OpenGraphState": (
        lambda: causalflow.OpenGraphState([1, 2], [(2, 1)], [1], [2]),
        "OpenGraphState(vertices=(1, 2), edges=((1, 2),), inputs=(1,), outputs=(2,))",
        None,
    ),
    "Flow": (
        lambda: causalflow.Flow({1: 2}, {1: 0, 2: 1}),
        "Flow(f=mappingproxy({1: 2}), levels=mappingproxy({1: 0, 2: 1}))",
        None,
    ),
    "FlowSearchResult": (
        lambda: causalflow.FlowSearchResult(causalflow.Flow({}, {1: 0})),
        "FlowSearchResult(flow=Flow(f=mappingproxy({}), levels=mappingproxy({1: 0})))",
        None,
    ),
    "Prepare": (
        lambda: causalflow.Prepare(1, 0.5),
        "Prepare(qubit=1, angle=0.5)",
        lambda: causalflow.Measure(1, 0.5),
    ),
    "Measure": (
        lambda: causalflow.Measure(1),
        "Measure(qubit=1, angle=0.0)",
        lambda: causalflow.Prepare(1),
    ),
    "Entangle": (
        lambda: causalflow.Entangle(2, 1),
        "Entangle(a=1, b=2)",
        lambda: causalflow.CZGate(1, 2),
    ),
    "CorrectX": (
        lambda: causalflow.CorrectX(2, {1}),
        "CorrectX(qubit=2, signals=frozenset({1}))",
        lambda: causalflow.CorrectZ(2, {1}),
    ),
    "CorrectZ": (
        lambda: causalflow.CorrectZ(2, [1]),
        "CorrectZ(qubit=2, signals=frozenset({1}))",
        lambda: causalflow.CorrectX(2, [1]),
    ),
    "CorrectXPhase": (
        lambda: causalflow.CorrectXPhase(2, 0.5, {1}),
        "CorrectXPhase(qubit=2, angle=0.5, signals=frozenset({1}))",
        None,
    ),
    "Pattern": (
        lambda: causalflow.Pattern([2, 1], [1], [2], [causalflow.Entangle(1, 2)]),
        "Pattern(vertices=(1, 2), inputs=(1,), outputs=(2,), commands=(Entangle(a=1, b=2),))",
        None,
    ),
    "StarPattern": (
        lambda: causalflow.StarPattern(1, (2, 3), 0.5, 2),
        "StarPattern(input=1, outputs=(2, 3), angle=0.5, corrected=2)",
        None,
    ),
    "Wire": (lambda: causalflow.Wire(0, "plus"), "Wire(id=0, source='plus')", None),
    "CZGate": (
        lambda: causalflow.CZGate(1, 2),
        "CZGate(a=1, b=2)",
        lambda: causalflow.PhaseGate(1, 2),
    ),
    "PhaseGate": (
        lambda: causalflow.PhaseGate(0, 0.5),
        "PhaseGate(wire=0, theta=0.5)",
        lambda: causalflow.Prepare(0, 0.5),
    ),
    "HadamardGate": (lambda: causalflow.HadamardGate(0), "HadamardGate(wire=0)", None),
    "Circuit": (
        lambda: causalflow.Circuit(
            (causalflow.Wire(0, "input"),), (causalflow.HadamardGate(0),), (0,)
        ),
        "Circuit(wires=(Wire(id=0, source='input'),), gates=(HadamardGate(wire=0),), outputs=(0,))",
        None,
    ),
    "IdentityCheck": (
        lambda: causalflow.rewrite_rules.IdentityCheck("x-fixes-plus", 0.0, 1.5, True),
        "IdentityCheck(name='x-fixes-plus', max_deviation=0.0, worst_angle=1.5, passed=True)",
        None,
    ),
    "IdentityReport": (
        lambda: causalflow.IdentityReport((), 1e-12),
        "IdentityReport(checks=(), tolerance=1e-12)",
        None,
    ),
}
# The record types that compare by identity, with their repr.
_BY_IDENTITY = {
    "Witness": (
        lambda: causalflow.Witness("00", "01", (1.0, 0.0), 0.5),
        "Witness(branch_a='00', branch_b='01', input_state=(1.0, 0.0), deviation=0.5)",
    ),
    "DeterminismVerdict": (
        lambda: causalflow.DeterminismVerdict(causalflow.Classification.DETERMINISTIC, True),
        "DeterminismVerdict(classification=<Classification.DETERMINISTIC: 'deterministic'>,"
        " uniform=True, witness=None, angle_samples=0, seed=0, tolerance=1e-09)",
    ),
    "BranchReport": (
        lambda: causalflow.BranchReport("0", (1.0,)),
        "BranchReport(outcomes='0', branch_map=(1.0,), probability=None)",
    ),
}


def _assert_frozen(value) -> None:
    name = next(iter(type(value).__annotations__))
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_frozen_values(name):
    """Records compare and hash by their class and fields, cannot be
    changed, and print as ``Name(field=value, ...)``."""
    make, text, other_kind = _RECORDS[name]
    value = make()
    assert type(value).__name__ == name
    _assert_frozen(value)
    twin = make()
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert repr(value) == text
    if other_kind is not None:
        other = other_kind()
        assert type(other) is not type(value)
        assert other != value and value != other


@pytest.mark.parametrize("name", sorted(_BY_IDENTITY))
def test_identity_records_compare_by_identity(name):
    make, text = _BY_IDENTITY[name]
    value = make()
    assert type(value).__name__ == name
    _assert_frozen(value)
    twin = make()
    assert value == value and twin != value
    assert {value, twin} == {value, twin} and len({value, twin}) == 2
    assert repr(value) == text


def test_branch_report_keeps_slots():
    assert not hasattr(causalflow.BranchReport("0", (1.0,)), "__dict__")
