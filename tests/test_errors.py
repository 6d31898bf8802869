"""The package's exception types."""

import inspect
import pickle

import numpy as np
import pytest

from wgfe import errors

ERRORS = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass)
     if issubclass(cls, errors.WgfeError)),
    key=lambda cls: cls.__name__,
)

EXAMPLES = {
    errors.EmptyGroupError: lambda cls: cls([1, 3]),
    errors.NonConvergenceError: lambda cls: cls(
        "stalled", last_iterate=np.array([1.5, -2.0]), residual=3e-4
    ),
    errors.ParseError: lambda cls: cls("bad cell", line=4, column="y"),
    errors.DuplicateCellError: lambda cls: cls("repeated cell", line=7),
    errors.UnbalancedPanelError: lambda cls: cls("missing cells: (a, 1)"),
}

ATTRIBUTES = ("groups", "line", "column", "last_iterate", "residual")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # process pools hand exceptions back pickled, so a caller must get the same error
    exc = EXAMPLES.get(cls, lambda cls: cls("something failed"))(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for name in ATTRIBUTES:
        assert hasattr(back, name) == hasattr(exc, name), name
        if hasattr(exc, name):
            np.testing.assert_array_equal(getattr(back, name), getattr(exc, name))


def test_the_examples_are_package_errors():
    assert set(EXAMPLES) <= set(ERRORS)
