"""Run the usage examples embedded in the library docstrings."""

import doctest

from polydegen import derivation, endo, family, multipoly, parsing


def test_docstring_examples():
    for module in (multipoly, parsing, endo, derivation, family):
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"{module.__name__}: {result.failed} failed"
        assert result.attempted > 0, f"{module.__name__}: no examples collected"
