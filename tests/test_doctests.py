"""The worked examples in the core module docstrings stay true."""

import doctest

import nccwk.fgab.groups
import nccwk.fgab.intmat
import nccwk.nccw


def test_intmat_doctests():
    failures, _ = doctest.testmod(nccwk.fgab.intmat)
    assert failures == 0


def test_groups_doctests():
    failures, _ = doctest.testmod(nccwk.fgab.groups)
    assert failures == 0


def test_nccw_doctests():
    failures, _ = doctest.testmod(nccwk.nccw)
    assert failures == 0
