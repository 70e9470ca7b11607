from __future__ import annotations

from pathlib import Path

import pytest

from eqhom.parser import parse_presentation, parse_srs

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def ab_trs():
    return parse_presentation((DATA / "abelian_unit.lwv").read_text())


@pytest.fixture(scope="session")
def group_trs():
    return parse_presentation((DATA / "group.lwv").read_text())


@pytest.fixture(scope="session")
def unreduced_trs():
    return parse_presentation((DATA / "unreduced.lwv").read_text())


@pytest.fixture(scope="session")
def z2_srs():
    return parse_srs((DATA / "z2.srs").read_text())


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def s3_srs():
    return parse_srs((DATA / "s3.srs").read_text())
