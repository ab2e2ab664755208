"""A loadable whose schedule lacks its input or output tensor is
refused with a typed error when that tensor is needed."""

from __future__ import annotations

import dataclasses

import pytest

from repro.compiler import compile_network
from repro.errors import LoadableError
from repro.nn.zoo import lenet5
from repro.nvdla import NV_SMALL


@pytest.fixture(scope="module")
def loadable():
    return compile_network(lenet5(), NV_SMALL)


def _without(loadable, field: str):
    schedule = dataclasses.replace(loadable.schedule, **{field: None})
    return dataclasses.replace(loadable, schedule=schedule)


def test_missing_input_tensor_is_a_loadable_error(loadable):
    broken = _without(loadable, "input_tensor")
    assert broken.output_tensor == loadable.output_tensor
    with pytest.raises(LoadableError, match="no input tensor"):
        broken.input_tensor
    with pytest.raises(LoadableError, match="no input tensor"):
        broken.to_bytes()


def test_missing_output_tensor_is_a_loadable_error(loadable):
    broken = _without(loadable, "output_tensor")
    assert broken.input_tensor == loadable.input_tensor
    with pytest.raises(LoadableError, match="no output tensor"):
        broken.output_tensor
    with pytest.raises(LoadableError, match="no output tensor"):
        broken.to_bytes()
