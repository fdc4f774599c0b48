import math

import pytest

from vqmc import _json

NESTED = {
    "empty_list": [],
    "empty_dict": {},
    "floats": [math.inf, -math.inf, 0.1, 1 / 3, 2.0],
    "nested": {"list": [1, [True, None], {"k": "v"}], "x": -0.0},
}


def test_compact_bytes():
    assert _json.dumps(NESTED) == (
        '{"empty_list":[],"empty_dict":{},'
        '"floats":["inf","-inf",0.10000000000000001,0.33333333333333331,2.0],'
        '"nested":{"list":[1,[true,null],{"k":"v"}],"x":-0.0}}'
    )


def test_indented_bytes():
    assert _json.dumps(NESTED, indent=1) == "\n".join([
        "{",
        ' "empty_list": [],',
        ' "empty_dict": {},',
        ' "floats": [',
        '  "inf",',
        '  "-inf",',
        "  0.10000000000000001,",
        "  0.33333333333333331,",
        "  2.0",
        " ],",
        ' "nested": {',
        '  "list": [',
        "   1,",
        "   [",
        "    true,",
        "    null",
        "   ],",
        "   {",
        '    "k": "v"',
        "   }",
        "  ],",
        '  "x": -0.0',
        " }",
        "}",
    ])


def test_nan_is_rejected():
    with pytest.raises(ValueError, match="NaN is not representable in report JSON"):
        _json.dumps({"x": [math.nan]})


def test_unsupported_type_is_rejected():
    with pytest.raises(TypeError, match="cannot serialize set to JSON"):
        _json.dumps({"x": {1, 2}})
