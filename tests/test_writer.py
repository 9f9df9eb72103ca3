"""The CLI's one JSON writer against json.dumps of the rounded object.

cli._json must write exactly what json.dumps(old_round12(obj),
sort_keys=True) wrote: sorted keys, ", " and ": " separators, ASCII string
escapes, and each float as json spells float(f"{v:.12g}").
"""

import json
import math
import random

import numpy as np
import pytest

from huckel import cli
from huckel.graphs import Graph, write_graph6
from test_analyze import _long_form, old_analyze_record, old_round12


def oracle(obj) -> str:
    return json.dumps(old_round12(obj), sort_keys=True)


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 2.0, 17.0, -3.0, 1e4, 123456.0, 1e11, 99999999999.0, 99999999999.99998,
    1e-4, 9.99e-5, 1e-5, 1.5e-7, 3e-32, -7.39308177957e-33, -2.5e-300, 1e-299,
    1e-307, 2.5e-308, 2.2250738585072014e-308, 1.5e-310, 5e-324,
    9.9999999999996, 0.99999999999996, -9.9999999999996, 999999999999.6,
    1e12, 1.5e12, 123456789012.34, 1234567890123.4, 9.99999999999e14, 1e15, -4.2e15, 9.99999999999e15,
    9999999999999998.0, 1e16, 1.5e16, 1e17, 1.2345e20, 1e100, -1e300, 1.7976931348623157e308,
    math.pi, -math.e, 1 / 3, 2 / 3, 0.1, 0.5, 2.5, 1.000000000005, 1.0000000000049,
    math.inf, -math.inf, math.nan,
]


def random_floats(rng: random.Random, count: int) -> list:
    """Floats of every magnitude, rounded mantissas among them, and integral values."""
    out = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20))
        elif kind == 1:  # 12 significant digits already, so %.12g keeps them
            out.append(float(f"{rng.uniform(1, 10):.11f}e{rng.randint(-8, 17)}"))
        elif kind == 2:
            out.append(float(rng.randint(-10 ** rng.randint(0, 16), 10 ** rng.randint(0, 16))))
        elif kind == 3:  # just below a power of ten: rounding carries into a new digit
            out.append(10.0 ** rng.randint(-6, 17) * (1 - rng.uniform(0, 1e-12)))
        else:  # any exponent, subnormals among them
            out.append(math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1023)))
    return out


@pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
def test_each_edge_float_is_spelled_as_json_spells_it(value):
    assert cli._json(value) == oracle(value)
    assert cli._json([value]) == oracle([value])
    assert cli._json([1.5, value, -7.0]) == oracle([1.5, value, -7.0])


def test_float_lists_of_every_magnitude():
    rng = random.Random(0xF10A7)
    values = random_floats(rng, 4000)
    assert cli._json(values) == oracle(values)
    for k in range(0, len(values), 37):  # short lists and scalars, so each path is met
        assert cli._json(values[k:k + 3]) == oracle(values[k:k + 3])
        assert cli._json(values[k]) == oracle(values[k])
    assert cli._json([np.float64(v) for v in values[:50]]) == oracle(values[:50])


def test_scalars_strings_and_nesting():
    obj = {
        "z": None, "a": True, "b": False, "n": 0, "big": 10 ** 30, "neg": -7,
        "graph6": "A\\B~?", "quote": 'say "hi"\n\t', "non_ascii": "Hückel — \U0001F600", "ctl": "\x00\x1f\x7f",
        "empty_list": [], "empty_dict": {}, "tuple": (1.0, 2, "x"), "mixed": [1, 1.0, True, None, "s", [2.0, [3.0]]],
        "nested": {"b": {"y": [0.1, -0.0], "x": 1e13}, "a": [{"k": 1e-7}, {}]},
        "ints": [1, 2, 3], "bools": [True, False], "floats_and_ints": [0.5, 1],
        "%s": "%d %%", "": "",
    }
    assert cli._json(obj) == oracle(obj)
    for value in obj.values():
        assert cli._json(value) == oracle(value)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), np.zeros(2), {1, 2}, object(), {"k": np.int32(3)},
                                   {1: 2.0}],
                         ids=["int64", "bool_", "ndarray", "set", "object", "nested_int32", "int_key"])
def test_what_the_writer_refuses(value):
    with pytest.raises(TypeError):
        cli._json(value)
    if not (isinstance(value, dict) and 1 in value):  # json writes an int key as a string; the writer takes str keys
        with pytest.raises(TypeError):
            oracle(value)


def test_analyze_lines_equal_the_old_dict_through_json(capsys, tmp_path):
    # Seeded records at n in {0, 1, 2, 20, 40, 60}, one of order 70 (long
    # form) and a short order in long form, each line against json.dumps of
    # the dict the library calls build.
    rng = random.Random(0xA2A2)
    graphs = []
    for n in (0, 1, 2, 20, 40, 60, 70):
        for density in (0.0, 0.1, 0.5, 1.0, rng.random()) if n < 70 else (0.3,):
            graphs.append(Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < density]))
    records = [write_graph6(g) for g in graphs]
    assert records[-1].startswith("~")
    records.append(_long_form(records[-2]))
    path = tmp_path / "records.g6"
    path.write_text("".join(r + "\n" for r in records))
    assert cli.main(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(records)
    for line, g in zip(lines, graphs + graphs[-2:-1]):
        assert line == oracle(old_analyze_record(g, cli.TIGHT_TOL))
