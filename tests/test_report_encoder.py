"""cli._report_text against the json module it stands in for.

main writes report.v2 through _report_text, which must give the bytes of
json.dumps(report, sort_keys=True, indent=2): on the report of every
subcommand for every gallery name, and on seeded nested values with the
corners of the JSON grammar (empty containers, bools, None, negative and
big ints, floats, escaped and non-ASCII strings).
"""

import json
import random

import pytest

from discarr.cli import _report, _report_text, build_parser
from discarr.gallery import gallery_names

NAMES = [n for n in gallery_names() if n != "polygon-<n>"]
POLYGONS = [f"polygon-{n}" for n in range(6, 13)]

# classify takes six elements only, so polygon-6 is its one polygon
ARGVS = ([["detect", f"gallery:{g}"] for g in NAMES + POLYGONS]
         + [["classify", f"gallery:{g}"] for g in NAMES + ["polygon-6"]]
         + [["lattice", f"gallery:{g}"] for g in NAMES + ["polygon-6"]]
         + [["lattice", "gallery:polygon-7", "--max-rank", "2"]]
         + [["table", t] for t in ("mformula", "classification", "dependencies")]
         + [["gallery"]])


def _json_text(value):
    return json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_every_report_encodes_as_json_does(argv):
    args = build_parser().parse_args(argv + ["--json"])
    source, a, results, consistency, _ = args.func(args)
    report = _report(args.command, source, a, results, consistency)
    assert _report_text(report) == _json_text(report)


SCALARS = (None, True, False, 0, 1, -1, 7, -12, 2 ** 64, -(3 ** 90), 10 ** 300,
           0.5, -2.25, 1e300, "", "plain", 'quo"te', "back\\slash", "tab\t\n\r\b\f",
           "\x00\x1f\x7f", "\u00e9 \u00fc", "\u2603 \u00a0 \ufeff", "\U0001f600")
KEYS = ("", "a", "b", "schema", "B", "\u00e9", "\u2603", "\n", "1", "10", "2", " ", "\U0001f600")


def _value(rng, depth):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return rng.choice(SCALARS + ([], {}, ()))
    if roll < 0.45:
        # an int-only list, which the encoder joins in one go
        return [rng.choice((0, -1, 5, 2 ** 70, -(10 ** 25)))
                for _ in range(rng.randint(1, 6))]
    if roll < 0.55:
        # ints with a bool among them are not an int-only list
        return [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice((True, False))]
    if roll < 0.75:
        items = [_value(rng, depth + 1) for _ in range(rng.randint(1, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    return {rng.choice(KEYS): _value(rng, depth + 1) for _ in range(rng.randint(1, 5))}


@pytest.mark.parametrize("seed", range(20))
def test_seeded_values_encode_as_json_does(seed):
    rng = random.Random(seed)
    for _ in range(50):
        value = _value(rng, 0)
        assert _report_text(value) == _json_text(value)


@pytest.mark.parametrize("value", SCALARS + ([], {}, (), [[]], {"a": {}}, [True, 1], [1, 2]),
                         ids=repr)
def test_scalars_and_empty_containers(value):
    assert _report_text(value) == _json_text(value)


def test_non_str_key_is_refused():
    with pytest.raises(TypeError):
        _report_text({1: "one"})
