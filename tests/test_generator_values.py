"""Numeric generator stand-ins belong to the document, not to the angles.

A `[generators]` value only feeds the floating-point oracles.  Two files
that differ in nothing but such a value declare the same exact angles,
and a file's value is what its oracles use.
"""

import json

from rotshift.cli import main
from rotshift.fileformat import parse_system

SYSTEM = """\
[generators]
{generator}

[alphabet]
a = 1*g
b

[vertices]
v

[edges]
v -> v : a
v -> v : b
"""


def document(generator: str):
    return parse_system(SYSTEM.format(generator=generator))


def test_stand_in_does_not_enter_equality():
    with_value, plain = document("g = 0.5"), document("g")
    assert with_value.angles["a"] == plain.angles["a"]
    assert hash(with_value.angles["a"]) == hash(plain.angles["a"])
    assert with_value.context == plain.context


def test_addition_commutes_across_stand_ins():
    a, b = document("g = 0.5").angles["a"], document("g").angles["a"]
    assert a + b == b + a
    assert (a - b).is_zero()


def test_file_stand_in_feeds_the_oracles(tmp_path, capsys):
    assert document("g = 0.25").float_angles({})["a"] == 0.25
    assert document("g = 0.25").float_angles({"g": 0.3})["a"] == 0.3
    with_value = tmp_path / "with_value.sds"
    with_value.write_text(SYSTEM.format(generator="g = 0.25"), encoding="utf-8")
    plain = tmp_path / "plain.sds"
    plain.write_text(SYSTEM.format(generator="g"), encoding="utf-8")

    def orbit(path, *extra):
        assert main(["oracle", "orbit", str(path), "--steps", "2000", "--json", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    from_file = orbit(with_value)
    assert from_file == orbit(plain, "--gen", "g=0.25")
    assert from_file != orbit(plain)
    # rotations by 0 and 1/4 keep the orbit of 0 on the grid of quarters
    assert from_file["dense"] is False
    assert from_file["points_per_fiber"] == {"v": 4}
    assert orbit(with_value, "--gen", "g=0.3") == orbit(plain, "--gen", "g=0.3")
