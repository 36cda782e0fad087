"""Manifold spec file parsing."""

from __future__ import annotations

import pytest

from circulant3 import eval_value, load_spec, parse_spec_text
from circulant3.errors import SpecFileError
from circulant3.specfile import builtin_example

GOOD = '''
# a demo manifold
name = "demo"

[metric]
A = "3 + x1^2 / 5"
B = "1 + sin(x2) / 4"

[domain]
c1 = "2 - x3"

[sample]
x1 = "-1, 1"
x2 = "-1, 1"
x3 = "-0.5, 0.5"
'''


def test_parse_good_text():
    spec = parse_spec_text(GOOD)
    assert spec.name == "demo"
    assert eval_value(spec.metric.A, (1.0, 0.0, 0.0)) == 3.2
    assert len(spec.metric.domain_constraints) == 1
    assert spec.sample_box == ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))


def test_missing_required_key():
    text = '[metric]\nA = "2*x1"\n'
    with pytest.raises(SpecFileError, match="missing required key 'B'"):
        parse_spec_text(text)


def test_missing_metric_section():
    with pytest.raises(SpecFileError, match=r"missing required section \[metric\]"):
        parse_spec_text('name = "x"\n')


def test_expression_error_carries_location():
    text = '[metric]\nA = "2**x1"\nB = "1"\n'
    with pytest.raises(SpecFileError) as err:
        parse_spec_text(text)
    assert err.value.line == 2
    assert "invalid expression" in str(err.value)


def test_unknown_section():
    with pytest.raises(SpecFileError, match=r"unknown section \[metrics\]"):
        parse_spec_text("[metrics]\n")


def test_unknown_key_in_metric():
    text = '[metric]\nA = "1.5"\nB = "1"\nC = "2"\n'
    with pytest.raises(SpecFileError, match="unknown key 'C'"):
        parse_spec_text(text)


def test_duplicate_key():
    text = '[metric]\nA = "2"\nA = "3"\nB = "1"\n'
    with pytest.raises(SpecFileError, match="duplicate key 'A'"):
        parse_spec_text(text)


def test_malformed_line():
    with pytest.raises(SpecFileError) as err:
        parse_spec_text("[metric]\nA = 2*x1\n")
    assert err.value.line == 2


def test_empty_interval():
    text = '[metric]\nA = "2"\nB = "1"\n[sample]\nx1 = "1, 1"\nx2 = "0, 1"\nx3 = "0, 1"\n'
    with pytest.raises(SpecFileError, match="empty interval"):
        parse_spec_text(text)


def test_missing_sample_axis():
    text = '[metric]\nA = "2"\nB = "1"\n[sample]\nx1 = "0, 1"\nx2 = "0, 1"\n'
    with pytest.raises(SpecFileError, match="missing key 'x3'"):
        parse_spec_text(text)


def test_inline_comments_allowed():
    text = '[metric]  # fields\nA = "2"  # diagonal\nB = "1"\n'
    spec = parse_spec_text(text, default_name="inline")
    assert spec.name == "inline"


def test_load_spec_roundtrip(tmp_path):
    path = tmp_path / "demo.toml"
    for encoding in ("utf-8", "utf-8-sig"):  # without and with a byte-order mark
        path.write_text(GOOD, encoding=encoding)
        spec = load_spec(path)
        assert spec.name == "demo"
        assert spec == parse_spec_text(GOOD)


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_spec(tmp_path / "absent.toml")


def test_load_spec_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.toml"
    for mark in (b"", b"\xef\xbb\xbf"):  # without and with a byte-order mark
        path.write_bytes(mark + b'name = "bad"\n[metric]\nA = "3\xff"\nB = "1"\n')
        with pytest.raises(SpecFileError) as err:
            load_spec(path)
        assert str(err.value) == f"spec file {str(path)!r} is not UTF-8 text: invalid start byte (line 3)"
        assert err.value.line == 3


def test_builtin_example_definition():
    spec = builtin_example()
    assert spec.name == "example-m5"
    p = (2.0, -1.0, -1.0)
    assert eval_value(spec.metric.A, p) == 4.0
    assert eval_value(spec.metric.B, p) == 2.0
    assert len(spec.metric.domain_constraints) == 2
    assert spec.sample_box == ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1))
    assert builtin_example() is spec  # parsed once, at import: the spec is frozen, so calls share it
