"""Manifold spec file parsing."""

from __future__ import annotations

import dataclasses

import pytest

from circulant3 import eval_value, load_spec, parse_spec_text, specfile
from circulant3.cli import main
from circulant3.errors import SpecFileError
from circulant3.specfile import builtin_example

BOM = b"\xef\xbb\xbf"

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
    lf = GOOD.encode()
    crlf = GOOD.replace("\n", "\r\n").encode()
    for data in (lf, BOM + lf, crlf, BOM + crlf, GOOD.replace("\n", "\r").encode()):
        path.write_bytes(data)
        spec = load_spec(path)
        assert spec.name == "demo"
        assert spec == parse_spec_text(GOOD)


def test_a_crlf_spec_file_reports_as_its_lf_twin(capsys, tmp_path):
    reports = []
    for name, text in (("lf", GOOD), ("crlf", GOOD.replace("\n", "\r\n"))):
        path = tmp_path / f"{name}.toml"
        path.write_bytes(text.encode())
        assert main(["riemann", "--spec", str(path), "--at=0.5,0.2,-0.1", "--json"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1] and reports[0].err == ""


def test_load_spec_missing_file(tmp_path):
    for path in (tmp_path / "absent.toml", tmp_path):  # no file, and a directory
        with pytest.raises(OSError):
            load_spec(path)


SYNTAX_ERROR = b'[metric]\nA = "3 + * x1"\nB = "1"\n'
NOT_UTF8 = b'name = "bad"\n[metric]\nA = "3\xff"\nB = "1"\n'

# How main reports a spec file it cannot load: (file bytes, None for no file or "dir" for a
# directory; the message after "error (riemann): ", with {path} for the path). Each is the
# outcome of a text-mode read (Path.read_text), which load_spec's byte read keeps
LOAD_OUTCOMES = {
    "absent": (None, "[Errno 2] No such file or directory: {path}"),
    "directory": ("dir", "[Errno 21] Is a directory: {path}"),
    "not-utf8": (NOT_UTF8, "spec file {path} is not UTF-8 text: invalid start byte (line 3)"),
    "not-utf8-bom": (BOM + NOT_UTF8, "spec file {path} is not UTF-8 text: invalid start byte (line 3)"),
    "not-utf8-crlf": (b'[metric]\r\nA = "3"\r\nB = "1\xfe"\r\n',
                      "spec file {path} is not UTF-8 text: invalid start byte (line 3)"),
    "truncated-utf8": (b'[metric]\nA = "3"\nB = "1"\xc3',
                       "spec file {path} is not UTF-8 text: unexpected end of data (line 3)"),
    "two-boms": (BOM + BOM + b'[metric]\nA = "3"\nB = "1"\n',
                 'expected `key = "value"`, a [section] header or a comment (line 1, column 1)'),
    **{
        f"syntax-error-{name}": (data, "invalid expression: unexpected '*' at offset 4 "
                                       "(expected number | x1 | x2 | x3 | function | '(' | '-') (line 2, column 10)")
        for name, data in (("lf", SYNTAX_ERROR), ("crlf", SYNTAX_ERROR.replace(b"\n", b"\r\n")),
                           ("bom-crlf", BOM + SYNTAX_ERROR.replace(b"\n", b"\r\n")))
    },
}


@pytest.mark.parametrize("case", LOAD_OUTCOMES)
def test_a_spec_file_that_does_not_load_exits_2(capsys, tmp_path, case):
    data, message = LOAD_OUTCOMES[case]
    path = tmp_path if data == "dir" else tmp_path / "spec.toml"
    if isinstance(data, bytes):
        path.write_bytes(data)
    for _ in range(2):  # a text that fails is not kept: it fails alike again
        assert main(["riemann", "--spec", str(path), "--at", "0,0,0"]) == 2
        assert capsys.readouterr() == ("", f"error (riemann): {message.format(path=repr(str(path)))}\n")


def test_load_spec_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.toml"
    for mark in (b"", b"\xef\xbb\xbf"):  # without and with a byte-order mark
        path.write_bytes(mark + b'name = "bad"\n[metric]\nA = "3\xff"\nB = "1"\n')
        with pytest.raises(SpecFileError) as err:
            load_spec(path)
        assert str(err.value) == f"spec file {str(path)!r} is not UTF-8 text: invalid start byte (line 3)"
        assert err.value.line == 3


@pytest.fixture()
def parses(monkeypatch):
    """The sources specfile.parse is called on, from an empty memo of parsed spec texts."""
    parse_spec_text.cache_clear()
    sources = []

    def counting(source, parse=specfile.parse):
        sources.append(source)
        return parse(source)

    monkeypatch.setattr(specfile, "parse", counting)
    return sources


def test_each_spec_text_is_parsed_once_per_process(capsys, tmp_path, parses):
    path = tmp_path / "demo.toml"
    path.write_text('[metric]\nA = "3 + x1^2/5"\nB = "1"\n', encoding="utf-8")
    for _ in range(3):
        assert main(["riemann", "--spec", str(path), "--at", "0.5,0,0", "--json"]) == 0
    assert parses == ["3 + x1^2/5", "1"]
    capsys.readouterr()


def test_a_rewritten_spec_file_takes_effect_on_the_next_call(capsys, tmp_path, parses):
    path = tmp_path / "demo.toml"
    outputs = []
    for A in ("3 + x1^2/5", "4 + x1^2/5", "3 + x1^2/5"):
        path.write_text(f'[metric]\nA = "{A}"\nB = "1"\n', encoding="utf-8")
        assert main(["validate", "--spec", str(path), "--at", "0.5,0,0", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert parses == ["3 + x1^2/5", "1", "4 + x1^2/5", "1"]  # the third text was seen first
    assert outputs[0] == outputs[2] != outputs[1]
    assert '"A": 3.05,' in outputs[0] and '"A": 4.05,' in outputs[1]


def test_a_spec_text_that_does_not_parse_fails_alike_on_every_call(tmp_path, parses):
    path = tmp_path / "bad.toml"
    path.write_text('[metric]\nA = "3 +"\nB = "1"\n', encoding="utf-8")
    messages = set()
    for _ in range(3):
        with pytest.raises(SpecFileError) as err:
            load_spec(path)
        messages.add(str(err.value))
    assert messages == {"invalid expression: unexpected end of input at offset 3 "
                        "(expected number | x1 | x2 | x3 | function | '(' | '-') (line 2, column 9)"}
    assert parses == ["3 +"] * 3  # a failure is not kept


def test_one_spec_text_under_two_file_names_keeps_each_name(tmp_path, parses):
    text = '[metric]\nA = "3"\nB = "1"\n'
    first, second = tmp_path / "first.toml", tmp_path / "second.toml"
    for path in (first, second):
        path.write_text(text, encoding="utf-8")
    assert [load_spec(p).name for p in (first, second, first, second)] == ["first", "second"] * 2
    assert load_spec(first).metric == load_spec(second).metric
    assert parses == ["3", "1"] * 2  # once per (text, name)


def test_two_loads_of_one_text_share_one_frozen_spec(tmp_path, parses):
    path = tmp_path / "demo.toml"
    path.write_text(GOOD, encoding="utf-8")
    spec = load_spec(path)
    assert load_spec(path) is spec
    assert parse_spec_text(GOOD, default_name="demo") is spec  # the memo is parse_spec_text's
    for obj, attr in ((spec, "name"), (spec.metric, "A"), (spec.metric.A, "program")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, None)
    assert isinstance(spec.metric.A.program, tuple) and isinstance(spec.metric.domain_constraints, tuple)


def test_builtin_example_definition():
    spec = builtin_example()
    assert spec.name == "example-m5"
    p = (2.0, -1.0, -1.0)
    assert eval_value(spec.metric.A, p) == 4.0
    assert eval_value(spec.metric.B, p) == 2.0
    assert len(spec.metric.domain_constraints) == 2
    assert spec.sample_box == ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1))
    assert builtin_example() is spec  # parsed once, at import: the spec is frozen, so calls share it
