"""The start of a command: what ``import lepage.cli`` and ``parse_config`` import, and the JSON reader
that lets a JSON config skip ``yaml``, checked against ``yaml.safe_load`` on drawn documents."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from lepage import cli
from lepage.cli import ConfigParseError, parse_config

ROOT = Path(__file__).resolve().parents[1]

# -- what each command imports, in a fresh interpreter ---------------------------------------------

CHILD = """
import json, sys
import lepage.cli as cli
cfg = cli.parse_config(sys.argv[1])
parsed = set(sys.modules)
ran = None
if sys.argv[2]:
    cfg.out_dir = sys.argv[2]
    cli.run(cfg)
    ran = sorted(set(sys.modules) - parsed)
print(json.dumps({"parsed": sorted(parsed), "ran": ran}))
"""


def child_imports(text: str, out_dir: Path | None = None) -> dict:
    """The modules loaded once ``text`` is parsed, and those that ``run`` loaded on top (if ``out_dir``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, text, str(out_dir or "")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


SIMULATE = {"command": "simulate", "alpha": 1.5, "truncation_n": 200, "epsilon": "rademacher",
            "y": "example1", "seed": 7}
SMALL = {
    "simulate": SIMULATE,
    "stability": {"command": "stability", "alpha": 1.5, "truncation_n": 100, "epsilon": "rademacher",
                  "y": "example1", "samples": 300},
    "regvar": {"command": "regvar", "alpha": 1.5, "truncation_n": 100, "epsilon": "rademacher",
               "y": "example1", "samples": 300, "sigma_replicates": 1000, "n": 10},
    "tightness": {"command": "tightness", "alpha": 1.5, "n": 20, "epsilon": "rademacher",
                  "y": {"variant": "example3", "lambda": 1.0}, "replicates": 200,
                  "triples": [[0.0, 0.25, 0.5]]},
}


def test_json_simulate_config_imports_no_yaml_argparse_or_checks():
    parsed = set(child_imports(json.dumps(SIMULATE))["parsed"])
    assert not parsed & {"yaml", "argparse", "lepage.diagnostics", "lepage.stable_checks"}
    # eager on purpose: imported in the run instead, it would count in a chunked command's run time
    assert "concurrent.futures" in parsed


def test_yaml_config_imports_yaml():
    (block,) = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert "yaml" in child_imports(block)["parsed"]


@pytest.mark.parametrize("command", sorted(SMALL))
def test_parse_config_imports_every_module_the_run_uses(command, tmp_path):
    got = child_imports(json.dumps(SMALL[command]), tmp_path)
    assert [m for m in got["ran"] if m.split(".")[0] == "lepage"] == []
    deferred = {"lepage.diagnostics", "lepage.stable_checks"}
    uses = cli._COMMANDS[command][2]
    assert deferred & set(got["parsed"]) == ({uses.name} if uses is not None else set())


# -- the JSON reader against yaml.safe_load --------------------------------------------------------


class Token(str):
    """A number or constant, written into the document as it is."""


class Pairs(list):
    """The members of a JSON object, in order; a key may repeat."""


PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\')


def json_floats(inside: bool):
    """JSON float tokens; ``inside`` keeps to the spelling YAML 1.1 reads as a float too:
    digits, a point and digits, then no exponent or a signed one (``1e5`` and ``1.0e5`` are its strings)."""
    digits = st.text("0123456789", min_size=1, max_size=4)
    return st.builds(
        lambda sign, whole, frac, exp, exp_digits: Token(sign + str(whole) + frac + (exp + exp_digits if exp else "")),
        st.sampled_from(["", "-"]), st.integers(0, 10**6),
        digits.map(lambda d: "." + d) if inside else st.one_of(st.just(""), digits.map(lambda d: "." + d)),
        st.sampled_from(["", "e+", "e-", "E+", "E-"] + ([] if inside else ["e", "E"])), digits)


def json_strings(inside: bool):
    """JSON strings; outside the gate, some with a backslash escape or a character that is not printable ASCII."""
    plain = st.text(PRINTABLE, max_size=8)
    if inside:
        return plain
    odd = st.text(st.sampled_from(["\x7f", "\x85", "\xe9", " ", "\t", "a", "/"]), min_size=1, max_size=3)
    return st.one_of(plain, odd.map(lambda s: Token(json.dumps(s, ensure_ascii=False))),
                     odd.map(lambda s: Token(json.dumps(s))))


def json_keys(inside: bool):
    """Object keys; YAML reads a key only when its colon comes at most 1024 characters after its quote."""
    lengths = (1000,) if inside else (1020, 1021, 1023)
    return st.one_of(json_strings(inside), st.sampled_from(["k" * n for n in lengths]))


def json_values(inside: bool):
    leaves = st.one_of(
        st.integers(-10**20, 10**20), json_floats(inside), json_strings(inside), st.booleans(), st.none(),
        *([] if inside else [st.sampled_from([Token("NaN"), Token("Infinity"), Token("-Infinity")])]))
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.tuples(json_keys(inside), children), max_size=4).map(Pairs)), max_leaves=12)


# whitespace between tokens; inside the gate there is no tab, and only spaces come between a key and its colon
GAPS_INSIDE = ["", " ", "   ", "\n", "\n  ", "\r\n", "\r"]
SPACES = GAPS_INSIDE[:3]
GAPS_OUTSIDE = GAPS_INSIDE + ["\t"]


def lay_out(draw, value, inside: bool) -> str:
    """``value`` as JSON text, with whitespace drawn between every two tokens."""
    def gap(before_colon=False):
        return draw(st.sampled_from(SPACES if inside and before_colon else GAPS_INSIDE if inside else GAPS_OUTSIDE))

    if isinstance(value, Pairs):
        items = [lay_out(draw, k, inside) + gap(True) + ":" + gap() + lay_out(draw, v, inside) for k, v in value]
        brackets = "{}"
    elif isinstance(value, list):
        items, brackets = [lay_out(draw, v, inside) for v in value], "[]"
    elif isinstance(value, Token):
        return value
    elif isinstance(value, str):
        return '"' + value + '"'
    else:
        return json.dumps(value)
    body = "".join((gap() + "," if i else "") + gap() + item for i, item in enumerate(items))
    return brackets[0] + body + gap() + brackets[1]


@st.composite
def json_documents(draw, inside: bool = False):
    """JSON texts, mostly mappings as configs are; ``inside`` keeps to texts the gate must let json read."""
    value = draw(st.one_of(json_values(inside), st.lists(st.tuples(json_keys(inside), json_values(inside)),
                                                           max_size=5).map(Pairs)))
    return draw(st.sampled_from(["", "\n"])) + lay_out(draw, value, inside) + draw(st.sampled_from(["", " ", "\n"]))


def outcome(read, text: str):
    """What ``read(text)`` gives: the ``repr`` of its value, which tells 1 from 1.0 from True and -0.0 from 0.0
    and keeps the order of keys, or the text of the ConfigParseError."""
    try:
        return repr(read(text))
    except ConfigParseError as exc:
        return f"ConfigParseError: {exc}"


def yaml_read(text: str):
    """``yaml.safe_load``, with its error as parse_config words it."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"config is not valid YAML/JSON: {exc}") from exc


@given(json_documents())
@settings(max_examples=400, deadline=None)
def test_reader_gives_what_yaml_gives(text):
    assert outcome(cli._read, text) == outcome(yaml_read, text)


@given(json_documents(inside=True))
@settings(max_examples=200, deadline=None)
def test_reader_reads_json_inside_the_gate_without_yaml(text):
    want = outcome(yaml_read, text)
    with mock.patch.object(yaml, "safe_load", side_effect=AssertionError("yaml read a document inside the gate")):
        assert outcome(cli._read, text) == want


@pytest.mark.parametrize("text,want", [
    ('{"a": 1e5, "b": 1.0e5, "c": 1.5e+5}', {"a": "1e5", "b": "1.0e5", "c": 150000.0}),
    ('{"a": NaN, "b": -Infinity}', {"a": "NaN", "b": "-Infinity"}),
    ('{"a": "\\u0041\\t"}', {"a": "A\t"}),
    ('{"a": "x\x85y"}', {"a": "x y"}),
    ('{"a": -0.0, "b": -0, "c": 2.50E-1}', {"a": -0.0, "b": 0, "c": 0.25}),
])
def test_json_that_yaml_reads_otherwise_keeps_its_yaml_values(text, want):
    assert repr(cli._read(text)) == repr(want)


@pytest.mark.parametrize("text", ['{"a": "x\x7fy"}', '{"a"\n: 1}', '{"%s": 1}' % ("k" * 1023)])
def test_json_that_yaml_refuses_keeps_its_yaml_error(text):
    with pytest.raises(ConfigParseError, match="^config is not valid YAML/JSON: ") as err:
        parse_config(text)
    assert str(err.value) == outcome(yaml_read, text).removeprefix("ConfigParseError: ")


# -- parse_config on drawn simulate configs --------------------------------------------------------


@st.composite
def simulate_configs(draw):
    """A simulate config as JSON, each number in a drawn spelling, some in spellings YAML reads as strings."""
    number = st.one_of(json_floats(False), st.integers(0, 3))
    members = [("command", "simulate"), ("alpha", draw(number)),
               ("epsilon", draw(st.sampled_from(["rademacher", Pairs([("family", "uniform_symmetric")])]))),
               ("y", Pairs([("variant", "example3"), ("lambda", draw(number))])),
               ("seed", draw(st.integers(0, 2**64 - 1))), ("truncation_n", draw(st.one_of(number, st.none()))),
               ("per_term_norms", draw(st.booleans())),
               ("output", Pairs([("directory", draw(json_strings(False))), ("formats", ["csv"])]))]
    members = draw(st.permutations(members))[:draw(st.integers(1, len(members)))]
    return lay_out(draw, Pairs(members), inside=False)


def config_outcome(text: str) -> str:
    try:
        return repr(parse_config(text).raw)
    except ConfigParseError as exc:
        return f"ConfigParseError: {exc}"


@given(simulate_configs())
@settings(max_examples=200, deadline=None)
def test_parse_config_reads_the_same_raw_whichever_reader_runs(text):
    got = config_outcome(text)
    with mock.patch.object(cli, "_simple_keys", return_value=False):  # every document to YAML, as before
        assert got == config_outcome(text)
