"""Command-line interface: exit codes, output shapes, determinism."""

import inspect
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wall_clock_limit
import rotshift
from rotshift import cli, ktheory
from rotshift.angles import MAX_ANGLE_BITS, MAX_GENERATORS, ExactAngle
from rotshift.cli import _indented_json, main
from rotshift.graph import full_shift_graph
from rotshift.ktheory import graph_k_groups
from rotshift.oracles import MAX_ORBIT_GRID, MAX_WEYL_TERMS
from rotshift.subshift import MAX_WORD_SCANS, MAX_WORDS

SYSTEMS = os.path.join(os.path.dirname(__file__), "..", "systems")


def path(name):
    return os.path.join(SYSTEMS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", path("goldenmean.sds"))
    assert code == 0
    assert "validation: ok" in out
    assert "vertices: v1 v2" in out


def test_validate_failure_exit_2(capsys):
    code, out, _ = run(capsys, "validate", path("bad.sds"), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["validation"]["ok"] is False
    assert payload["validation"]["error"] == "not-left-resolving"


def test_missing_file_exit_1(capsys):
    code, out, err = run(capsys, "validate", path("nope.sds"))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: cannot read {path('nope.sds')}: [Errno 2] No such file or directory: {path('nope.sds')!r}"]


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_non_utf8_file_exits_1_naming_the_file(capsys, tmp_path, command):
    file = tmp_path / "latin1.sds"
    file.write_bytes(b"\xff[alphabet]\na\n")
    code, out, err = run(capsys, command, str(file))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: cannot read {file}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    ]


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_parse_error_exits_1_naming_the_file_and_line(capsys, tmp_path, command):
    file = tmp_path / "bad-edge.sds"
    file.write_text("[alphabet]\na\n\n[vertices]\nv\n[edges]\nv v : a\n")
    code, out, err = run(capsys, command, str(file))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {file}: line 7: bad edge syntax 'v v : a' (want 'src -> dst : symbol')"]


VALIDATE_MODULES = {"angles", "cli", "errors", "fileformat", "graph", "report"}


@pytest.mark.parametrize(
    "command, expected",
    [
        ("import rotshift", set()),
        ("from rotshift.cli import main; main(['validate', SYSTEM, '--json'])", VALIDATE_MODULES),
        (
            "from rotshift.cli import main; main(['analyze', SYSTEM, '--json'])",
            VALIDATE_MODULES | {"ideals", "intlinalg", "ktheory", "verdicts"},
        ),
    ],
    ids=["import", "validate", "analyze"],
)
def test_command_loads_only_the_modules_it_runs(command, expected):
    """In a fresh interpreter, the package itself loads no submodule and
    each command loads its own modules only: validate no verdict,
    K-theory or ideal module, analyze never the oracles or words."""
    script = f"import sys\nSYSTEM = {path('goldenmean.sds')!r}\n{command}\n" + (
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('rotshift.'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rotshift.__file__)))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    loaded = result.stdout.splitlines()[-1].split()
    assert set(loaded) == {f"rotshift.{name}" for name in expected}


def test_words_output(capsys):
    code, out, _ = run(capsys, "words", path("goldenmean.sds"), "-k", "2")
    assert code == 0
    assert out.splitlines() == ["a a", "a b", "b c", "c a", "c b"]


def test_words_json(capsys):
    code, out, _ = run(capsys, "words", path("goldenmean.sds"), "-k", "2", "--json")
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["words"][0] == ["a", "a"]


def test_words_cap_exit_1(capsys):
    code, _, err = run(capsys, "words", path("goldenmean.sds"), "-k", "13")
    assert code == 1
    assert "cap" in err.lower() or "length" in err.lower()


def test_words_zero_length(capsys):
    code, out, _ = run(capsys, "words", path("goldenmean.sds"), "-k", "0")
    assert code == 0
    assert out.strip() == "(empty word)"


def test_analyze_report_keys(capsys):
    code, out, _ = run(capsys, "analyze", path("goldenmean.sds"), "--json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == [
        "version",
        "input_digest",
        "validation",
        "condition_I",
        "irreducible",
        "irrational_cycle",
        "g_minimal",
        "simple_O",
        "purely_infinite_O",
        "fullshift",
        "k_theory",
        "ideals",
        "warnings",
    ]
    assert report["condition_I"]["verdict"] == "Yes"
    assert report["g_minimal"]["verdict"] == "Yes"
    assert report["simple_O"]["verdict"] == "Yes"
    assert report["purely_infinite_O"]["verdict"] == "Yes"
    assert report["k_theory"]["K0"] == "0"


def test_analyze_is_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", path("reducible3.sds"), "--json")
    _, second, _ = run(capsys, "analyze", path("reducible3.sds"), "--json")
    assert first == second


def test_analyze_invalid_still_reports(capsys):
    code, out, _ = run(capsys, "analyze", path("bad.sds"), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["validation"]["ok"] is False
    assert "condition_I" not in report or report.get("condition_I") is None


def test_analyze_angles_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--angles", "0,1/2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["fullshift"]["F_simple"]["verdict"] == "No"
    assert report["fullshift"]["uniformly_distributed"]["verdict"] == "No"
    assert report["g_minimal"]["verdict"] == "No"

    code, out, _ = run(capsys, "analyze", "--angles", "0,1*g", "--json")
    report = json.loads(out)
    assert report["fullshift"]["F_simple"]["verdict"] == "Yes"
    assert report["purely_infinite_O"]["verdict"] == "Yes"


def test_analyze_needs_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    assert "FILE or --angles" in err


def test_analyze_file_and_angles_together_is_a_usage_error(capsys):
    """Neither input wins silently: one error line names both."""
    for mode in ([], ["--json"]):
        code, out, err = run(capsys, "analyze", path("goldenmean.sds"), "--angles", "0,1/2", *mode)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: analyze takes a FILE or --angles, not both (got {path('goldenmean.sds')!r} and --angles '0,1/2')"
        ]


@pytest.mark.parametrize("argv", [[path("fullshift3.sds")], ["--angles", "0,1*g,1/3"]], ids=["file", "angles"])
def test_full_shift_analyze_builds_one_angle_table(capsys, monkeypatch, argv):
    """The cycle search and the full-shift decision read one table."""
    builds = []
    original = ExactAngle.integer_coordinates

    def counted(angles):
        builds.append(dict(angles))
        return original(angles)

    monkeypatch.setattr(ExactAngle, "integer_coordinates", staticmethod(counted))
    code, out, _ = run(capsys, "analyze", *argv, "--json")
    assert code == 0
    assert json.loads(out)["fullshift"]["F_simple"]["verdict"] in ("Yes", "No")
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", path("reducible3.sds")],
        ["words", path("fullshift3.sds"), "-k", "3"],
        ["ktheory", path("goldenmean.sds"), "--af-core"],
        ["ktheory", path("fullshift3.sds"), "--bunce-deddens"],
        ["ideals", path("reducible3.sds")],
    ],
    ids=["analyze", "words", "ktheory-af-core", "ktheory-bunce-deddens", "ideals"],
)
def test_json_mode_builds_no_text_line(capsys, monkeypatch, argv):
    """The text lines reach _emit as a generator, which --json leaves
    unstarted; in text mode the same generator prints every line."""
    seen = []
    original = cli._emit

    def emit(payload, as_json, text_lines):
        seen.append(inspect.getgeneratorstate(text_lines))
        original(payload, as_json, text_lines)
        seen.append(inspect.getgeneratorstate(text_lines))

    monkeypatch.setattr(cli, "_emit", emit)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)
    assert seen == [inspect.GEN_CREATED, inspect.GEN_CREATED]
    seen.clear()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert seen == [inspect.GEN_CREATED, inspect.GEN_CLOSED]


def test_ktheory_output(capsys):
    code, out, _ = run(capsys, "ktheory", path("nloop3.sds"))
    assert code == 0
    assert "K0 = K1 = Z/2" in out


def test_ktheory_ladders(capsys):
    code, out, _ = run(capsys, "ktheory", path("fullshift2.sds"), "--af-core", "--bunce-deddens", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_theory"]["K0"] == "0"
    assert payload["af_core"] == {"level": "Z", "map": [[0, 0, 2]]}
    assert payload["bunce_deddens"]["K0_map"] == [[0, 0, 2]]
    assert payload["bunce_deddens"]["K0_limit"] == "Z[1/2]"
    code, out, _ = run(capsys, "ktheory", path("fullshift2.sds"), "--af-core")
    assert out.splitlines()[1:] == [
        "core level: rank 1 in both degrees",
        "connecting map (both degrees) as [row, column, multiplicity]: [[0, 0, 2]]",
    ]
    code, out, _ = run(capsys, "ktheory", path("fullshift2.sds"), "--bunce-deddens")
    assert out.splitlines() == [
        "K0 = K1 = 0",
        "scaled-integer ladder: K0 = Z --x2--> Z (limit Z[1/2], order unit 1), K1 = Z --id--> Z (limit Z)",
    ]


def test_ktheory_bunce_deddens_needs_full_shift(capsys, monkeypatch):
    """The graph check surfaces before the K-groups run."""

    def forbidden(_graph):
        raise AssertionError("graph_k_groups ran before an argument check")

    monkeypatch.setattr(ktheory, "graph_k_groups", forbidden)
    code, out, err = run(capsys, "ktheory", path("goldenmean.sds"), "--bunce-deddens")
    assert (code, out, err) == (1, "", "error: --bunce-deddens needs a single-vertex full shift\n")


TEN_ANGLES = ",".join(f"{k}/10" for k in range(9)) + ",1*g"

# stands for a 1000-vertex circulant with ten symbols, written per test:
# symbol k adds a fixed shift to the vertex index, so every word is
# admissible and every support is the whole vertex set
CIRCULANT = "circulant-n1000.sds"
SHIFTS = (1, 7, 31, 97, 211, 389, 503, 641, 769, 887)


def write_circulant(file, n=1000):
    file.write_text(
        "[alphabet]\n"
        + "".join(f"s{k}\n" for k in range(len(SHIFTS)))
        + "[vertices]\n"
        + "".join(f"v{i}\n" for i in range(n))
        + "[edges]\n"
        + "".join(f"v{i} -> v{(i + d) % n} : s{k}\n" for i in range(n) for k, d in enumerate(SHIFTS))
    )


@pytest.mark.parametrize(
    "argv, budget, code, err",
    [
        # K-groups stubbed: the circulant's own do not finish in a minute
        (["ktheory", CIRCULANT, "--af-core", "--json"], 2, 0, []),
        (["oracle", "weyl", "--angles", "0.3", "--n", "5", "--lmax", str(MAX_WEYL_TERMS), "--json"], 2, 0, []),
        (["oracle", "weyl", "--angles", TEN_ANGLES, "--n", "5", "--lmax", str(MAX_WEYL_TERMS // 10), "--json"], 2, 0, []),
        (
            ["oracle", "weyl", "--angles", "0.3", "--n", "5", "--lmax", str(MAX_WEYL_TERMS + 1), "--json"],
            1,
            1,
            [f"error: weyl terms: requested {MAX_WEYL_TERMS + 1}, cap is {MAX_WEYL_TERMS}"],
        ),
        (["oracle", "orbit", path("goldenmean.sds"), "--steps", "1000", "--eps", "1e-4", "--json"], 2, 0, []),
        # two fibers of floor(1/1e-5) + 1 = 100_000 grid points: exactly at the cap
        (["oracle", "orbit", path("goldenmean.sds"), "--steps", "1000", "--eps", "1e-5", "--json"], 2, 0, []),
        (
            ["oracle", "orbit", path("goldenmean.sds"), "--steps", "1000", "--eps", "1e-6", "--json"],
            1,
            1,
            [f"error: orbit grid points: requested 2000002, cap is {MAX_ORBIT_GRID}"],
        ),
        (
            ["words", path("fullshift3.sds"), "-k", "12", "--json"],
            2,
            1,
            [f"error: word count: requested at least {MAX_WORDS + 1}, cap is {MAX_WORDS}"],
        ),
        # each support scans all 10 000 out-edges
        (
            ["words", CIRCULANT, "-k", "6", "--json"],
            3,
            1,
            [f"error: word search out-edges: requested at least {MAX_WORD_SCANS + 10_000}, cap is {MAX_WORD_SCANS}"],
        ),
    ],
    ids=[
        "af-core-n1000",
        "weyl-cap-1-angle",
        "weyl-cap-10-angles",
        "weyl-past-cap",
        "orbit-fine-eps",
        "orbit-grid-cap",
        "orbit-past-grid-cap",
        "words-fullshift3-k12",
        "words-n1000-k6",
    ],
)
def test_bounded_corners_finish_within_budget(capsys, monkeypatch, tmp_path, argv, budget, code, err):
    """The core ladder is one sparse map of O(m) entries, `oracle weyl`
    stops at its term cap, the orbit gap scan is one sweep per fiber
    that stops at its grid cap, and `words` stops at its word or
    out-edge cap: each corner finishes within its budget in seconds."""
    if CIRCULANT in argv:
        write_circulant(tmp_path / CIRCULANT)
        argv = [str(tmp_path / CIRCULANT) if a == CIRCULANT else a for a in argv]
    if argv[0] == "ktheory":
        stub = graph_k_groups(full_shift_graph(2))
        monkeypatch.setattr(ktheory, "graph_k_groups", lambda _graph: stub)
    with wall_clock_limit(budget):
        result = run(capsys, *argv)
    assert (result[0], result[2].splitlines()) == (code, err)
    if argv[0] == "ktheory":
        assert len(result[1]) < 1_000_000
        assert len(json.loads(result[1])["af_core"]["map"]) == 10_000


def test_ideals_output(capsys):
    code, out, _ = run(capsys, "ideals", path("reducible3.sds"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "{}"
    assert "quotient on {v1}" in lines[1]
    assert "lattice covers: 0<1, 1<2" in lines[-1]


def test_oracle_orbit(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        "orbit",
        path("fullshift2.sds"),
        "--steps",
        "5000",
        "--eps",
        "0.05",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dense"] is True
    assert payload["gap"]["v"] < 0.05


def test_oracle_orbit_gen_override(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        "orbit",
        path("fullshift2.sds"),
        "--steps",
        "200",
        "--eps",
        "0.3",
        "--gen",
        "g=0.5",
        "--json",
    )
    payload = json.loads(out)
    assert payload["points_per_fiber"]["v"] == 2  # rotation by 1/2


def test_oracle_weyl(capsys):
    code, out, _ = run(
        capsys, "oracle", "weyl", "--angles", "0,1/2", "--n", "50", "--lmax", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    levels = {row["level"]: row["value"] for row in payload["table"]}
    assert abs(levels[2] - 1.0) < 1e-12
    assert payload["max_value"] == 1.0


def test_oracle_weyl_symbolic_angles(capsys):
    code, out, _ = run(
        capsys, "oracle", "weyl", "--angles", "0,1*g", "--n", "100", "--lmax", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_value"] < 0.01


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "orbit", path("fullshift2.sds"), "--gen", "g:0.5"], "--gen wants name=value, got 'g:0.5'"),
        (["oracle", "orbit", path("fullshift2.sds"), "--gen", "g=inf"], "bad numeric value in --gen 'g=inf'"),
        (["oracle", "orbit", path("goldenmean.sds"), "--gen", "g=nan"], "bad numeric value in --gen 'g=nan'"),
        (["oracle", "orbit", path("goldenmean.sds"), "--gen", "g=abc"], "bad numeric value in --gen 'g=abc'"),
        (
            ["oracle", "weyl", "--angles", "0,1*g", "--n", "5", "--lmax", "2", "--gen", "g=-inf", "--json"],
            "bad numeric value in --gen 'g=-inf'",
        ),
    ],
    ids=["no-equals", "orbit-inf", "orbit-nan", "orbit-not-a-number", "weyl-minus-inf"],
)
def test_bad_gen_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


HUGE = 10**400

# systems whose exact angles are fine but overflow a float
OVERFLOW_SYSTEMS = {
    "huge-coefficient": ("g", HUGE),
    "large-product": ("g = 1e10", 10**300),
}


def write_overflow_system(tmp_path, name):
    generator, coefficient = OVERFLOW_SYSTEMS[name]
    file = tmp_path / f"{name}.sds"
    file.write_text(
        f"[generators]\n{generator}\n[alphabet]\na = {coefficient}*g\nb = 1/3\n"
        "[vertices]\nv1\n[edges]\nv1 -> v1 : a\nv1 -> v1 : b\n"
    )
    return file


@pytest.mark.parametrize("name", sorted(OVERFLOW_SYSTEMS))
def test_analyze_is_exact_where_floats_overflow(capsys, tmp_path, name):
    code, out, err = run(capsys, "analyze", str(write_overflow_system(tmp_path, name)), "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["purely_infinite_O"]["verdict"] == "Yes"
    assert report["irrational_cycle"]["certificate"]["angle"] == f"0 + {OVERFLOW_SYSTEMS[name][1]}*g"


# inputs whose every number has at most 4300 digits, while an lcm of
# denominators or a sum of entries along a cycle has more
DIGIT_LIMIT_SYSTEMS = {
    "golden-mean-lcm": (
        f"[alphabet]\na = 1/{10**3000 + 1}\nb = 1/{10**3000 + 3}\nc = 0\n"
        "[vertices]\nv1\nv2\n[edges]\nv1 -> v1 : a\nv1 -> v2 : b\nv2 -> v1 : c\n"
    ),
    # L = 1: only the entry's own bits pass the cap
    "cycle-coefficient": (
        f"[generators]\ng\n[alphabet]\na = {'9' * 4299}*g\n[vertices]\n"
        + "".join(f"v{i}\n" for i in range(12))
        + "[edges]\n"
        + "".join(f"v{i} -> v{(i + 1) % 12} : a\n" for i in range(12))
    ),
}


@pytest.mark.parametrize(
    "argv, requested",
    [
        (["{golden-mean-lcm}"], "at least 9966"),
        (["{cycle-coefficient}"], "14281"),
        (["--angles", f"1/{10**3000 + 1},1/{10**3000 + 3}"], "at least 9966"),
    ],
    ids=["golden-mean-lcm", "cycle-coefficient", "angles-lcm"],
)
def test_past_the_int_string_limit_analyze_exits_1_naming_the_angle_cap(capsys, tmp_path, argv, requested):
    """MAX_ANGLE_BITS refuses these before a verdict writes an int past
    CPython's 4300-digit int-to-str limit.  validate applies the same
    cap to a file and refuses it with the same one error line."""
    commands = ["analyze"]
    if argv[0].startswith("{"):
        file = tmp_path / "system.sds"
        file.write_text(DIGIT_LIMIT_SYSTEMS[argv[0][1:-1]])
        argv = [str(file)]
        commands.append("validate")
    for command in commands:
        code, out, err = run(capsys, command, *argv, "--json")
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: angle coordinate bits: requested {requested}, cap is {MAX_ANGLE_BITS}"]


LONG_NUMERAL = "1/" + "9" * 5000


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["validate", "{file}"], ""),
        (["analyze", "{file}"], ""),
        (["analyze", "--angles", f"0,{LONG_NUMERAL}"], "bad --angles list: "),
        (["oracle", "weyl", "--angles", f"0,{LONG_NUMERAL}", "--n", "5", "--lmax", "2"], "bad --angles list: "),
    ],
    ids=["validate", "analyze", "analyze-angles", "oracle-weyl"],
)
def test_angle_numeral_past_the_int_string_limit_exits_1_naming_the_cap(capsys, tmp_path, argv, prefix):
    """A 5000-digit denominator is past CPython's int-string limit;
    every route that parses an exact angle names that cap."""
    file = tmp_path / "numeral.sds"
    file.write_text(f"[alphabet]\na = {LONG_NUMERAL}\nb\n[vertices]\nv\n[edges]\nv -> v : a\nv -> v : b\n")
    code, out, err = run(capsys, *(a.format(file=file) for a in argv))
    assert (code, out) == (1, "")
    cap = sys.get_int_max_str_digits()
    assert err.splitlines() == [f"error: {prefix}angle numeral digits: requested 5000, cap is {cap}"]


def generator_sum(count):
    return " + ".join(f"1*g{k}" for k in range(count))


@pytest.mark.parametrize("count", [MAX_GENERATORS, MAX_GENERATORS + 1], ids=["at-cap", "past-cap"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{file}", "--json"],
        ["analyze", "{file}", "--json"],
        ["analyze", "--angles", "0,{sum}", "--json"],
        ["oracle", "weyl", "--angles", "0,{sum}", "--n", "5", "--lmax", "2", "--json"],
    ],
    ids=["validate", "analyze", "analyze-angles", "oracle-weyl"],
)
def test_generator_cap(capsys, tmp_path, argv, count):
    """Every route that declares generators refuses more than
    MAX_GENERATORS of them, naming the cap; at the cap it runs."""
    file = tmp_path / "generators.sds"
    file.write_text(
        "[generators]\n"
        + "".join(f"g{k}\n" for k in range(count))
        + f"[alphabet]\na = {generator_sum(count)}\nb\nc\n"
        + "[vertices]\nv1\nv2\n[edges]\nv1 -> v1 : a\nv1 -> v2 : b\nv2 -> v1 : c\n"
    )
    argv = [a.format(file=file, sum=generator_sum(count)) for a in argv]
    code, out, err = run(capsys, *argv)
    if count == MAX_GENERATORS:
        assert (code, err) == (0, "")
        json.loads(out)
    else:
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: generators: requested {count}, cap is {MAX_GENERATORS}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["words", path("goldenmean.sds"), "-k", "-1"], "negative word length"),
        (["oracle", "orbit", path("goldenmean.sds"), "--steps", "-5"], "negative step count"),
        (["oracle", "orbit", path("goldenmean.sds"), "--eps", "2"], "epsilon must lie in (0, 1)"),
        (["oracle", "orbit", path("goldenmean.sds"), "--start-point", "nan"], "start point must be finite, got nan"),
        (["oracle", "orbit", path("goldenmean.sds"), "--start-point=-inf"], "start point must be finite, got -inf"),
        (
            ["oracle", "weyl", "--angles", "nan,0", "--n", "5", "--lmax", "2", "--json"],
            "bad --angles list: non-finite angle 'nan'",
        ),
        (
            ["oracle", "weyl", "--angles", "0,1e400", "--n", "5", "--lmax", "2", "--json"],
            "bad --angles list: non-finite angle '1e400'",
        ),
        (["oracle", "orbit", "{huge-coefficient}"], f"angle 0 + {HUGE}*g is too large for a float"),
        # a finite coefficient times g = 1e10 overflows: inf % 1.0 would be nan
        (["oracle", "orbit", "{large-product}"], f"angle 0 + {10**300}*g is too large for a float"),
        (
            ["oracle", "weyl", "--angles", f"{HUGE}/3,0", "--n", "5", "--lmax", "2", "--json"],
            f"bad --angles list: non-finite angle '{HUGE}/3'",
        ),
        (["analyze", "--angles", "0,,1/2"], "empty entry in --angles list"),
        (["oracle", "orbit", path("goldenmean.sds"), "--start-vertex", "nope"], "unknown start vertex 'nope'"),
    ],
    ids=[
        "words", "orbit-steps", "orbit-eps", "orbit-start-nan", "orbit-start-inf", "weyl-nan", "weyl-inf",
        "orbit-huge-coefficient", "orbit-large-product", "weyl-huge-fraction", "analyze-empty-angle",
        "orbit-start-vertex",
    ],
)
def test_out_of_range_argument_exits_1_with_one_error_line(capsys, tmp_path, argv, message):
    argv = [str(write_overflow_system(tmp_path, a[1:-1])) if a.startswith("{") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name, declared",
    [
        (["oracle", "orbit", path("goldenmean.sds"), "--steps", "10"], "G", "g"),
        (["oracle", "weyl", "--angles", "0,1*g", "--n", "5", "--lmax", "2"], "h", "g"),
        (["oracle", "weyl", "--angles", "0,1/2", "--n", "5", "--lmax", "2"], "g", "none"),
        # the exponent letter of a float literal is no generator
        (["oracle", "weyl", "--angles", "1e-3,0", "--n", "5", "--lmax", "2"], "e", "none"),
    ],
    ids=["orbit", "weyl", "weyl-rational", "weyl-float-exponent"],
)
def test_gen_with_undeclared_name_exits_1(capsys, argv, name, declared):
    code, out, err = run(capsys, *argv, "--gen", f"{name}=0.25")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: --gen names undeclared generator {name!r} (declared: {declared})"]


def test_usage_error_exit_1(capsys):
    for argv in (
        ["words", path("goldenmean.sds")],  # missing -k
        ["ktheory", path("goldenmean.sds"), "--af-core", "2"],  # the ladder flags take no depth
    ):
        with pytest.raises(SystemExit) as info:
            run(capsys, *argv)
        assert info.value.code == 1


# Every subcommand that reads a FILE, with the arguments it needs.
FILE_COMMANDS = [
    ["validate"],
    ["analyze"],
    ["words", "-k", "1"],
    ["ktheory"],
    ["ideals"],
    ["oracle", "orbit", "--steps", "10"],
]


def _with_file(command, file):
    # the FILE argument follows the subcommand name(s)
    split = 2 if command[0] == "oracle" else 1
    return command[:split] + [file] + command[split:] + ["--json"]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_vertex_cap_exits_1_naming_the_cap(capsys, tmp_path, command):
    n = 1001
    vertices = "\n".join(f"v{i}" for i in range(n))
    edges = "\n".join(f"v{i} -> v{(i + 1) % n} : a" for i in range(n))
    big = tmp_path / "big.sds"
    big.write_text(f"[alphabet]\na\n\n[vertices]\n{vertices}\n\n[edges]\n{edges}\n")
    code, out, err = run(capsys, *_with_file(command, str(big)))
    assert code == 1
    assert out == ""
    assert "vertex count: requested 1001, cap is 1000" in err


def test_analyze_text_ends_with_the_ideal_cap_warning(capsys, tmp_path):
    n = 21
    vertices = "\n".join(f"v{i}" for i in range(n))
    edges = "\n".join(f"v{i} -> v{(i + 1) % n} : a" for i in range(n))
    cycle = tmp_path / "cycle.sds"
    cycle.write_text(f"[alphabet]\na\n\n[vertices]\n{vertices}\n\n[edges]\n{edges}\n")
    code, out, err = run(capsys, "analyze", str(cycle))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "k_theory: K0 = Z^2, K1 = Z^2",
        "warning: ideal lattice skipped: ideal enumeration vertex count: requested 21, cap is 20",
    ]


def test_ideal_count_cap_exits_1_naming_the_cap(capsys, tmp_path):
    n = 20
    vertices = "\n".join(f"v{i}" for i in range(n))
    edges = "\n".join(f"v{i} -> v{i} : a" for i in range(n))
    loops = tmp_path / "loops.sds"
    loops.write_text(f"[alphabet]\na\n\n[vertices]\n{vertices}\n\n[edges]\n{edges}\n")
    code, out, err = run(capsys, "ideals", str(loops), "--json")
    assert code == 1
    assert out == ""
    assert "ideal count" in err and "cap is 1024" in err


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_validation_failure_emits_witness(capsys, command):
    code, out, _ = run(capsys, *_with_file(command, path("bad.sds")))
    assert code == 2
    assert json.loads(out)["validation"] == {
        "ok": False,
        "error": "not-left-resolving",
        "vertex": "v1",
        "symbol": "a",
        "edges": [["v1", "v1", "a"], ["v2", "v1", "a"]],
    }


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_validation_failure_text_names_the_defect(capsys, command):
    argv = _with_file(command, path("bad.sds"))[:-1]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines()[0] == "validation: FAILED"
    assert '"error": "not-left-resolving"' in out


def run_to_exit(capsys, argv):
    """main's exit code, stdout and stderr, whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GM = path("goldenmean.sds")


@pytest.mark.parametrize(
    "argv",
    [
        *(_with_file(command, GM) for command in FILE_COMMANDS),
        ["validate", "-h"],
        ["validate", GM, "--bogus"],
        ["ktheory", GM, "--af-core", "2"],
        ["words", GM],
        ["validate", "--", GM],
        ["oracle"],
        ["oracle", "weyl"],
        ["bogus"],
        ["--version"],
        [],
    ],
    ids=lambda argv: " ".join(argv).replace(GM, "FILE") or "no-arguments",
)
def test_command_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    """main hands the argv after a command name to that command's parser;
    with no command map, the top-level parser reads all of argv.  Both
    give the same exit code, stdout and stderr."""
    direct = run_to_exit(capsys, argv)
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert run_to_exit(capsys, argv) == direct
    if "--bogus" in argv:
        usage = cli.build_parser().format_usage()
        assert usage.startswith("usage: rotshift [-h] [--version]")
        assert direct == (1, "", usage + "error: unrecognized arguments: --bogus\n")


# The --json writer against json.dumps(value, indent=2).  The strings
# carry what JSON escapes, text beyond ASCII and U+2028; the floats
# include the extremes and the constants that json.dumps writes as NaN
# and Infinity.  Every key is a string, as in every payload a command
# returns.  Bools sit among ints, graph edges and subclasses of dict
# and list among the containers, and one dict is held under several
# keys of another and once more a level further down, as condition (I)
# certificates share their entries.
json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\u6f22\U0001f600'), st.characters()))
json_ints = st.integers(-(2**70), 2**70)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    json_ints,
    st.floats(),
    st.sampled_from([-0.0, 1e-320, 1e308, float("nan"), float("inf"), float("-inf")]),
    json_text,
)


class DictSubclass(dict):
    pass


class ListSubclass(list):
    pass


def holding_twice(drawn):
    """A dict holding one dict under each of several keys, and again
    one level further down."""
    shared, keys = drawn
    return {**dict.fromkeys(keys, shared), "below": [shared, {"again": shared}]}


json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(ListSubclass),
        st.lists(json_text, max_size=4),
        st.lists(st.one_of(json_ints, st.booleans()), max_size=4),
        st.tuples(json_text, json_text, json_text),
        st.dictionaries(json_text, inner, max_size=4),
        st.dictionaries(json_text, inner, max_size=4).map(DictSubclass),
        st.tuples(st.dictionaries(json_text, inner, max_size=3), st.lists(json_text, min_size=2, max_size=4)).map(
            holding_twice
        ),
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert _indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{(1,): 2}, {"a": {1, 2}}, [b"bytes"]], ids=["tuple-key", "set", "bytes"])
def test_json_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _indented_json(value)
