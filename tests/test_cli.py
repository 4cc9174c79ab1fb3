"""Golden CLI invocations: JSON payloads and the exit-code contract."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from abtuple.cli import main

EXAMPLE_FULL_RANK = "1 0 0\n1 1 0\n1 2 2\n1 2 5\n"
# perfbench's generic certify item 0: q = 12 in Z^5, zero first.
GENERIC_Q12 = """\
0 0 0 0 0
4 -9 -4 -9 2
-2 7 -9 -8 -2
6 4 2 3 0
-6 -1 -8 -4 2
3 -9 0 -4 8
-2 -2 4 -3 -8
3 -7 -6 6 -1
-6 3 -1 -4 -2
7 8 -6 1 1
-6 -6 -7 -6 -2
9 -1 -1 3 6
"""
DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.fixture()
def tuple_file(tmp_path):
    def write(text, name="t.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out)
    return code, payload, out.err


class TestRank:
    def test_rank(self, capsys, tuple_file):
        code, payload, err = run_cli(capsys, "rank", tuple_file(EXAMPLE_FULL_RANK))
        assert code == 0
        assert payload == {"dim": 3, "q": 4, "rank": 3}
        assert "rank 3" in err

    def test_bare_json_array(self, capsys, tuple_file):
        code, payload, _ = run_cli(capsys, "rank", tuple_file("[[0],[0],[2],[-2]]"))
        assert code == 0
        assert payload == {"dim": 1, "q": 4, "rank": 1}

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("2 0\n0 3\n"))
        code, payload, _ = run_cli(capsys, "rank", "-")
        assert code == 0
        assert payload["rank"] == 2


class TestProperty:
    def test_holds_exit_zero(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "property", "--r", "4", "--s", "2", tuple_file("0\n0\n2\n-2\n")
        )
        assert code == 0
        assert payload["holds"] is True

    def test_fails_exit_one_with_witness(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "property", "--r", "3", "--s", "2", tuple_file("0\n1\n2\n")
        )
        assert code == 1
        assert payload["failure_witness"] == {
            "window": [1, 2, 3],
            "selection": [1, 2],
        }


class TestClassify:
    def test_type_b_pair_inverse(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "classify", "--s", "2", tuple_file("0\n0\n2\n-2\n")
        )
        assert code == 0
        assert payload["variant"] == "type_b"
        assert payload["k"] == 1
        assert payload["breakpoints"] == [1]

    def test_unclassified_exit_one(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "classify", "--s", "2", tuple_file("0\n0\n1\n3\n")
        )
        assert code == 1
        assert payload["variant"] == "unclassified"
        assert payload["property_holds"] is False

    def test_missing_zero_exit_two(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "classify", "--s", "2", tuple_file("1\n1\n2\n-2\n")
        )
        assert code == 2
        assert "error" in payload


class TestVerify:
    def test_round_trip(self, capsys, tuple_file, tmp_path):
        tf = tuple_file("0\n0\n2\n-2\n")
        code = main(["classify", "--s", "2", tf])
        cert_text = capsys.readouterr().out
        assert code == 0
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(cert_text)
        code, payload, err = run_cli(
            capsys, "verify", "--s", "2", tf, str(cert_file)
        )
        assert code == 0
        assert payload == {"valid": True}
        assert "valid" in err

    def test_wrong_tuple_fails(self, capsys, tuple_file, tmp_path):
        tf = tuple_file("0\n0\n2\n-2\n")
        main(["classify", "--s", "2", tf])
        cert_text = capsys.readouterr().out
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(cert_text)
        other = tuple_file("0\n0\n0\n3\n", name="other.txt")
        code, payload, _ = run_cli(capsys, "verify", "--s", "2", other, str(cert_file))
        assert code == 1
        assert payload == {"valid": False}

    def test_s_mismatch_fails(self, capsys, tuple_file, tmp_path):
        tf = tuple_file("0\n0\n2\n-2\n")
        main(["classify", "--s", "2", tf])
        cert_text = capsys.readouterr().out
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(cert_text)
        code, payload, _ = run_cli(capsys, "verify", "--s", "3", tf, str(cert_file))
        assert code == 1
        assert payload == {"valid": False}

    @pytest.mark.parametrize(
        "text, s, cert",
        [
            (
                "0\n0\n1\n1\n1\n1\n",
                3,
                {
                    "variant": "type_a",
                    "s": 3,
                    "scaling": [0],
                    "permutation": [1, 2, 3, 4, 5, 6],
                    "basis": [[1], [1]],
                },
            ),
            (
                "0\n0\n0\n0\n1\n1\n",
                3,
                {
                    "variant": "type_b",
                    "s": 3,
                    "scaling": [0],
                    "permutation": [1, 2, 3, 4, 5, 6],
                    "basis": [[1], [1]],
                    "k": 0,
                    "breakpoints": [],
                },
            ),
            (
                "0\n0\n",
                1,
                {
                    "variant": "type_a",
                    "s": 1,
                    "scaling": [0],
                    "permutation": [1, 2],
                    "basis": [],
                },
            ),
            (
                "0\n0\n",
                1,
                {
                    "variant": "type_b",
                    "s": 1,
                    "scaling": [0],
                    "permutation": [1, 2],
                    "basis": [],
                    "k": 0,
                    "breakpoints": [],
                },
            ),
        ],
        ids=["dependent_type_a", "dependent_type_b", "s1_type_a", "s1_type_b"],
    )
    def test_dependent_basis_or_s_below_two_fails(
        self, capsys, tuple_file, tmp_path, text, s, cert
    ):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        code, payload, err = run_cli(
            capsys, "verify", "--s", str(s), tuple_file(text), str(cert_file)
        )
        assert code == 1
        assert payload == {"valid": False}
        assert "INVALID" in err

    @pytest.mark.parametrize(
        "text, s, cert",
        [
            ("1\n2\n", 5, {"variant": "rank_below", "s": 5, "t": 1}),
            (
                "1 0\n1 0\n2 0\n2 0\n1 1\n1 1\n",
                3,
                {
                    "variant": "type_a",
                    "s": 3,
                    "scaling": [1, 0],
                    "permutation": [1, 2, 3, 4, 5, 6],
                    "basis": [[1, 0], [0, 1]],
                },
            ),
        ],
        ids=["rank_below_q_at_most_s", "type_a_without_zero"],
    )
    def test_outside_classify_domain_fails(
        self, capsys, tuple_file, tmp_path, text, s, cert
    ):
        # classify refuses both tuples (exit 2), so no certificate of them
        # is valid.
        tf = tuple_file(text)
        assert run_cli(capsys, "classify", "--s", str(s), tf)[0] == 2
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        code, payload, err = run_cli(
            capsys, "verify", "--s", str(s), tf, str(cert_file)
        )
        assert code == 1
        assert payload == {"valid": False}
        assert "INVALID" in err

    @pytest.mark.parametrize(
        "cert, field",
        [
            ({"s": 2}, "variant"),
            ({"variant": "type_b", "s": 2}, "scaling"),
            (
                {
                    "variant": "type_b",
                    "s": 2,
                    "scaling": [0],
                    "permutation": ["a"],
                    "basis": [[2]],
                    "k": 1,
                    "breakpoints": [1],
                },
                "permutation",
            ),
            ([1, 2], "object"),
        ],
    )
    def test_malformed_certificate_exit_two(
        self, capsys, tuple_file, tmp_path, cert, field
    ):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        tf = tuple_file("0\n0\n2\n-2\n")
        code, payload, _ = run_cli(capsys, "verify", "--s", "2", tf, str(cert_file))
        assert code == 2
        assert field in payload["error"]

    def test_deeply_nested_certificate_exit_two(self, capsys, tuple_file):
        tf = tuple_file("0\n0\n2\n-2\n")
        deep = tuple_file(DEEP_JSON, name="deep.json")
        code, payload, err = run_cli(capsys, "verify", "--s", "2", tf, deep)
        assert code == 2
        assert "certificate JSON" in payload["error"]
        assert "Traceback" not in err


class TestQBasis:
    def test_certificate(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "qbasis", tuple_file("0 0\n2 0\n0 3\n1 1\n")
        )
        assert code == 0
        assert payload["indices"] == [2, 3]
        assert payload["multipliers"] == [2, 3]
        assert payload["exponents"][3] == [1, 1]

    def test_rank_zero_exit_two(self, capsys, tuple_file):
        code, payload, _ = run_cli(capsys, "qbasis", tuple_file("0\n0\n"))
        assert code == 2
        assert "error" in payload


class TestAdequateBasis:
    def test_refutation_exit_one(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "adequate-basis", tuple_file(EXAMPLE_FULL_RANK)
        )
        assert code == 1
        assert payload["exists"] is False
        assert payload["refutation"] == [
            {"indices": [1, 2, 3], "index": 2},
            {"indices": [1, 2, 4], "index": 5},
            {"indices": [1, 3, 4], "index": 6},
            {"indices": [2, 3, 4], "index": 3},
        ]

    def test_witness_exit_zero(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "adequate-basis", tuple_file("1 0\n0 1\n2 3\n")
        )
        assert code == 0
        assert payload["exists"] is True
        assert payload["witness"]["indices"] == [1, 2]
        assert payload["witness"]["multipliers"] == [1, 1]

    def test_full_refutation_pinned(self, capsys, tuple_file):
        # Every one of the C(11, 5) = 462 subsets of the nonzero positions is
        # independent and refuted; the digest pins their order and indices.
        code = main(["adequate-basis", tuple_file(GENERIC_Q12)])
        out = capsys.readouterr()
        assert code == 1
        assert len(json.loads(out.out)["refutation"]) == 462
        text = out.out.removesuffix("\n")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "c3d3d71d5c88818d"
        assert out.err == "no adequate basis (462 subsets refuted)\n"

    def test_budget_exit_three(self, capsys, tuple_file, monkeypatch):
        # Four nonzero elements of rank 3: C(4, 3) = 4 subsets are billed.
        monkeypatch.setenv("ABTUPLE_BUDGET", "3")
        code, payload, err = run_cli(
            capsys, "adequate-basis", tuple_file("0 0 0\n" + EXAMPLE_FULL_RANK)
        )
        assert code == 3
        assert payload["error"] == "adequate-basis scan tests 4 subsets, budget is 3"
        assert err.startswith("budget exceeded:")


class TestAudit:
    def test_all_pass(self, capsys, tuple_file):
        code, payload, err = run_cli(
            capsys, "audit", "--s", "2", tuple_file("0\n1\n1\n2\n")
        )
        assert code == 0
        assert payload["case"] == "beta"
        assert all(c["pass"] for c in payload["claims"])
        assert "all claims pass" in err

    def test_precondition_exit_two(self, capsys, tuple_file):
        code, payload, _ = run_cli(
            capsys, "audit", "--s", "2", tuple_file("0\n1\n2\n")
        )
        assert code == 2
        assert "error" in payload


class TestGenerate:
    def test_identity_type_a(self, capsys):
        code, payload, _ = run_cli(capsys, "generate", "--kind", "a", "--s", "3")
        assert code == 0
        assert payload["tuple"]["elements"] == [
            [0, 0], [0, 0], [1, 0], [1, 0], [0, 1], [0, 1],
        ]
        assert payload["spec"]["kind"] == "a"

    def test_type_b_flags(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "generate",
            "--kind", "b", "--s", "3", "--k", "1", "--breaks", "2",
            "--dim", "2", "--seed", "7", "--unimodular-bound", "3",
            "--permutation-seed", "1", "--translation", "4,-4",
        )
        assert code == 0
        assert len(payload["tuple"]["elements"]) == 6
        assert payload["spec"]["breakpoints"] == [2]
        assert payload["spec"]["translation"] == [4, -4]

    def test_invalid_spec_exit_two(self, capsys):
        code, payload, _ = run_cli(capsys, "generate", "--kind", "a", "--s", "4")
        assert code == 2
        assert "error" in payload

    def test_negative_unimodular_bound_exit_two(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "generate", "--kind", "a", "--s", "3", "--unimodular-bound", "-1",
        )
        assert code == 2
        assert "unimodular_bound" in payload["error"]

    @pytest.mark.parametrize(
        "flag, name", [("--seed", "seed"), ("--permutation-seed", "permutation_seed")]
    )
    def test_negative_seed_exit_two(self, capsys, flag, name):
        # random.Random(-7) draws what random.Random(7) draws.
        code, payload, _ = run_cli(
            capsys, "generate", "--kind", "b", "--s", "3", flag, "-7"
        )
        assert code == 2
        assert f"{name} must be >= 0" in payload["error"]


class TestEnumerate:
    def test_small_run_with_out(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, payload, err = run_cli(
            capsys,
            "enumerate",
            "--s", "2", "--q", "3", "--dim", "1", "--bound", "2",
            "--jobs", "2", "--out", str(out),
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["with_property"] == 1
        assert json.loads(out.read_text()) == payload
        assert "1 with property" in err

    def test_budget_exit_three(self, capsys, monkeypatch):
        # The cell is billed 3: its one lex survivor times C(3, 2).
        monkeypatch.setenv("ABTUPLE_BUDGET", "2")
        code, payload, _ = run_cli(
            capsys, "enumerate", "--s", "2", "--q", "3", "--dim", "1", "--bound", "1"
        )
        assert code == 3
        assert "error" in payload


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, payload, _ = run_cli(capsys, "rank", "/nonexistent/file.txt")
        assert code == 2
        assert "error" in payload

    def test_malformed_tuple(self, capsys, tuple_file):
        code, payload, _ = run_cli(capsys, "rank", tuple_file("1 2\n3\n"))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            DEEP_JSON,
            '{"dim": 1e400, "elements": [[1]]}',
            '{"dim": 1.9, "elements": [[1]]}',
            '{"dim": "1", "elements": [[1]]}',
            '{"dim": true, "elements": [[1]]}',
        ],
        ids=["deep", "inf", "float", "string", "bool"],
    )
    def test_unparsable_json_tuple_exit_two(self, capsys, tuple_file, text):
        code, payload, err = run_cli(capsys, "rank", tuple_file(text, name="t.json"))
        assert code == 2
        assert "error" in payload
        assert "Traceback" not in err

    def test_console_script_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abtuple.cli", "generate", "--kind", "a", "--s", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["spec"]["s"] == 3

    def test_import_leaves_process_pool_unloaded(self):
        # Only a multi-worker enumeration needs concurrent.futures (and with
        # it multiprocessing); importing the CLI must not pay for it.
        probe = (
            "import sys, abtuple.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', "
            "'fractions') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Fuzzing every file argument

# Keys of the tuple and certificate documents, so random objects reach past
# the first missing-key check.
DOC_KEYS = (
    "dim", "elements", "variant", "s", "t", "k", "property_holds", "scaling",
    "permutation", "breakpoints", "basis",
)
small_ints = st.integers(-3, 3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats()
    | st.text(max_size=4) | st.sampled_from(["type_a", "type_b", "rank_below"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(DOC_KEYS) | st.text(max_size=3), kids, max_size=6),
    max_leaves=16,
)


@st.composite
def tuple_rows(draw):
    dim = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(small_ints, min_size=dim, max_size=dim), max_size=8))


@st.composite
def certificate_objs(draw):
    """Documents with the certificate's keys and roughly its value types."""
    ints = st.lists(small_ints, max_size=6)
    fields = {
        "variant": st.sampled_from(["type_a", "type_b", "rank_below", "unclassified", "x"]),
        "s": st.integers(-1, 4), "t": st.integers(-1, 4), "k": st.integers(-1, 4),
        "property_holds": st.none() | st.booleans(),
        "scaling": ints, "permutation": ints, "breakpoints": ints,
        "basis": st.lists(ints, max_size=4),
    }
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    return {k: draw(fields[k]) for k in keys}


def _text_format(rows):
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


payloads = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    json_values.map(json.dumps).map(str.encode),
    tuple_rows().map(json.dumps).map(str.encode),
    tuple_rows().map(lambda rows: {"dim": len(rows[0]) if rows else 1, "elements": rows})
    .map(json.dumps).map(str.encode),
    tuple_rows().map(_text_format).map(str.encode),
    certificate_objs().map(json.dumps).map(str.encode),
)
COMMANDS = (
    "rank", "property", "classify", "verify-tuple", "verify-cert", "qbasis",
    "adequate-basis", "audit",
)


@given(
    command=st.sampled_from(COMMANDS),
    payload=payloads,
    r=st.integers(1, 6),
    s=st.integers(1, 4),
)
@example(command="rank", payload=DEEP_JSON.encode(), r=2, s=1)
@example(command="verify-cert", payload=DEEP_JSON.encode(), r=2, s=2)
@example(command="rank", payload=b'{"dim": 1.9, "elements": [[1]]}', r=2, s=1)
@example(command="rank", payload=b'{"dim": "1", "elements": [[1]]}', r=2, s=1)
@example(command="rank", payload=b'{"dim": true, "elements": [[1]]}', r=2, s=1)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_file_arguments(command, payload, r, s):
    """No input makes a subcommand raise; the exit code is always 0..3."""
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = os.path.join(tmp, "fuzzed")
        with open(fuzzed, "wb") as fh:
            fh.write(payload)
        tuple_path = os.path.join(tmp, "t.txt")
        with open(tuple_path, "w") as fh:
            fh.write("0\n0\n2\n-2\n")
        cert_path = os.path.join(tmp, "cert.json")
        with open(cert_path, "w") as fh:
            json.dump({"variant": "type_b", "s": 2, "scaling": [0],
                       "permutation": [1, 2, 3, 4], "basis": [[2]],
                       "k": 1, "breakpoints": [1]}, fh)
        argv = {
            "rank": ["rank", fuzzed],
            "property": ["property", "--r", str(r), "--s", str(s), fuzzed],
            "classify": ["classify", "--s", str(s), fuzzed],
            "verify-tuple": ["verify", "--s", str(s), fuzzed, cert_path],
            "verify-cert": ["verify", "--s", str(s), tuple_path, fuzzed],
            "qbasis": ["qbasis", fuzzed],
            "adequate-basis": ["adequate-basis", fuzzed],
            "audit": ["audit", "--s", str(s), fuzzed],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    json.loads(out.getvalue())
