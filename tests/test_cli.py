"""Tests for the command line interface.

Output determinism is checked byte for byte across separate processes
with different hash seeds, and the exit code contract is pinned for
success, failed verification, invalid parameters, and blown caps.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from galela import VerificationError, cli


SELFTEST_SHA256 = "057ea3b0742add06be83912c2d83226bb1ad584fe45c82ca7ee3882818a9cd88"


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "galela.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestField:
    def test_table_output(self):
        r = run_cli("field", "--p", "2", "--h", "4")
        assert r.returncode == 0
        assert "x^4 + x + 1" in r.stdout
        assert "16" in r.stdout

    def test_json_output(self):
        r = run_cli("field", "--p", "2", "--h", "4", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["p"] == 2
        assert payload["h"] == 4
        assert payload["order"] == 16
        assert payload["modulus"] == [1, 1, 0, 0, 1]
        assert payload["generator"] == 2

    def test_rejects_non_prime(self):
        r = run_cli("field", "--p", "4", "--h", "2")
        assert r.returncode == 2
        assert r.stderr.strip()

    def test_field_order_cap_exit_code(self):
        r = run_cli("field", "--p", "2", "--h", "30")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()


class TestCensus:
    def test_small_case(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["totals"]["orbits"] == 3
        assert payload["totals"]["free_orbits"] == 2
        assert payload["totals"]["subspaces"] == 35
        assert payload["predicted"] == {"eq2": 3, "eq3": 2}
        assert sorted(o["size"] for o in payload["orbits"]) == [5, 15, 15]
        assert sum(o["is_spread"] for o in payload["orbits"]) == 1

    def test_table_mentions_predictions(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2")
        assert r.returncode == 0
        assert "3" in r.stdout

    def test_deterministic_across_processes(self):
        outs = [
            run_cli(
                "census", "--s", "6", "--t", "2", "--q", "2", "--json",
                env_extra={"PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "31337")
        ]
        assert outs[0] == outs[1]

    def test_cap_exceeded_exit_code(self):
        r = run_cli("census", "--s", "6", "--t", "3", "--q", "2", "--cap", "100")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()

    def test_subspace_cap_env_exit_code(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2",
                    env_extra={"GALELA_CAP_SUBSPACES": "10"})
        assert r.returncode == 3


class TestCount:
    def test_spot_values(self):
        r = run_cli("count", "--p", "2", "--h", "4", "--m", "2", "--n", "1", "--json")
        payload = json.loads(r.stdout)
        assert payload["count"] == 3
        r = run_cli(
            "count", "--p", "2", "--h", "4", "--m", "2", "--n", "1",
            "--minimal", "--json",
        )
        assert json.loads(r.stdout)["count"] == 2

    def test_invalid_parameters_exit_code(self):
        r = run_cli("count", "--p", "2", "--h", "4", "--m", "2", "--n", "3")
        assert r.returncode == 2
        assert "divide" in r.stderr


class TestClassify:
    def test_lists_classes(self):
        r = run_cli("classify", "--p", "2", "--h", "4", "--m", "2", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert len(payload["classes"]) == 3
        assert sorted(c["size"] for c in payload["classes"]) == [5, 15, 15]

    def test_subspace_cap_env_exit_code(self):
        r = run_cli(
            "classify", "--p", "2", "--h", "4", "--m", "2",
            env_extra={"GALELA_CAP_SUBSPACES": "10"},
        )
        assert r.returncode == 3


class TestVerify:
    def test_correspondence(self):
        r = run_cli(
            "verify", "correspondence", "--p", "2", "--h", "4", "--m", "2",
            "--n", "2", "--json",
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["bijection"] is True

    def test_lemma1_small(self):
        r = run_cli("verify", "lemma1", "--r", "2", "--p", "2", "--h", "2", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["equivalent_pairs"] == 7
        assert payload["inequivalent_pairs"] == 3
        assert payload["group_order"] == 60

    @pytest.mark.parametrize("r", ["1", "0"])
    def test_lemma1_small_r_exit_code(self, r):
        out = run_cli("verify", "lemma1", "--r", r, "--p", "2", "--h", "2")
        assert out.returncode == 2
        assert "need r >= 2" in out.stderr

    def test_lemma1_cap_exceeded_exit_code(self):
        r = run_cli("verify", "lemma1", "--r", "3", "--p", "2", "--h", "2", "--cap", "100")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()

    def test_bruckbose(self):
        r = run_cli(
            "verify", "bruckbose", "--r", "2", "--p", "3", "--h", "2", "--n", "1",
            "--json",
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_bruckbose_cap_exceeded_exit_code(self):
        r = run_cli("verify", "bruckbose", "--r", "2", "--p", "3", "--h", "2", "--n", "1",
                    "--cap", "1")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()

    def test_failed_verification_exit_code(self, monkeypatch, capsys):
        # force a counterexample to pin the exit code and output channel
        def boom(*a, **k):
            raise VerificationError("forced failure", {"witness": [1, 2, 3]})

        monkeypatch.setattr(cli.elation, "verify_correspondence", boom)
        code = cli.main(
            ["verify", "correspondence", "--p", "2", "--h", "4", "--m", "2", "--n", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["error"] == "verification failure"
        assert payload["message"] == "forced failure"
        assert payload["details"] == {"witness": [1, 2, 3]}


class TestParser:
    def test_missing_subcommand(self):
        r = run_cli()
        assert r.returncode == 2

    def test_unknown_subcommand(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["field", "--p", "2", "--h", "2"],
        ["census", "--s", "4", "--t", "2", "--q", "2"],
        ["count", "--p", "2", "--h", "4", "--m", "2"],
        ["classify", "--p", "2", "--h", "4", "--m", "2"],
        ["verify", "correspondence", "--p", "2", "--h", "4", "--m", "2", "--n", "1"],
        ["verify", "lemma1", "--r", "2", "--p", "2", "--h", "2"],
        ["verify", "bruckbose", "--r", "2", "--p", "3", "--h", "2", "--n", "1"],
    ])
    def test_negative_cap_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + ["--cap", "-1"])
        assert exc.value.code == 2
        assert "cap" in capsys.readouterr().err

    def test_no_abbreviations(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2", "--jso")
        assert r.returncode == 2


class TestSelftest:
    def test_runs_clean(self):
        r = run_cli("selftest", timeout=300)
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"] is True

    def test_canonical_digest_in_process(self, capsys):
        # the canonical stdout is pinned byte for byte; run in the test
        # process, it must not depend on caches earlier tests have filled
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SHA256
