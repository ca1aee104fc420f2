"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table1(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "TABLE I" in out
    assert "512KB" in out


def test_layers(capsys):
    code, out = run_cli(capsys, "layers", "resnet50")
    assert code == 0
    assert "53 convolutions" in out
    assert "conv1" in out
    assert "64x147x12544" in out


def test_encode_single_instruction(capsys):
    code, out = run_cli(capsys, "encode", "vindexmac.vx v8, v1, t0")
    assert code == 0
    assert "vindexmac.vx v8, v1, t0" in out
    assert "0x" in out


def test_encode_multiple_lines(capsys):
    code, out = run_cli(capsys, "encode",
                        "vmv.x.s t0, v2\nvindexmac.vx v8, v1, t0")
    assert code == 0
    assert out.count("0x") == 2


def test_encode_with_a_missing_operand_is_a_clean_error(capsys):
    code = main(["encode", "lui a0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: line 1: lui takes 2 operand(s)")


@pytest.mark.parametrize("backend", [None, "analytic-sampled"],
                         ids=["default", "analytic-sampled"])
def test_quickcheck(capsys, backend):
    args = ("--backend", backend) if backend else ()
    code, out = run_cli(capsys, "quickcheck", *args)
    assert code == 0
    assert "1:4" in out and "2:4" in out
    assert "FAIL" not in out
    # analytic-sampled executes nothing, so it checks no result
    checked = "results not checked" if backend else "results verified"
    assert out.count(checked) == 2


def test_quickcheck_with_an_unknown_env_backend_is_a_clean_error(
        capsys, monkeypatch):
    """``compressed-replay`` was folded into ``batch-replay``; naming it
    is an operator error, not a silent fallback."""
    monkeypatch.setenv("REPRO_BACKEND", "compressed-replay")
    code = main(["quickcheck"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: unknown timing backend 'compressed-replay'")


def test_fig4_tiny(capsys):
    code, out = run_cli(capsys, "fig4", "--policy", "tiny")
    assert code == 0
    assert "Fig. 4" in out
    assert "engine:" in out  # the engine summary trailer


def test_bench_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out = run_cli(capsys, "bench", "--artifacts", "table1", "a3",
                        "--policy", "tiny", "--out", str(out_dir))
    assert code == 0
    assert "2 artifact(s)" in out
    assert "simulations" in out
    assert "TABLE I" in (out_dir / "table1.txt").read_text()
    assert "A3" in (out_dir / "ablation_tile_rows.txt").read_text()


def test_bench_show_prints_renders(capsys, tmp_path):
    code, out = run_cli(capsys, "bench", "--artifacts", "table1",
                        "--show", "--out", str(tmp_path))
    assert code == 0
    assert "TABLE I" in out


def test_bench_rejects_unknown_artifact(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "--artifacts", "fig7", "--out", str(tmp_path)])


def test_quickcheck_parallel(capsys):
    code, out = run_cli(capsys, "quickcheck", "--jobs", "2")
    assert code == 0
    assert "FAIL" not in out


def test_tune_synthetic_writes_schedule_and_table(capsys, tmp_path):
    out = tmp_path / "tuned.json"
    table = tmp_path / "tuning.txt"
    code, text = run_cli(capsys, "tune", "--shape", "8", "32", "16",
                         "--check", "--out", str(out),
                         "--table-out", str(table))
    assert code == 0
    assert "Schedule tuning" in text
    assert "FAIL" not in text
    assert "Schedule tuning" in table.read_text()
    from repro.eval.tuning import load_tuned_schedule

    schedule = load_tuned_schedule(out)
    assert schedule.tile_rows > 0


def test_tune_rejects_bad_nm(capsys):
    code = main(["tune", "--nm", "quarter", "--shape", "8", "32", "16",
                 "--out", "", "--table-out", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: --nm expects N:M (e.g. 1:4), "
                            "got 'quarter'\n")


@pytest.mark.parametrize("argv, message", [
    (["fig4", "--scale", "tiny", "--cores", "0"],
     "--cores must be a positive core count, got 0"),
    (["submit", "--nm", "1-4"],
     "--nm expects N:M (e.g. 1:4), got '1-4'"),
], ids=["fig4-cores-0", "submit-nm-1-4"])
def test_bad_flag_values_are_clean_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fig4_accepts_tuned_schedule(capsys, tmp_path):
    import json

    from repro.kernels import Schedule

    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"schedule": Schedule().to_dict()}))
    code, out = run_cli(capsys, "fig4", "--policy", "tiny",
                        "--schedule", str(path))
    assert code == 0
    assert "Fig. 4" in out


def test_fig4_scale_flag(capsys):
    code, out = run_cli(capsys, "fig4", "--scale", "tiny")
    assert code == 0
    assert "Fig. 4" in out


def test_fig4_policy_heuristic(capsys):
    code, out = run_cli(capsys, "fig4", "--scale", "tiny",
                        "--policy", "heuristic")
    assert code == 0
    assert "Fig. 4" in out


def test_tune_per_layer_writes_book_then_fig4_runs_tuned(capsys,
                                                         tmp_path):
    book = tmp_path / "book.json"
    table = tmp_path / "table.txt"
    code, out = run_cli(capsys, "tune", "--per-layer", "--policy", "tiny",
                        "--layers", "conv2_1_3x3", "conv3_1_3x3",
                        "--check", "--book-out", str(book),
                        "--table-out", str(table))
    assert code == 0
    assert "Per-layer schedule tuning" in out
    assert "FAIL" not in out
    assert "Per-layer schedule tuning" in table.read_text()
    from repro.eval.schedules import load_schedule_book

    loaded = load_schedule_book(book)
    assert len(loaded) == 3  # 2 layers + the '*' default
    code, out = run_cli(capsys, "fig4", "--scale", "tiny",
                        "--policy", "tuned",
                        "--schedule-book", str(book))
    assert code == 0
    assert "Fig. 4" in out


def test_fig4_policy_tuned_without_book_fails_cleanly(capsys):
    code = main(["fig4", "--scale", "tiny", "--policy", "tuned"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "--schedule-book" in captured.err


def test_conflicting_policy_flags_fail_loudly(capsys, tmp_path):
    """--schedule/--schedule-book are never silently dropped."""
    book = tmp_path / "book.json"
    book.write_text('{"version": 1, "entries": []}')
    for argv in (["fig4", "--policy", "heuristic", "--schedule",
                  str(book)],
                 ["fig4", "--policy", "heuristic", "--schedule-book",
                  str(book)],
                 ["fig4", "--policy", "tuned", "--schedule-book",
                  str(book), "--schedule", str(book)],
                 ["fig4", "--policy", "fixed", "--schedule-book",
                  str(book)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "error:" in captured.err, argv


def test_missing_schedule_file_is_a_clean_error(capsys):
    code = main(["fig4", "--scale", "tiny", "--schedule",
                 "/nonexistent/schedule.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read tuned schedule" in captured.err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_bad_model_rejected():
    with pytest.raises(SystemExit):
        main(["layers", "vgg16"])
