"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = [
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ]
        commands = set(subactions[0].choices)
        assert commands == {"info", "figures", "airfoil", "heat", "translate", "dist"}

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["airfoil", "--iters", "-1"],
            ["airfoil", "--iters", "0"],
            ["airfoil", "--threads", "0"],
            ["airfoil", "--workers", "-2"],
            ["heat", "--steps", "-1"],
            ["translate", "--chunk", "0"],
            ["dist", "--iters", "-1"],
            ["dist", "--ranks", "0"],
            ["dist", "--threads-per-rank", "0"],
            ["dist", "--iters", "two"],
        ],
        ids=" ".join,
    )
    def test_bad_count_exits_2_before_running(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and argv[1] in captured.err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        assert "hpx_dataflow" in out

    def test_airfoil_small(self, capsys):
        rc = main(
            ["airfoil", "--ni", "16", "--nj", "6", "--iters", "2",
             "--backend", "openmp", "--block-size", "16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rms" in out and "c_d" in out

    def test_heat_small(self, capsys):
        rc = main(["heat", "--ni", "16", "--nj", "8", "--steps", "20",
                   "--backend", "seq"])
        assert rc == 0
        assert "energy" in capsys.readouterr().out

    def test_translate_to_stdout(self, capsys):
        assert main(["translate", "--target", "openmp"]) == 0
        out = capsys.readouterr().out
        assert "def op_par_loop_save_soln(" in out

    def test_translate_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "gen.py"
        assert main(
            ["translate", "--target", "seq", "--output", str(out_file)]
        ) == 0
        assert out_file.exists()
        assert "op_par_loop_update" in out_file.read_text()

    def test_translate_custom_input(self, tmp_path, capsys):
        src = tmp_path / "app.py"
        src.write_text(
            'op_par_loop(k, "solo", s, op_arg_dat(d, -1, OP_ID, OP_READ))\n'
        )
        assert main(["translate", "--input", str(src)]) == 0
        assert "op_par_loop_solo" in capsys.readouterr().out

    def test_dist_small(self, capsys):
        rc = main(["dist", "--ranks", "2", "--ni", "24", "--nj", "12",
                   "--iters", "2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlapped" in out

    def test_figures_subset_quick(self, capsys):
        rc = main(["figures", "--quick", "--only", "17"])
        out = capsys.readouterr().out
        assert "fig17" in out
        assert rc in (0, 1)  # claim table only printed for full sets

    def test_figures_unknown_figure(self, capsys):
        assert main(["figures", "--only", "99"]) == 2


class TestObservabilityFlags:
    def test_airfoil_threads_trace_and_timing(self, tmp_path, capsys):
        import json

        trace = tmp_path / "airfoil.json"
        rc = main(
            ["airfoil", "--ni", "16", "--nj", "6", "--iters", "2",
             "--mode", "threads", "--workers", "2", "--block-size", "16",
             "--timing", "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "res_calc" in out  # the timing table
        assert "utilization" in out
        assert f"to {trace}" in out
        events = json.loads(trace.read_text())
        kinds = {
            e["args"]["kind"] for e in events
            if e.get("ph") == "X" and "kind" in e.get("args", {})
        }
        # The default backend (hpx_dataflow) is dependency-scheduled in
        # threads mode: chunk releases replace per-color barriers, so the
        # trace carries "release" spans and no "color" spans.
        assert {"loop", "task", "release"} <= kinds
        assert "pool:" in out and "color joins" in out

    def test_heat_sim_trace_and_timing(self, tmp_path, capsys):
        import json

        trace = tmp_path / "heat.json"
        rc = main(
            ["heat", "--ni", "16", "--nj", "8", "--steps", "10",
             "--backend", "openmp", "--timing", "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim busy" in out  # simulated per-loop table
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        loops = {
            e["args"].get("loop") for e in events if e.get("ph") == "X"
        }
        assert "flux" in loops

    def test_timing_without_trace_writes_no_file(self, tmp_path, capsys):
        rc = main(
            ["airfoil", "--ni", "16", "--nj", "6", "--iters", "1",
             "--mode", "threads", "--workers", "1", "--block-size", "16",
             "--timing"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "op_timing_output" in out
        assert list(tmp_path.iterdir()) == []
