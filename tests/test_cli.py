import json
import subprocess
import sys

import pytest

from subsetsum import InputError, InputSet
from subsetsum.cli import main, parse_instance_line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseInstanceLine:
    def test_commas_and_spaces(self):
        assert parse_instance_line("-7,-3,-2,5,8 ; 0") == InputSet((-7, -3, -2, 5, 8), 0)
        assert parse_instance_line("1 2 3;6") == InputSet((1, 2, 3), 6)

    def test_rejects_missing_target(self):
        with pytest.raises(InputError):
            parse_instance_line("1,2,3")
        with pytest.raises(InputError):
            parse_instance_line("1,2,3 ;")

    def test_rejects_empty_set(self):
        with pytest.raises(InputError):
            parse_instance_line(" ; 5")

    def test_rejects_non_integer_tokens(self):
        with pytest.raises(InputError):
            parse_instance_line("1,two,3 ; 5")
        with pytest.raises(InputError):
            parse_instance_line("1,2 ; 3;4")


class TestSolveCommand:
    def test_found_exit_zero(self, capsys):
        code, out, _ = run(capsys, "solve", "--set", "-7,-3,-2,5,8", "--target", "0")
        assert code == 0
        assert out.strip() == "FOUND: {-3, -2, 5}"

    def test_not_found_exit_one(self, capsys):
        code, out, _ = run(capsys, "solve", "--set", "5", "--target", "6")
        assert code == 1
        assert out.strip() == "NOT FOUND"

    def test_wide_mixed_sign_set(self, capsys):
        # The scaled values reach 2**61 + 1, so the whole set's scaled sum passes 2**63 - 1.
        wide = f"{-(2**60)},{2**60},1,2,3,4,5,6"
        code, out, _ = run(capsys, "solve", "--set", wide, "--target", "7")
        assert code == 0
        assert out.strip() == "FOUND: {3, 4}"

    def test_trace_shows_scaled_targets(self, capsys):
        code, out, _ = run(capsys, "solve", "--set", "-7,-3,-2,5,8", "--target", "0", "--trace")
        assert code == 0
        assert "offset 8, scaled set {1, 5, 6, 13, 16}" in out
        lines = out.splitlines()
        assert any(line.startswith("order 1: scaled target 8,") and line.endswith("miss") for line in lines)
        assert any(line.startswith("order 2: scaled target 16,") and line.endswith("miss") for line in lines)
        assert any(line.startswith("order 3: scaled target 24,") and line.endswith("hit") for line in lines)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("--set", "-7,-3,-2,5,8", "--target", "0"),
                [
                    "offset 8, scaled set {1, 5, 6, 13, 16}",
                    "order 1: scaled target 8, ranks probed [3, 4, 4], miss",
                    "order 2: scaled target 16, ranks probed [5, 3, 4, 5], miss",
                    "order 3: scaled target 24, ranks probed [5, 8, 7, 6, 6], hit",
                    "FOUND: {-3, -2, 5}",
                ],
            ),
            (
                ("--set", "2,5,7", "--target", "13"),
                [
                    "offset 0, scaled set {2, 5, 7}",
                    "order 1: scaled target 13, ranks probed [], miss",
                    "order 2: scaled target 13, ranks probed [], miss",
                    "order 3: scaled target 13, ranks probed [], miss",
                    "NOT FOUND",
                ],
            ),
            (
                ("--set", "2,5,7", "--target", "9", "--positive-fast-path"),
                [
                    "offset 0, scaled set {2, 5, 7}",
                    "powerset: scaled target 9, ranks probed [4, 6, 5, 5], hit",
                    "FOUND: {2, 7}",
                ],
            ),
        ],
    )
    def test_trace_pins_every_probed_rank(self, capsys, argv, expected):
        code, out, _ = run(capsys, "solve", *argv, "--trace")
        assert code == (0 if expected[-1].startswith("FOUND") else 1)
        assert out.splitlines() == expected

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "solve", "--set", "-7,-3,-2,5,8", "--target", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "found", "subset", "orders_searched", "probes_per_order", "nodes_expanded", "elapsed_ns",
        }
        assert payload["found"] is True
        assert payload["subset"] == [-3, -2, 5]
        assert payload["orders_searched"] == 3

    def test_json_not_found(self, capsys):
        code, out, _ = run(capsys, "solve", "--set", "5", "--target", "6", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["found"] is False
        assert payload["subset"] is None

    def test_json_with_trace_keeps_stdout_single_object(self, capsys):
        code, out, err = run(
            capsys, "solve", "--set", "-7,-3,-2,5,8", "--target", "0", "--json", "--trace"
        )
        assert code == 0
        json.loads(out)
        assert "scaled target 24" in err

    def test_text_and_json_agree(self, capsys):
        for argv_extra, key in (((), None), (("--json",), "found")):
            code, out, _ = run(capsys, "solve", "--set", "1,2,4", "--target", "7", *argv_extra)
            assert code == 0
            if key:
                assert json.loads(out)[key] is True
            else:
                assert out.startswith("FOUND")

    def test_positive_fast_path(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--set", "2,5,7", "--target", "9", "--positive-fast-path"
        )
        assert code == 0
        assert out.strip() == "FOUND: {2, 7}"

    def test_positive_fast_path_rejects_negatives(self, capsys):
        code, _, err = run(
            capsys, "solve", "--set", "-1,5", "--target", "4", "--positive-fast-path"
        )
        assert code == 2
        assert "solve" in err

    def test_file_mode(self, capsys, tmp_path):
        path = tmp_path / "instances.txt"
        path.write_text("-7,-3,-2,5,8 ; 0\n\n2 5 7 ; 9\n")
        code, out, _ = run(capsys, "solve", "--file", str(path))
        assert code == 0
        assert out.splitlines() == ["FOUND: {-3, -2, 5}", "FOUND: {2, 7}"]

    def test_file_mode_any_miss_exits_one(self, capsys, tmp_path):
        path = tmp_path / "instances.txt"
        path.write_text("2,5,7 ; 9\n5 ; 6\n")
        code, out, _ = run(capsys, "solve", "--file", str(path))
        assert code == 1
        assert out.splitlines() == ["FOUND: {2, 7}", "NOT FOUND"]

    def test_malformed_file_line_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2,3\n")
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe1,2 ; 3\n")
        code, out, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text")

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1,2 ; 3\n")
        code, out, _ = run(capsys, "solve", "--file", str(path))
        assert code == 0
        assert out.strip() == "FOUND: {1, 2}"

    def test_file_parse_error_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 ; 6\n\n1 2 x ; 4\n")
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert err.strip() == f"error: {path}, line 3: not an integer: 'x'"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "solve", "--file", "/nonexistent/instances.txt")
        assert code == 2
        assert "error:" in err

    def test_missing_flags_exit_two(self, capsys):
        code, _, err = run(capsys, "solve", "--set", "1,2")
        assert code == 2

    def test_bad_set_tokens_exit_two(self, capsys):
        code, _, err = run(capsys, "solve", "--set", "1,x,3", "--target", "2")
        assert code == 2
        assert "not an integer" in err


class TestBenchCommand:
    def test_row_count_matches_trials(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "8", "--trials", "3", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,trial,target,found,orders,probes_total,nodes_expanded,elapsed_ns"
        assert len(lines) == 1 + 3

    def test_unreachable_mode_forces_worst_case(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--n", "5", "--trials", "4", "--target-mode", "unreachable"
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert fields[3] == "false"
            assert fields[4] == "5"

    def test_deterministic_for_fixed_seed(self, capsys):
        # byte-identical apart from the wall-clock elapsed_ns column
        def stripped(text):
            return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

        _, first, _ = run(capsys, "bench", "--n", "10", "--seed", "7", "--trials", "5")
        _, second, _ = run(capsys, "bench", "--n", "10", "--seed", "7", "--trials", "5")
        assert stripped(first) == stripped(second)

    def test_size_range(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "3..5", "--trials", "2", "--seed", "1")
        assert code == 0
        sizes = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert sizes == ["3", "3", "4", "4", "5", "5"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--n", "0"),
            ("bench", "--n", "5..3"),
            ("bench", "--n", "x"),
            ("bench", "--n", "5", "--range", "10:1"),
            ("bench", "--n", "5", "--range", "0:0"),
            ("bench", "--n", "5", "--range", "nope"),
            ("bench", "--n", "5", "--trials", "0"),
            ("bench", "--n", "5", "--target-mode", "sideways"),
            ("bench",),
        ],
    )
    def test_invalid_flags_exit_two(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


class TestSelftestCommand:
    def test_small_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-n", "6", "--instances", "100")
        assert code == 0
        assert out == (
            "ok solver-vs-dp: 100 random instances agree\n"
            "ok subset-tree completeness: all lengths up to N=6\n"
            "ok powerset completeness: all sets up to N=6\n"
            "ok heap order: parent sums <= child sums up to N=6\n"
            "selftest: 4/4 suites passed\n"
        )

    def test_tree_walks_stop_at_twelve(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-n", "14", "--instances", "10")
        assert code == 0
        assert out == (
            "ok solver-vs-dp: 10 random instances agree\n"
            "ok subset-tree completeness: all lengths up to N=12\n"
            "ok powerset completeness: all sets up to N=12\n"
            "ok heap order: parent sums <= child sums up to N=12\n"
            "selftest: 4/4 suites passed\n"
        )

    def test_corrupted_build_fails(self, capsys, monkeypatch):
        import subsetsum.cli as cli_module

        monkeypatch.setattr(cli_module, "dp_decision", lambda instance: False)
        code, out, _ = run(capsys, "selftest", "--max-n", "5", "--instances", "200")
        assert code == 1
        assert "FAIL solver-vs-dp" in out

    @pytest.mark.parametrize(
        "generator, suite",
        [("subtree_children", "subset-tree completeness"), ("binheap_children", "powerset completeness")],
    )
    def test_dropped_child_fails(self, capsys, monkeypatch, generator, suite):
        import subsetsum.checks as checks_module

        original = getattr(checks_module, generator)
        monkeypatch.setattr(checks_module, generator, lambda node, *args, **kw: original(node, *args, **kw)[1:])
        code, out, _ = run(capsys, "selftest", "--max-n", "5", "--instances", "10")
        assert code == 1
        assert f"FAIL {suite}" in out

    @pytest.mark.parametrize(
        "generator, tree", [("subtree_children", "subset-tree"), ("binheap_children", "powerset")]
    )
    def test_heap_order_inversion_fails(self, capsys, monkeypatch, generator, tree):
        import subsetsum.checks as checks_module

        original = getattr(checks_module, generator)

        def below_parent(node, *args, **kw):
            return [child._replace(cached_sum=node.cached_sum - 1) for child in original(node, *args, **kw)]

        monkeypatch.setattr(checks_module, generator, below_parent)
        code, out, _ = run(capsys, "selftest", "--max-n", "5", "--instances", "10")
        lines = out.splitlines()
        assert code == 1
        assert "ok subset-tree completeness: all lengths up to N=5" in lines
        assert "ok powerset completeness: all sets up to N=5" in lines
        assert any(line.startswith(f"FAIL {tree} heap order: set=") for line in lines), out
        assert lines[-1] == "selftest: 3/4 suites passed"

    def test_tree_checks_survive_optimize(self):
        # The selftest checks are plain comparisons, not assert statements,
        # so python -O must still report a broken tree.
        code = (
            "import sys\n"
            "import subsetsum.checks as checks\n"
            "from subsetsum.cli import main\n"
            "checks.subtree_children = lambda node, tree: []\n"
            "sys.exit(main(['selftest', '--max-n', '4', '--instances', '5']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL subset-tree completeness" in proc.stdout

    def test_invalid_flags_exit_two(self, capsys):
        code, _, _ = run(capsys, "selftest", "--max-n", "0")
        assert code == 2


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "solve" in out and "bench" in out and "selftest" in out
