"""Tests for the CLI and the report-formatting helpers."""

import pytest

from repro.cli import build_parser, main
from repro.core.paper_data import PaperValue
from repro.core.report import (
    format_comparison_row,
    format_table,
    matrix_to_text,
    ratio,
    within_factor,
)


class TestReportHelpers:
    def test_comparison_row_alignment(self):
        row = format_comparison_row("label", PaperValue(1.5), 1.4)
        assert "label" in row and "1.500" in row and "1.400" in row

    def test_provenance_marks(self):
        exact = format_comparison_row("x", PaperValue(1.0, "exact"), 1.0)
        derived = format_comparison_row("x", PaperValue(1.0, "derived"), 1.0)
        reconstructed = format_comparison_row("x", PaperValue(1.0, "reconstructed"), 1.0)
        assert "~" in derived and "?" in reconstructed
        assert "~" not in exact and "?" not in exact

    def test_missing_paper_value(self):
        row = format_comparison_row("x", None, 2.0)
        assert "--" in row

    def test_format_table_has_header_and_rows(self):
        text = format_table("Title", [("a", PaperValue(1.0), 2.0), ("b", None, 3.0)])
        assert text.startswith("Title")
        assert "paper" in text and "measured" in text
        assert text.count("\n") >= 4

    def test_matrix_to_text(self):
        text = matrix_to_text({"r1": {"c1": 1.0, "c2": 2.0}}, ["c1", "c2"], "M")
        assert "r1" in text and "1.000" in text and "2.000" in text

    def test_ratio_and_within_factor(self):
        assert ratio(2.0, PaperValue(1.0)) == 2.0
        assert within_factor(2.0, PaperValue(1.0), 2.0)
        assert not within_factor(2.1, PaperValue(1.0), 2.0)
        assert within_factor(0.5, PaperValue(1.0), 2.0)
        assert not within_factor(0.4, PaperValue(1.0), 2.0)

    def test_within_factor_zero_paper(self):
        assert within_factor(0.0, PaperValue(0.0), 2.0)
        assert not within_factor(0.1, PaperValue(0.0), 2.0)

    def test_assertable_flag(self):
        assert PaperValue(1.0, "exact").assertable
        assert PaperValue(1.0, "derived").assertable
        assert not PaperValue(1.0, "reconstructed").assertable


class TestPaperData:
    def test_table1_sums_to_roughly_100(self):
        from repro.core.paper_data import TABLE1_GROUP_FREQUENCY

        total = sum(v.value for v in TABLE1_GROUP_FREQUENCY.values())
        assert total == pytest.approx(99.93, abs=0.2)

    def test_table8_column_totals_sum_to_cpi(self):
        from repro.core.paper_data import TABLE8_COLUMN_TOTALS, TABLE8_TOTAL_CPI

        total = sum(v.value for v in TABLE8_COLUMN_TOTALS.values())
        assert total == pytest.approx(TABLE8_TOTAL_CPI.value, abs=0.001)

    def test_table2_total_consistent(self):
        from repro.core.paper_data import TABLE2_PC_CHANGING, TABLE2_TOTAL

        class_sum = sum(
            row.percent_of_instructions.value for row in TABLE2_PC_CHANGING.values()
        )
        assert class_sum == pytest.approx(TABLE2_TOTAL.percent_of_instructions.value, abs=0.5)

    def test_table6_decomposition_consistent(self):
        from repro.core.paper_data import TABLE6_SIZE

        estimate = (
            TABLE6_SIZE["opcode_bytes"].value
            + TABLE6_SIZE["specifiers_per_instruction"].value
            * TABLE6_SIZE["specifier_size"].value
            + TABLE6_SIZE["displacements_per_instruction"].value
            * TABLE6_SIZE["displacement_size"].value
        )
        assert estimate == pytest.approx(TABLE6_SIZE["total_bytes"].value, abs=0.1)

    def test_sec42_splits_sum(self):
        from repro.core.paper_data import SEC42_CACHE_TB

        assert SEC42_CACHE_TB["cache_read_misses_per_instruction"].value == pytest.approx(
            SEC42_CACHE_TB["cache_read_misses_istream"].value
            + SEC42_CACHE_TB["cache_read_misses_dstream"].value
        )
        assert SEC42_CACHE_TB["tb_misses_per_instruction"].value == pytest.approx(
            SEC42_CACHE_TB["tb_misses_dstream"].value
            + SEC42_CACHE_TB["tb_misses_istream"].value
        )


class TestCLI:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "timesharing_light" in out and "40 users" in out

    def test_diagram(self, capsys):
        assert main(["diagram"]) == 0
        out = capsys.readouterr().out
        assert "EBOX" in out and "SBI" in out

    def test_run_small_workload(self, capsys):
        assert main(["run", "educational", "--instructions", "1200", "--warmup", "400"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out and "CPI" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestCLIBoundary:
    """Bad CLI input fails at parse time: exit 2, one error line, no
    traceback and no simulation."""

    def _parse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        return errors[0]

    def test_unknown_workload_is_one_line_error(self, capsys):
        line = self._parse_error(["run", "nosuch"], capsys)
        assert "unknown workload 'nosuch'" in line
        assert "educational" in line

    @pytest.mark.parametrize("value", ["-5", "0", "ten", "1.5"])
    def test_non_positive_instructions_exit_2(self, capsys, value):
        line = self._parse_error(
            ["run", "educational", "--instructions", value], capsys
        )
        assert "--instructions" in line

    def test_negative_warmup_exits_2(self, capsys):
        line = self._parse_error(["run", "educational", "--warmup", "-1"], capsys)
        assert "--warmup" in line

    def test_other_subcommands_share_the_checks(self, capsys):
        self._parse_error(["composite", "--instructions", "-5"], capsys)
        self._parse_error(["stats", "nosuch"], capsys)
        self._parse_error(["submit", "educational", "nosuch"], capsys)

    def test_zero_warmup_is_accepted(self):
        args = build_parser().parse_args(["run", "educational", "--warmup", "0"])
        assert args.warmup == 0 and args.workload == "educational"

    @pytest.mark.parametrize("command", ["composite", "serve"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "soon"])
    def test_spec_timeout_must_be_positive_seconds(self, capsys, command, value):
        # A negative budget would expire every pooled task on dispatch;
        # zero used to mean "no timeout" without saying so.
        line = self._parse_error([command, "--spec-timeout", value], capsys)
        assert "--spec-timeout" in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["composite", "--jobs", "0"],
            ["composite", "--shards", "0"],
            ["composite", "--retries", "-1"],
            ["serve", "--jobs", "0"],
            ["serve", "--shards", "0"],
            ["serve", "--concurrency", "0"],
            ["serve", "--result-index", "0"],
            ["serve", "--retries", "-1"],
            ["sweep", "educational", "cache_kb", "8", "--jobs", "0"],
            ["stats", "--jobs", "0"],
            ["trace", "educational", "--capacity", "0"],
            ["query", "count events", "--capacity", "-1"],
            ["check", "--capacity", "0"],
            ["opcodes", "educational", "--top", "-3"],
            ["submit", "educational", "--timeout", "nan"],
            ["poll", "--timeout", "0"],
        ],
    )
    def test_count_flags_are_range_checked(self, capsys, argv):
        line = self._parse_error(argv, capsys)
        assert argv[-2] in line

    def test_in_range_counts_and_timeouts_are_accepted(self):
        args = build_parser().parse_args(
            ["composite", "--jobs", "1", "--retries", "0", "--spec-timeout", "0.5"]
        )
        assert (args.jobs, args.retries, args.spec_timeout) == (1, 0, 0.5)


class TestServiceClientFailures:
    """A client that cannot reach the service ends in one error line."""

    @staticmethod
    def _closed_port_url():
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        return "http://127.0.0.1:{}".format(port)

    @staticmethod
    def _one_error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "ERROR" in line]
        assert len(errors) == 1, err
        return errors[0]

    @pytest.mark.parametrize(
        "argv", [["submit", "educational"], ["poll"], ["poll", "--stats"]]
    )
    def test_closed_port_is_one_line_error(self, capsys, argv):
        url = self._closed_port_url()
        assert main(argv + ["--url", url]) == 1
        line = self._one_error_line(capsys)
        assert "service request failed" in line and url in line

    def test_wait_past_the_timeout_is_one_line_error(self, capsys, monkeypatch):
        from repro.service.client import ServiceClient

        def never_finishes(self, job_id, timeout=600.0, poll=0.05):
            raise TimeoutError("job {} still running after {}s".format(job_id, timeout))

        monkeypatch.setattr(
            ServiceClient, "submit_sweep", lambda self, specs, on_error: {"job": "j1"}
        )
        monkeypatch.setattr(ServiceClient, "wait", never_finishes)
        assert main(["submit", "educational", "--wait", "--timeout", "0.5"]) == 1
        line = self._one_error_line(capsys)
        assert "still running after 0.5s" in line
