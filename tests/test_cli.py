"""Command-line surface: config parsing, dotted overrides, CSV schema,
SVG well-formedness, exit codes, and byte determinism."""

import configparser
import csv
import io
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from atomvol import (
    AtomModel,
    MarketSlice,
    smile_bounds,
    smile_dmhj,
    smile_leading,
    smile_three_term_atom,
    smile_three_term_G,
    smile_three_term_pT,
)
from atomvol.cev import CevModel, CevParams
from atomvol.cli import COLUMNS, _emit_csv, main
from atomvol.errors import DomainError
from atomvol.svgplot import Series, render_plot

CEV_CONFIG = """\
[model]
type = cev
s0 = 0.05
sigma = 0.2
rho = 0.6
t = 1.2

[grid]
k_min = -6
k_max = -2
n_points = 5
"""

ATOM_CONFIG = """\
[model]
type = atom
m_t = 0.0707
t = 1.2
x0 = 1.0

[grid]
k_min = -8
k_max = -2
n_points = 4
"""


# a p_tilde table for ATOM_CONFIG, and spellings of it that read the same;
# tools/cli_digest.py reads both literals from this file
P_TILDE_TABLE = "1e-9,0.0\n1e-3,0.01\n1.0,0.2\n"
P_TILDE_VARIANTS = {
    "unsorted": "1.0,0.2\n1e-9,0.0\n1e-3,0.01\n",
    "comments": "# u, p_tilde\n1e-9,0.0\n  # indented\n\n1e-3,0.01\n1.0,0.2\n",
    "third_column": "1e-9,0.0,a\n1e-3,0.01,7\n1.0,0.2,\n",
    "spaces": " 1e-9 , 0.0\n1e-3,\t0.01 \n  1.0,0.2  \n",
    "quoted": '"1e-9","0.0"\n"1e-3",0.01\n1.0,"0.2"\n',
    "crlf": "1e-9,0.0\r\n1e-3,0.01\r\n1.0,0.2\r\n",
}


@pytest.fixture
def cev_config(tmp_path):
    path = tmp_path / "cev.ini"
    path.write_text(CEV_CONFIG)
    return str(path)


@pytest.fixture
def atom_config(tmp_path):
    path = tmp_path / "atom.ini"
    path.write_text(ATOM_CONFIG)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestMass:
    def test_prints_mass_and_gamma_args(self, capsys, cev_config):
        code, out, _ = run_cli(capsys, ["mass", "--config", cev_config])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("m_T = ")
        assert float(lines[0].split("=")[1]) == pytest.approx(
            4.767477628113083e-3, rel=1e-10
        )
        assert lines[1].startswith("gamma_shape = ")
        assert float(lines[1].split("=")[1]) == pytest.approx(1.25, rel=1e-12)
        assert lines[2].startswith("gamma_argument = ")

    def test_matches_library_call(self, capsys, cev_config, printed_model):
        _, out, _ = run_cli(capsys, ["mass", "--config", cev_config])
        reported = float(out.strip().splitlines()[0].split("=")[1])
        assert reported == printed_model.mass

    def test_override_changes_result(self, capsys, cev_config):
        code, out, _ = run_cli(
            capsys, ["mass", "--config", cev_config, "--model.sigma=0.4"]
        )
        assert code == 0
        reported = float(out.strip().splitlines()[0].split("=")[1])
        assert reported > 0.01  # much larger mass at doubled vol

    def test_beta_alias(self, capsys, tmp_path):
        path = tmp_path / "beta.ini"
        path.write_text(CEV_CONFIG.replace("rho = 0.6", "beta = 0.6"))
        code, out, _ = run_cli(capsys, ["mass", "--config", str(path)])
        assert code == 0
        assert float(out.strip().splitlines()[0].split("=")[1]) == pytest.approx(
            4.767477628113083e-3, rel=1e-10
        )


class TestSmile:
    def test_header_schema(self, capsys, cev_config):
        code, out, _ = run_cli(capsys, ["smile", "--config", cev_config])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == COLUMNS
        assert len(rows) == 5

    def test_mc_and_oracle_columns_empty(self, capsys, cev_config):
        _, out, _ = run_cli(capsys, ["smile", "--config", cev_config])
        header, rows = parse_csv(out)
        for row in rows:
            record = dict(zip(header, row))
            assert record["exact_iv"] == ""
            assert record["mc_iv"] == ""
            assert record["three_term_atom"] != ""
            assert record["three_term_G"] != ""

    def test_half_mass_dmhj_reduces_to_leading_term(self, capsys, tmp_path):
        path = tmp_path / "half.ini"
        path.write_text(ATOM_CONFIG.replace("m_t = 0.0707", "m_t = 0.5"))
        _, out, _ = run_cli(capsys, ["smile", "--config", str(path)])
        header, rows = parse_csv(out)
        for row in rows:
            record = dict(zip(header, row))
            k = float(record["k"])
            assert float(record["dmhj"]) == pytest.approx(
                math.sqrt(2.0 * abs(k) / 1.2), rel=1e-12
            )

    def test_zero_ptilde_table_matches_atom_column(self, capsys, tmp_path):
        table = tmp_path / "pt.csv"
        table.write_text("1e-9,0.0\n1.0,0.0\n")
        path = tmp_path / "zero_pt.ini"
        path.write_text(ATOM_CONFIG)
        _, out, _ = run_cli(
            capsys,
            ["smile", "--config", str(path), f"--model.p_tilde_csv={table}"],
        )
        header, rows = parse_csv(out)
        for row in rows:
            record = dict(zip(header, row))
            assert record["three_term_pT"] != ""
            assert float(record["three_term_pT"]) == pytest.approx(
                float(record["three_term_atom"]), rel=1e-12
            )

    def test_tabulated_ptilde_feeds_pt_column(self, capsys, tmp_path, printed_model):
        # dump the CEV continuous CDF at the grid strikes, feed it back as
        # a table, and check the pT column reproduces the library value
        import math as _math

        from atomvol import smile_three_term_pT
        from atomvol.wing import AtomModel

        grid_k = [-6.0, -5.0, -4.0, -3.0, -2.0]
        us = [_math.exp(k) for k in grid_k]
        table = tmp_path / "pt_cev.csv"
        table.write_text(
            "".join(f"{u!r},{printed_model.p_tilde(u * 0.05)!r}\n" for u in us)
        )
        path = tmp_path / "cev_as_atom.ini"
        path.write_text(
            "[model]\n"
            "type = atom\n"
            f"m_t = {printed_model.mass!r}\n"
            "t = 1.2\n"
            "x0 = 0.05\n"
            f"p_tilde_csv = {table}\n\n"
            "[grid]\n"
            "k_min = -6\n"
            "k_max = -2\n"
            "n_points = 5\n"
        )
        _, out, _ = run_cli(capsys, ["smile", "--config", str(path)])
        header, rows = parse_csv(out)
        market = printed_model.market()
        for row in rows:
            record = dict(zip(header, row))
            K = float(record["K"])
            # table nodes coincide with the grid, so interpolation is exact
            model = AtomModel(
                mass=printed_model.mass,
                p_tilde=lambda u: printed_model.p_tilde(u * 0.05),
            )
            expected = smile_three_term_pT(market, K, model)
            assert float(record["three_term_pT"]) == pytest.approx(expected, rel=1e-9)


class TestBounds:
    def test_band_only(self, capsys, cev_config, reference_sigma):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--config", cev_config, f"--model.sigma={reference_sigma!r}"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        n_filled = 0
        for row in rows:
            record = dict(zip(header, row))
            assert record["three_term_atom"] == ""
            # shallow strikes carry empty per-row domain markers
            assert (record["lower"] == "") == (float(record["k"]) > -3.5)
            if record["lower"] != "":
                assert float(record["lower"]) < float(record["upper"])
                n_filled += 1
        assert n_filled == 3

    def test_undefined_lower_serializes_empty(self, capsys, cev_config):
        # tiny mass at the documented sigma: the deflated level is out of range
        _, out, _ = run_cli(capsys, ["bounds", "--config", cev_config])
        header, rows = parse_csv(out)
        assert all(dict(zip(header, row))["lower"] == "" for row in rows)


class TestCompare:
    def test_oracle_and_error_columns(self, capsys, cev_config):
        code, out, _ = run_cli(capsys, ["compare", "--config", cev_config])
        assert code == 0
        header, rows = parse_csv(out)
        for row in rows:
            record = dict(zip(header, row))
            exact = float(record["exact_iv"])
            assert exact > 0.0
            err = abs(float(record["three_term_atom"]) - exact)
            assert float(record["err_three_term"]) == pytest.approx(err, rel=1e-12)

    def test_requires_cev(self, capsys, atom_config):
        code, _, err = run_cli(capsys, ["compare", "--config", atom_config])
        assert code == 2
        assert "config error" in err

    def test_mc_columns_when_requested(self, capsys, cev_config):
        code, out, _ = run_cli(
            capsys,
            [
                "compare",
                "--config",
                cev_config,
                "--mc.n_paths=4000",
                "--mc.n_steps=40",
                "--mc.seed=11",
            ],
        )
        assert code == 0
        header, rows = parse_csv(out)
        filled = [dict(zip(header, row))["mc_iv"] for row in rows]
        assert any(cell != "" for cell in filled)


class TestCommandsAgree:
    def test_smile_and_bounds_cells_match_compare(
        self, capsys, cev_config, reference_sigma
    ):
        # the band is defined only on the deeper part of this grid
        argv = [
            "--config",
            cev_config,
            f"--model.sigma={reference_sigma!r}",
            "--grid.k_min=-10",
            "--grid.k_max=-2",
            "--grid.n_points=17",
        ]
        tables = {}
        for command in ("smile", "bounds", "compare"):
            code, out, _ = run_cli(capsys, [command, *argv])
            assert code == 0
            header, rows = parse_csv(out)
            tables[command] = [dict(zip(header, row)) for row in rows]
        lower = [record["lower"] for record in tables["compare"]]
        assert "" in lower and any(cell != "" for cell in lower)
        for command in ("smile", "bounds"):
            for record, full in zip(tables[command], tables["compare"]):
                for name, cell in record.items():
                    if cell != "":
                        assert cell == full[name], (command, name, record["k"])


def _per_strike_reference(command, market, atom, K, cev_model=None):
    """The cells of one row built from the scalar smile_* calls, None where
    a call raises DomainError; the columns a command leaves out are None."""

    def attempt(fn):
        try:
            return fn()
        except DomainError:
            return None

    cells = dict.fromkeys(COLUMNS)
    if command in ("smile", "compare"):
        cells["three_term_atom"] = attempt(lambda: smile_three_term_atom(market, K, atom.mass))
        cells["three_term_G"] = attempt(lambda: smile_three_term_G(market, K, atom))
        cells["dmhj"] = attempt(lambda: smile_dmhj(market, K, atom.mass))
        if atom.p_tilde is not None:
            cells["three_term_pT"] = attempt(lambda: smile_three_term_pT(market, K, atom))
        if atom.put is not None:
            cells["leading"] = attempt(
                lambda: smile_leading(market, K, atom.put(K / market.x0) * market.x0)
            )
    if command in ("bounds", "compare"):
        cells["lower"], cells["upper"] = attempt(lambda: smile_bounds(market, K, atom)) or (None, None)
    if command == "compare":
        # compare inverts the put price that feeds leading and G
        cells["exact_iv"] = exact = cev_model.put_implied_vol(K, atom.put(K / market.x0) * market.x0)
        for err, approx in (("err_three_term", "three_term_atom"), ("err_dmhj", "dmhj")):
            if cells[approx] is not None:
                cells[err] = abs(cells[approx] - exact)
    return cells


class TestEmptyCells:
    """The grid path leaves exactly the cells empty that the scalar smile_*
    calls refuse, and fills the others with the same values."""

    def check(self, capsys, command, argv, market, atom, k_grid, cev_model=None):
        code, out, _ = run_cli(capsys, [command, *argv])
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == len(k_grid)
        empty = set()
        for row, k in zip(rows, k_grid):
            record = dict(zip(header, row))
            K = float(record["K"])
            assert K == market.x0 * math.exp(k)
            ref = _per_strike_reference(command, market, atom, K, cev_model)
            for name in COLUMNS[2:]:
                want = "" if ref[name] is None else f"{ref[name]:.17g}"
                assert record[name] == want, (command, name, k)
                if want == "":
                    empty.add(name)
        return empty

    def test_atom_grid_with_nan_table_row(self, capsys, tmp_path):
        # p_tilde interpolates through nan between 1e-12 and 1e-3; at the
        # shallow end (k > about -3) the deflated level is out of range
        table = tmp_path / "pt_nan.csv"
        table.write_text("1e-12,0.001\n1e-6,nan\n1e-3,0.01\n1.0,0.2\n")
        path = tmp_path / "atom.ini"
        path.write_text(ATOM_CONFIG)
        argv = ["--config", str(path), f"--model.p_tilde_csv={table}",
                "--grid.k_min=-40", "--grid.k_max=-0.5", "--grid.n_points=27"]
        us, ps = np.array([1e-12, 1e-6, 1e-3, 1.0]), np.array([0.001, math.nan, 0.01, 0.2])
        atom = AtomModel(mass=0.0707, p_tilde=lambda u: float(np.interp(u, us, ps, left=0.0, right=ps[-1])))
        market = MarketSlice(x0=1.0, T=1.2)
        k_grid = np.linspace(-40.0, -0.5, 27).tolist()
        empty = self.check(capsys, "smile", argv, market, atom, k_grid)
        assert {"three_term_pT", "leading"} <= empty
        assert "three_term_atom" not in empty
        empty = self.check(capsys, "bounds", argv, market, atom, k_grid)
        assert "lower" in empty

    def test_cev_compare_shallow_and_deep(self, capsys, cev_config, reference_sigma):
        argv = ["--config", cev_config, f"--model.sigma={reference_sigma!r}",
                "--grid.k_min=-12", "--grid.k_max=-1", "--grid.n_points=12"]
        model = CevModel(CevParams(s0=0.05, sigma=reference_sigma, rho=0.6, T=1.2))
        k_grid = np.linspace(-12.0, -1.0, 12).tolist()
        empty = self.check(capsys, "compare", argv, model.market(), model.atom_model(), k_grid, model)
        assert "lower" in empty and "upper" in empty


class TestMc:
    def test_rows_and_summary(self, capsys, cev_config):
        code, out, err = run_cli(
            capsys,
            [
                "mc",
                "--config",
                cev_config,
                "--mc.n_paths=4000",
                "--mc.n_steps=40",
                "--mc.seed=11",
            ],
        )
        assert code == 0
        assert "absorbed_fraction = " in err
        header, rows = parse_csv(out)
        assert header == COLUMNS
        record = dict(zip(header, rows[0]))
        assert record["three_term_atom"] == ""

    def test_requires_mc_section(self, capsys, cev_config):
        code, _, err = run_cli(capsys, ["mc", "--config", cev_config])
        assert code == 2

    def test_underflowing_mass_does_not_stop_mc(self, capsys, cev_config):
        # at sigma 0.015 the mass rounds to 0 (test_numerical_failure_exit_code),
        # but the simulation reads no mass
        code, out, err = run_cli(
            capsys,
            ["mc", "--config", cev_config, "--model.sigma=0.015",
             "--mc.n_paths=4000", "--mc.n_steps=40", "--mc.seed=11"],
        )
        assert code == 0
        assert err == "absorbed_fraction = 0 (0 of 4000 paths)\n"
        header, rows = parse_csv(out)
        assert header == COLUMNS
        assert len(rows) == 5

    @pytest.mark.parametrize("command", ["mass", "smile", "bounds", "compare"])
    def test_underflowing_mass_stops_the_other_commands(self, capsys, cev_config, command):
        code, out, err = run_cli(capsys, [command, "--config", cev_config, "--model.sigma=0.015"])
        assert (code, out) == (3, "")
        assert err == "numerical failure: mass must lie in (0, 1), got 0.0\n"


class TestEmitCsv:
    def test_matches_csv_writer_reference(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        # each value in every column, then a row of empty cells; "put" is not printed
        table = {name: np.array([*np.roll(values, i), math.nan]) for i, name in enumerate([*COLUMNS, "put"])}
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in zip(*(table[name].tolist() for name in COLUMNS)):
            writer.writerow([f"{v:.17g}" if math.isfinite(v) else "" for v in row])
        assert _emit_csv(table) == reference.getvalue()


class TestSvg:
    def test_well_formed_and_has_curves(self, capsys, cev_config, tmp_path):
        out_path = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            capsys,
            ["compare", "--config", cev_config, "--format", "svg", "--out", str(out_path)],
        )
        assert code == 0
        doc = out_path.read_text()
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert "polyline" in doc
        assert 'version="1.1"' in doc

    def test_mc_draws_monte_carlo_markers(self, capsys, cev_config):
        code, out, _ = run_cli(
            capsys,
            ["mc", "--config", cev_config, "--format", "svg",
             "--mc.n_paths=4000", "--mc.n_steps=40", "--mc.seed=11"],
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert "monte carlo" in [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]
        # one marker per strike of the 5-point grid, plus the legend's
        assert len(list(root.iter("{http://www.w3.org/2000/svg}circle"))) == 6

    def test_text_is_escaped(self):
        series = [Series("P&L <put>", "#000", ((0.0, 1.0), (1.0, 2.0)))]
        root = ET.fromstring(render_plot(series, "a & b", "k > 0", "iv < 1"))
        texts = [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]
        assert {"a & b", "k > 0", "iv < 1", "P&L <put>"} <= set(texts)


class TestExitCodes:
    def test_bad_grid_is_config_error(self, capsys, cev_config):
        code, _, err = run_cli(
            capsys, ["smile", "--config", cev_config, "--grid.k_min=-1", "--grid.k_max=-3"]
        )
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("bound", ["--grid.k_min=-inf", "--grid.k_min=nan"])
    def test_non_finite_grid_is_config_error(self, capsys, cev_config, bound):
        code, out, err = run_cli(capsys, ["smile", "--config", cev_config, bound])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: wing grid requires finite")

    def test_infinite_epsilon_is_config_error(self, capsys, cev_config):
        code, out, err = run_cli(capsys, ["bounds", "--config", cev_config, "--model.epsilon=inf"])
        assert code == 2
        assert out == ""
        assert "epsilon" in err

    def test_one_column_table_row_is_config_error(self, capsys, atom_config, tmp_path):
        table = tmp_path / "short.csv"
        table.write_text("1e-9,0.0\n0.5\n1.0,0.2\n")
        code, out, err = run_cli(capsys, ["smile", "--config", atom_config, f"--model.p_tilde_csv={table}"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot read p_tilde table {table}")

    def test_unwritable_out_is_config_error(self, capsys, cev_config, tmp_path):
        target = tmp_path / "no_such_dir" / "x.csv"
        code, out, err = run_cli(capsys, ["smile", "--config", cev_config, "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write output {target}")

    def test_underflowing_sigma_is_config_error(self, capsys, cev_config):
        code, out, err = run_cli(capsys, ["smile", "--config", cev_config, "--model.sigma=1e-200"])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: invalid CEV model")

    def test_overflowing_sigma_is_config_error(self, capsys, cev_config):
        # sigma**2 overflows the doubles, so the CEV scale is infinite
        code, out, err = run_cli(capsys, ["smile", "--config", cev_config, "--model.sigma=1e200"])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: invalid CEV model: CEV scale")

    @pytest.mark.parametrize("key", ["model.sigam", "output.format"])
    def test_unknown_key_is_config_error(self, capsys, cev_config, key):
        code, out, err = run_cli(capsys, ["smile", "--config", cev_config, f"--{key}=csv"])
        assert code == 2
        assert out == ""
        assert err == f"config error: unknown config key(s): {key}\n"

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, ["mass", "--config", "/nonexistent.ini"])
        assert code == 2

    def test_unknown_flag(self, capsys, cev_config):
        code, _, err = run_cli(capsys, ["mass", "--config", cev_config, "--bogus"])
        assert code == 2

    def test_mass_rejects_svg(self, capsys, cev_config):
        code, _, err = run_cli(
            capsys, ["mass", "--config", cev_config, "--format", "svg"]
        )
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys, cev_config):
        # vol so small that the true mass at zero (about 2e-457) lies below
        # the double range: the mass rounds to zero and the atom model
        # behind every approximation rejects it
        code, _, err = run_cli(
            capsys,
            [
                "compare",
                "--config",
                cev_config,
                "--model.sigma=0.015",
                "--grid.k_min=-10",
                "--grid.k_max=-8",
                "--grid.n_points=2",
            ],
        )
        assert code == 3
        assert "numerical failure" in err

    def test_tiny_mass_compare_succeeds(self, capsys, cev_config):
        # mass 2.2878870037668306e-257 is still a double, and so is the put
        argv = [
            "compare",
            "--config",
            cev_config,
            "--model.sigma=0.02",
            "--grid.k_min=-10",
            "--grid.k_max=-8",
            "--grid.n_points=2",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert all(dict(zip(header, row))["exact_iv"] != "" for row in rows)
        params = CevParams(s0=0.05, sigma=0.02, rho=0.6, T=1.2)
        assert CevModel(params).put_price(0.05 * math.exp(-10.0)) == pytest.approx(
            5.6335997869416347e-256, rel=1e-12, abs=0.0
        )


class TestPTildeTable:
    """The p_tilde table's grammar, and the rules that make it the CDF of a
    continuous part beside ATOM_CONFIG's mass m_t = 0.0707 at zero."""

    def smile(self, capsys, atom_config, table, data):
        if data is not None:
            table.write_bytes(data)
        return run_cli(capsys, ["smile", "--config", atom_config, f"--model.p_tilde_csv={table}"])

    @pytest.mark.parametrize(
        "data",
        [
            *(text.encode() for text in P_TILDE_VARIANTS.values()),
            # a line of spaces and a '#' after a value are skipped
            b"1e-9,0.0\n   \n1e-3,0.01\n1.0,0.2\n",
            b"1e-9,0.0 # note\n1e-3,0.01\n1.0,0.2\n",
        ],
        ids=[*P_TILDE_VARIANTS, "spaces_line", "trailing_comment"],
    )
    def test_spelling_reads_as_the_table(self, capsys, atom_config, tmp_path, data):
        code, want, err = self.smile(capsys, atom_config, tmp_path / "pt.csv", P_TILDE_TABLE.encode())
        assert (code, err) == (0, "")
        assert all(row[COLUMNS.index("three_term_pT")] for row in parse_csv(want)[1])
        assert self.smile(capsys, atom_config, tmp_path / "variant.csv", data) == (0, want, "")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"1e-9,0.0\n0.5\n1.0,0.2\n", "cannot read p_tilde table {}: "),
            (b"1e-9,0.0\nabc,0.01\n1.0,0.2\n", "cannot read p_tilde table {}: "),
            (b"1e-9,0.0\n", "p_tilde table {} needs at least two rows"),
            (b"", "p_tilde table {} needs at least two rows"),
            (None, "cannot read p_tilde table {}: "),
            (b"1e-9,0.0\n\xff,0.01\n1.0,0.2\n", "cannot read p_tilde table {}: "),
            (b"1e-9,0.0\n1e-3,0.01\n1_0,0.2\n", "cannot read p_tilde table {}: "),
        ],
        ids=["one_column", "non_numeric", "one_row", "empty", "missing", "not_utf8", "digit_group_underscore"],
    )
    def test_unreadable_table_is_one_line_config_error(self, capsys, atom_config, tmp_path, data, message):
        table = tmp_path / "pt.csv"
        code, out, err = self.smile(capsys, atom_config, table, data)
        assert (code, out) == (2, "")
        assert err.startswith("config error: " + message.format(table))
        assert err.endswith("\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, rule",
        [
            ("nan,0.0\n1e-3,0.01\n1.0,0.2\n", "every u finite and > 0"),
            ("0.0,0.0\n1e-3,0.01\n1.0,0.2\n", "every u finite and > 0"),
            ("-1e-3,0.0\n1e-3,0.01\n1.0,0.2\n", "every u finite and > 0"),
            ("1e-9,0.0\n1e-3,0.01\ninf,0.2\n", "every u finite and > 0"),
            ("1e-9,0.0\n1e-3,0.01\n1e-3,0.02\n1.0,0.2\n", "distinct u"),
            ("1e-9,-0.01\n1e-3,0.01\n1.0,0.2\n", "every p_tilde NaN or in [0, 1 - m_t]"),
            ("1e-9,0.0\n1e-3,0.01\n1.0,0.95\n", "every p_tilde NaN or in [0, 1 - m_t]"),
            ("1e-9,0.0\n1e-3,inf\n1.0,0.2\n", "every p_tilde NaN or in [0, 1 - m_t]"),
            ("1e-9,-inf\n1e-3,0.01\n1.0,0.2\n", "every p_tilde NaN or in [0, 1 - m_t]"),
            ("1e-9,0.0\n1e-3,0.3\n1.0,0.2\n", "p_tilde nondecreasing in u"),
            ("1e-9,0.0\n1e-6,0.3\n1e-3,nan\n1.0,0.2\n", "p_tilde nondecreasing in u"),
        ],
        ids=["nan_u", "zero_u", "negative_u", "infinite_u", "repeated_u", "negative_p", "p_above_1_minus_m",
             "infinite_p", "minus_infinite_p", "decreasing_p", "decreasing_p_across_nan"],
    )
    def test_table_that_is_not_a_continuous_cdf_is_config_error(self, capsys, atom_config, tmp_path, text, rule):
        table = tmp_path / "pt.csv"
        code, out, err = self.smile(capsys, atom_config, table, text.encode())
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: p_tilde table {table} needs {rule}")

    def test_bounds_of_p_tilde_are_accepted(self, capsys, atom_config, tmp_path):
        table = f"1e-9,0.0\n1e-3,nan\n1.0,{1.0 - 0.0707!r}\n".encode()
        assert self.smile(capsys, atom_config, tmp_path / "pt.csv", table)[0] == 0


class TestConfigKeys:
    """Every value is parsed once, by its key's type, when it is loaded."""

    MC = ["--mc.n_paths=4000", "--mc.n_steps=40", "--mc.seed=11"]

    @pytest.mark.parametrize(
        "override, message",
        [
            (["--model.sigma=abc"], "model.sigma must be a number, got 'abc'"),
            ([*MC[:2], "--mc.seed=1.5"], "mc.seed must be an integer, got '1.5'"),
            ([*MC, "--mc.antithetic=maybe"], "mc.antithetic must be a boolean, got 'maybe'"),
        ],
    )
    def test_bad_value_of_each_type(self, capsys, cev_config, override, message):
        code, out, err = run_cli(capsys, ["mc", "--config", cev_config, *override])
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "override, message",
        [
            (["--grid.k_min=-3"], "grid requires grid.k_min, grid.k_max, grid.n_points"),
            (["--mc.n_paths=100"], "mc requires mc.n_paths, mc.n_steps, mc.seed"),
        ],
    )
    def test_incomplete_section(self, capsys, tmp_path, override, message):
        path = tmp_path / "no_grid.ini"
        path.write_text(CEV_CONFIG.split("[grid]")[0])
        code, out, err = run_cli(capsys, ["smile", "--config", str(path), *override])
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "spelling, canonical",
        [(s, "true") for s in ("1", "yes", "on", " On ", "TRUE")]
        + [(s, "false") for s in ("0", "no", "off", "False")],
    )
    def test_boolean_spellings(self, capsys, cev_config, spelling, canonical):
        runs = [run_cli(capsys, ["mc", "--config", cev_config, *self.MC, f"--mc.antithetic={value}"])
                for value in (canonical, spelling)]
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize(
        "command, override, message",
        [
            # an atom-model key the cev command never reads
            ("mass", "--model.m_t=abc", "model.m_t must be a number, got 'abc'"),
            # a bad value is named before the keys its section misses
            ("mc", "--mc.antithetic=maybe", "mc.antithetic must be a boolean, got 'maybe'"),
        ],
    )
    def test_every_value_is_checked(self, capsys, cev_config, command, override, message):
        code, out, err = run_cli(capsys, [command, "--config", cev_config, override])
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("in_file", [False, True])
    @pytest.mark.parametrize(
        "key, value, noun",
        [("grid.n_points", "1_7", "an integer"), ("mc.seed", "1_0", "an integer"),
         ("model.sigma", "0.2_5", "a number")],
    )
    def test_digit_group_underscore_is_refused(self, capsys, tmp_path, in_file, key, value, noun):
        # int() and float() read '1_7' as 17 and '0.2_5' as 0.25
        parser = configparser.ConfigParser()
        parser.read_string(CEV_CONFIG)
        parser.read_dict({"mc": {"n_paths": "4000", "n_steps": "40", "seed": "11"}})
        section, _, option = key.partition(".")
        if in_file:
            parser.set(section, option, value)
        path = tmp_path / "mc.ini"
        with path.open("w") as f:
            parser.write(f)
        argv = ["mc", "--config", str(path)] + ([] if in_file else [f"--{key}={value}"])
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"config error: {key} must be {noun}, got {value!r}\n")

    @pytest.mark.parametrize(
        "text",
        [
            b"s0 = 0.05\n",  # no section header
            b"[model]\ns0 = 0.05\ns0 = 0.06\n",  # duplicate option
            b"[model]\ns0 = 0.05\n[model]\nt = 1.2\n",  # duplicate section
            b"[model]\ns0 = 0.05\nstray line\n",  # neither section nor option
            b"[model]\ns0 = 0.05\xff\n",  # not UTF-8
        ],
    )
    def test_malformed_file_is_config_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, ["mass", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: malformed config file {path}: ")

    def test_percent_in_file_value_is_literal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("pct.ini").write_text(ATOM_CONFIG.replace("x0 = 1.0", "x0 = 1.0\np_tilde_csv = 10%.csv"))
        code, out, err = run_cli(capsys, ["smile", "--config", "pct.ini"])
        assert (code, out) == (2, "")
        assert err.startswith("config error: cannot read p_tilde table 10%.csv: ")

    @pytest.mark.parametrize("command", ["mass", "smile"])
    def test_readme_example_config_runs(self, capsys, tmp_path, command):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        path = tmp_path / "run.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert (code, err) == (0, "")
        assert out


class TestDeterminism:
    def test_csv_byte_identical(self, capsys, cev_config):
        _, out1, _ = run_cli(capsys, ["compare", "--config", cev_config])
        _, out2, _ = run_cli(capsys, ["compare", "--config", cev_config])
        assert out1 == out2

    def test_file_and_stdout_agree(self, capsys, cev_config, tmp_path):
        out_path = tmp_path / "table.csv"
        run_cli(capsys, ["smile", "--config", cev_config, "--out", str(out_path)])
        _, out, _ = run_cli(capsys, ["smile", "--config", cev_config])
        assert out_path.read_text() == out


class TestCachedParser:
    def test_in_process_calls_match_fresh_interpreters(self, capsys, cev_config):
        # main builds its parser once per process; a sequence of calls in
        # this process must give what each call gives in a fresh one
        runs = [
            ["mass", "--config", cev_config, "--model.sigma=0.25"],
            ["smile", "--config", cev_config],
            ["nosuch", "--config", cev_config],
            ["bounds", "--config", cev_config, "--model.sigma=0.3", "--format", "svg"],
            ["compare", "--config", cev_config, "--grid.n_points=3"],
            ["mc", "--config", cev_config, "--mc.n_paths=2000", "--mc.n_steps=20", "--mc.seed=3"],
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = f"import sys; sys.path.insert(0, {src!r}); from atomvol.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = [subprocess.Popen([sys.executable, "-c", probe, *argv], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for argv in runs]
        for argv, proc in zip(runs, fresh):
            try:
                code = main(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
            captured = capsys.readouterr()
            out, err = proc.communicate(timeout=120)
            assert (code, captured.out, captured.err) == (proc.returncode, out, err), argv


class TestImportCost:
    # the library never imports scipy.optimize, and imports scipy.integrate
    # only for the quadrature cross-check of the CEV series
    def _loaded_after(self, *lines):
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            *lines,
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_skips_optimize_and_integrate(self):
        assert self._loaded_after("import atomvol.cli") == "[]"

    def test_compare_and_mc_requests_skip_optimize_and_integrate(self, cev_config):
        # both commands invert put prices to implied volatilities
        mc = ["--mc.n_paths=2000", "--mc.n_steps=20", "--mc.seed=3"]
        runs = [["compare", "--config", cev_config], ["mc", "--config", cev_config, *mc]]
        loaded = self._loaded_after(
            "import contextlib, io",
            "from atomvol.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    codes = [main(argv) for argv in {runs!r}]",
            "assert codes == [0, 0], codes",
        )
        assert loaded == "[]"
