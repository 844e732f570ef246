import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import config_to_text
from ucfem import cli, sparse
from ucfem.cli import main
from ucfem.config import (
    PERTURBATION_MODES,
    ConfigError,
    RunConfig,
    config_echo,
    parse_config,
    parse_entries,
)

README = Path(__file__).resolve().parents[1] / "README.md"


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.geometry.radii == (0.25, 0.5, 1.0)
        assert cfg.k == 1
        assert cfg.sectors == 8
        assert cfg.levels == (1, 2, 3, 4, 5)
        assert cfg.exact.kind == "monomial"
        assert cfg.exact.n == 3
        assert cfg.exact.part == "Re"
        assert cfg.perturbation.mode == "none"
        assert cfg.perturbation.epsilon == 0.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nk = 2  # trailing\n")
        assert cfg.k == 2

    def test_radius_ordering_violation(self):
        with pytest.raises(ConfigError, match="r2 < r3 violated"):
            parse_config("geometry.r2 = 2.0\n")

    def test_epsilon_activates_oscillatory_defaults(self):
        cfg = parse_config("perturbation.epsilon = 1e-3\n")
        assert cfg.perturbation.mode == "oscillatory"
        assert cfg.perturbation.kappa == 10.0
        assert cfg.perturbation.seed == 0

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("k = 1\nbogus.key = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("k = 1\nk = 2\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a config\n")

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="k:"):
            parse_config("k = 3\n")
        with pytest.raises(ConfigError, match="sectors"):
            parse_config("sectors = 7\n")
        with pytest.raises(ConfigError, match="levels"):
            parse_config("levels = 5..1\n")
        with pytest.raises(ConfigError, match="exact.n"):
            parse_config("exact.n = 0\n")
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config("perturbation.epsilon = -1\n")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("hmin.scale = -1", "hmin.scale"),
            ("hmin.value = -1", "hmin.value"),
            ("hmin.mode = value", "hmin.value"),
            ("perturbation.kappa = 0", "perturbation.kappa"),
            ("perturbation.epsilon = nan", "perturbation.epsilon"),
            ("perturbation.mode = none\nperturbation.epsilon = 0.001", "perturbation.epsilon"),
            ("geometry.r1 = 0", "geometry.r1"),
            ("geometry.r2 = 0.1", "geometry.r2"),
            ("geometry.r3 = 0.4", "geometry.r3"),
            ("geometry.r1 = abc", "geometry.r1"),
            ("exact.part = X", "exact.part"),
            ("exact.kind = cubic", "exact.kind"),
            ("perturbation.mode = white", "perturbation.mode"),
            ("perturbation.seed = 1.5", "perturbation.seed"),
            ("perturbation.seed = -1", "perturbation.seed"),
            ("hmin.mode = bogus", "hmin.mode"),
            ("k = x", "k"),
            ("rate_window = 4..2", "rate_window"),
            ("levels = 1..2\nrate_window = 8", "rate_window"),
            ("rate_window = 7..8\nlevels = 8", "levels"),
        ],
    )
    def test_violation_names_its_key(self, line, key):
        # the message opens with every key the failed check read, the one set
        # among them, and its "got" part carries the (last) value that was set
        with pytest.raises(ConfigError) as info:
            parse_config(line + "\n")
        keys, _, detail = str(info.value).partition(": ")
        assert key in keys.split(", ")
        assert line.rpartition("=")[2].strip() in detail.rpartition("got ")[2]

    @pytest.mark.parametrize(
        "key",
        [
            "geometry.r1",
            "geometry.r2",
            "geometry.r3",
            "perturbation.epsilon",
            "perturbation.kappa",
            "hmin.value",
            "hmin.scale",
        ],
    )
    def test_non_finite_float_rejected(self, key):
        for raw in ("inf", "-inf", "nan"):
            with pytest.raises(ConfigError) as info:
                parse_config(f"{key} = {raw}\n")
            assert str(info.value) == f"{key}: expected a finite number, got {raw!r}"

    def test_level_list_forms(self):
        assert parse_config("levels = 2..4\n").levels == (2, 3, 4)
        assert parse_config("levels = 0,2,5\n").levels == (0, 2, 5)

    def test_round_trip_equality(self):
        cfg = parse_config(
            "geometry.r1 = 0.3\nk = 2\nlevels = 0,2,3\nexact.part = Im\n"
            "perturbation.epsilon = 1e-4\nhmin.mode = value\nhmin.value = 0.05\n"
        )
        assert parse_config(config_to_text(cfg)) == cfg

    def test_rate_window(self):
        cfg = parse_config("rate_window = 3..5\n")
        assert cfg.resolved_rate_window() == (3, 5)
        auto = parse_config("levels = 1..4\n")
        assert auto.resolved_rate_window() == (2, 4)

    @given(
        r1=st.floats(min_value=0.01, max_value=2.0),
        gap2=st.floats(min_value=1.01, max_value=5.0),
        gap3=st.floats(min_value=1.01, max_value=5.0),
        k=st.sampled_from([1, 2]),
        sectors=st.sampled_from([6, 8, 12, 20]),
        levels=st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True).map(sorted),
        n=st.integers(min_value=1, max_value=40),
        part=st.sampled_from(["Re", "Im"]),
        kind=st.sampled_from(["monomial", "zero"]),
        mode=st.sampled_from(PERTURBATION_MODES),
        epsilon=st.floats(min_value=0.0, max_value=1.0),
        kappa=st.floats(min_value=0.01, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**31),
        hmin_mode=st.sampled_from(["off", "auto", "value"]),
        hmin_value=st.floats(min_value=0.0, max_value=1.0),
        hmin_scale=st.floats(min_value=0.0, max_value=1e3),
        window=st.one_of(st.just("auto"), st.lists(st.integers(0, 9), min_size=1, max_size=4)),
        paths=st.lists(
            st.from_regex(r"[A-Za-z0-9_./-]{0,12}", fullmatch=True), min_size=2, max_size=2
        ),
    )
    @settings(max_examples=100)
    def test_echo_round_trips_arbitrary_configs(
        self,
        r1,
        gap2,
        gap3,
        k,
        sectors,
        levels,
        n,
        part,
        kind,
        mode,
        epsilon,
        kappa,
        seed,
        hmin_mode,
        hmin_value,
        hmin_scale,
        window,
        paths,
    ):
        assume(hmin_mode != "value" or hmin_value > 0)
        assume(mode != "none" or epsilon == 0)
        assume(window == "auto" or sum(min(window) <= lv <= max(window) for lv in levels) >= 2)
        window_text = window if window == "auto" else ",".join(map(str, sorted(set(window))))
        text = (
            f"geometry.r1 = {r1!r}\n"
            f"geometry.r2 = {r1 * gap2!r}\n"
            f"geometry.r3 = {r1 * gap2 * gap3!r}\n"
            f"k = {k}\nsectors = {sectors}\nlevels = {','.join(map(str, levels))}\n"
            f"exact.kind = {kind}\nexact.n = {n}\nexact.part = {part}\n"
            f"perturbation.mode = {mode}\n"
            f"perturbation.epsilon = {epsilon!r}\nperturbation.kappa = {kappa!r}\n"
            f"perturbation.seed = {seed}\n"
            f"hmin.mode = {hmin_mode}\nhmin.value = {hmin_value!r}\n"
            f"hmin.scale = {hmin_scale!r}\nrate_window = {window_text}\n"
            f"output.csv = {paths[0]}\noutput.json = {paths[1]}\n"
        )
        assert list(parse_entries(text)) == list(config_echo(RunConfig()))
        cfg = parse_config(text)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_readme_table_lists_every_key(self):
        # the README Configuration table is the one key list kept by hand;
        # `a.b/.c` abbreviates a.b, a.c
        section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        section = section.split("\n## ", 1)[0]
        keys = []
        for cell in re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE):
            head, *tails = cell.split("/")
            keys.append(head)
            keys += [head.rsplit(".", 1)[0] + tail for tail in tails]
        assert keys == list(config_echo(RunConfig()))


class TestCli:
    def test_alpha_default_output(self, capsys):
        assert main(["alpha"]) == 0
        assert capsys.readouterr().out.strip() == "alpha=0.5 beta=1.0"

    def test_alpha_with_exponents(self, capsys):
        assert main(["alpha", "--alpha1", "0.6", "--alpha2", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "alpha_tilde=0.5454545454545454" in out

    @pytest.mark.parametrize("flag", ["--alpha1", "--alpha2"])
    def test_alpha_needs_both_exponents(self, capsys, flag):
        assert main(["alpha", flag, "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error=config ")
        assert "--alpha1" in err[0] and "--alpha2" in err[0]

    def test_three_ball_equality_column(self, capsys):
        assert main(["three-ball", "--n-max", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        for line in lines[1:]:
            assert line.split(",")[1] == "1.000000000000"

    def test_mesh_writes_file(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "--set", "levels = 1", "mesh"])
        assert code == 0
        assert (tmp_path / "mesh_l1.txt").exists()
        header = (tmp_path / "mesh_l1.txt").read_text().splitlines()[0]
        assert header == "mesh v1 89 160"

    def test_mesh_reports_time_and_peak_rss(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--set", "levels = 2", "mesh"]) == 0
        line = capsys.readouterr().out
        assert re.search(r" mesh_s=\S+ peak_rss_mb=\S+\n$", line)
        fields = dict(item.split("=", 1) for item in line.split()[1:])
        assert 0.0 < float(fields["mesh_s"]) < 60.0
        # this process has at least numpy and scipy loaded
        assert 10.0 < float(fields["peak_rss_mb"]) < 1e5

    def test_config_error_exit_code(self, capsys):
        assert main(["--set", "geometry.r2 = 2.0", "alpha"]) == 2
        assert "error=config" in capsys.readouterr().err

    @pytest.mark.parametrize("window, levels", [("7..8", "1..2"), ("2..2", "1..3")])
    def test_window_that_fits_nothing_is_a_config_error(self, capsys, window, levels):
        assert main(["--set", f"rate_window={window}", "--set", f"levels={levels}", "converge"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error=config rate_window, levels: ")

    def test_non_finite_radius_is_a_config_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--set", "geometry.r3=inf", "--set", "levels=1", "uc"]) == 2
        err = capsys.readouterr().err
        assert err == "error=config geometry.r3: expected a finite number, got 'inf'\n"

    @pytest.mark.parametrize(
        "message, shown",
        # numpy names the allocation; SuperLU's MemoryError carries no message
        [("Unable to allocate 1.00 GiB", "Unable to allocate 1.00 GiB"), ("", "allocation failed")],
    )
    def test_out_of_memory_exit_code(self, monkeypatch, capsys, message, shown):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "solve_uc", exhausted)
        assert main(["--set", "levels = 1", "uc"]) == 5
        assert capsys.readouterr().err == f"error=memory {shown}\n"

    def test_superlu_out_of_memory_exit_code(self, monkeypatch, capsys):
        # SuperLU reports an exhausted allocation as a SystemError
        def exhausted(*args, **kwargs):
            raise SystemError("gstrf was called with invalid arguments")

        monkeypatch.setattr(sparse.spla, "splu", exhausted)
        assert main(["--set", "levels = 1", "uc"]) == 5
        err = capsys.readouterr().err
        assert err == "error=memory gstrf was called with invalid arguments\n"

    def test_unknown_key_exit_code(self, capsys):
        assert main(["--set", "nonsense = 1", "alpha"]) == 2

    def test_poisson_smoke(self, capsys):
        assert main(["--set", "levels = 2", "poisson"]) == 0
        out = capsys.readouterr().out
        assert "err_h1semi=" in out

    def test_uc_smoke(self, capsys):
        assert main(["--set", "levels = 1", "uc"]) == 0
        out = capsys.readouterr().out
        assert "err_l2_B=" in out

    def test_uc_reports_peak_rss(self, capsys):
        assert main(["--set", "levels = 1", "uc"]) == 0
        fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split()[1:])
        # this process has at least numpy and scipy loaded
        assert 10.0 < float(fields["peak_rss_mb"]) < 1e5

    def test_uc_reports_the_bytes_of_the_solved_forms(self, capsys):
        # the Saddle holds its forms' representatives' rows, printed before the peak
        assert main(["--set", "levels = 3", "uc"]) == 0
        line = capsys.readouterr().out
        assert re.search(r" forms_mb=\S+ peak_rss_mb=\S+\n$", line)
        fields = dict(item.split("=", 1) for item in line.split()[1:])
        assert 0.0 < float(fields["forms_mb"]) < float(fields["peak_rss_mb"])

    def test_converge_writes_artifacts(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "--set", "levels = 1..2", "converge"])
        assert code == 0
        csv_text = (tmp_path / "converge.csv").read_text()
        payload = json.loads((tmp_path / "converge.json").read_text())
        assert csv_text.splitlines()[0].startswith("level,h,")
        assert payload["config"]["levels"] == "1..2"

    def test_converge_deterministic_artifacts(self, tmp_path):
        for sub in ("a", "b"):
            main(["--out-dir", str(tmp_path / sub), "--set", "levels = 1..2", "converge"])
        assert (tmp_path / "a" / "converge.csv").read_bytes() == (
            tmp_path / "b" / "converge.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "converge.json").read_bytes() == (
            tmp_path / "b" / "converge.json"
        ).read_bytes()

    def test_config_file_loading(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# custom radii\ngeometry.r1 = 0.2\ngeometry.r2 = 0.4\n")
        assert main(["--config", str(cfg_file), "alpha"]) == 0
        out = capsys.readouterr().out
        # alpha = log(1/0.4)/log(1/0.2)
        assert out.startswith("alpha=0.569")

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg", "alpha"]) == 2

    def test_perturb_study_smoke(self, tmp_path):
        code = main(
            [
                "--out-dir",
                str(tmp_path),
                "--set",
                "levels = 1..2",
                "--set",
                "exact.kind = zero",
                "--set",
                "perturbation.epsilon = 1e-3",
                "perturb",
            ]
        )
        assert code == 0
        assert (tmp_path / "perturb.csv").exists()
        assert (tmp_path / "perturb.json").exists()

    def test_stagnate_study_smoke(self, tmp_path):
        code = main(
            [
                "--out-dir",
                str(tmp_path),
                "--set",
                "levels = 2..3",
                "--set",
                "exact.n = 3",
                "--set",
                "perturbation.epsilon = 1e-2",
                "--set",
                "hmin.mode = value",
                "--set",
                "hmin.value = 0.2",
                "stagnate",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "stagnate.json").read_text())
        assert payload["verdicts"]["h_min"] == 0.2

    @pytest.mark.parametrize("extra", [[], ["--set", "exact.kind=zero"]])
    def test_stagnate_without_perturbation(self, tmp_path, capsys, extra):
        # epsilon = 0 makes the plateau reference 0, and a zero exact
        # solution makes the error at the crossing level 0: both verdicts
        # are left out instead of dividing by zero
        argv = ["--out-dir", str(tmp_path), "--set", "hmin.mode=value", "--set", "hmin.value=0.3"]
        assert main(argv + ["--set", "levels=1..3"] + extra + ["stagnate"]) == 0
        assert "h_min=0.3" in capsys.readouterr().out.splitlines()
        text = (tmp_path / "stagnate.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        verdicts = json.loads(text)["verdicts"]
        assert verdicts["crossing_level"] == 2
        assert "plateau" not in verdicts
        assert ("stagnation_factor" in verdicts) == (extra == [])

    def test_stagnate_needs_a_level_past_the_crossing(self, tmp_path, capsys):
        # the crossing level is the finest level run: a factor would compare
        # that row with itself, so neither stagnation verdict is given
        argv = ["--out-dir", str(tmp_path), "--set", "hmin.mode=value", "--set", "hmin.value=0.3"]
        assert main(argv + ["--set", "levels=1..2", "stagnate"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "crossing_level=2" in out
        verdicts = json.loads((tmp_path / "stagnate.json").read_text())["verdicts"]
        assert verdicts["crossing_level"] == 2
        assert "stagnation_factor" not in verdicts and "stagnated" not in verdicts

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "invariants: 7 passed, 0 failed" in out
        assert "ok consistency_identity" in out
