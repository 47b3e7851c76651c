import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftcast.cli as cli
from driftcast import DriftSpec, EngineConfig, SplitSpec, load_csv
from driftcast.cli import (ExperimentPlan, execute_plan, main, parse_config,
                           read_kv_file, results_rows, run_plan)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_GRID = """
# comment lines and blanks are fine

kind=concept_drift
length=420
channels=2
change_point=320
magnitude=1.0
gen_seed=3
lookback=16
hist_batch=4
method=ori
method=adaptz
horizon=4
seed=2025
width=8
blocks=2
train_epochs=2
pretrain_epochs=1
"""


class TestParseConfig:
    def test_pure_defaults(self):
        plan = parse_config(None, [])
        assert plan.methods == ["adaptz"]
        assert plan.horizons == [24] and plan.seeds == [2025]
        assert plan.engine.lookback == 96 and plan.engine.hist_batch == 24
        assert plan.engine.lr_adapter == pytest.approx(3e-4)
        assert plan.engine.lr_head == pytest.approx(3e-5)
        assert plan.drift.kind == "concept_drift"
        assert plan.drift.length == 6000
        assert plan.drift.change_points == [4800]
        assert plan.split.train_frac == pytest.approx(0.60)
        assert plan.out_dir == "runs"
        assert plan.engine == EngineConfig()
        assert plan.split == SplitSpec()
        for f in fields(ExperimentPlan):
            if f.default is not MISSING:
                assert getattr(plan, f.name) == f.default, f.name

    def test_repeated_keys_become_lists(self, tmp_path):
        cfg = write_cfg(tmp_path, "method=ori\nmethod=fogd\nhorizon=1\n"
                        "horizon=24\nseed=1\nseed=2\nseed=3\n")
        plan = parse_config(cfg, [])
        assert plan.methods == ["ori", "fogd"]
        assert plan.horizons == [1, 24]
        assert plan.seeds == [1, 2, 3]

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        cfg = write_cfg(tmp_path, "horizn=24\n")
        with pytest.raises(ValueError) as err:
            parse_config(cfg, [])
        assert "unknown config key 'horizn'" in str(err.value)
        assert "horizon" in str(err.value) and "lookback" in str(err.value)

    def test_override_wins_with_warning(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "length=500\nnoise_std=0.2\n")
        plan = parse_config(cfg, ["length=800"])
        assert plan.drift.length == 800
        assert plan.drift.noise_std == pytest.approx(0.2)
        assert "overrides config file value" in capsys.readouterr().err

    def test_override_without_file_value_is_silent(self, capsys):
        plan = parse_config(None, ["length=700"])
        assert plan.drift.length == 700
        assert capsys.readouterr().err == ""

    def test_unparsable_value_names_the_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "horizon=soon\n")
        with pytest.raises(ValueError, match="horizon"):
            parse_config(cfg, [])

    def test_unknown_method_token_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_config(None, ["method=sgd"])

    def test_ablation_tokens_accepted(self):
        plan = parse_config(None, ["method=adaptz-nograd",
                                   "method=adaptz-nofeat"])
        assert plan.methods == ["adaptz-nograd", "adaptz-nofeat"]

    def test_data_excludes_generator_keys(self, tmp_path):
        cfg = write_cfg(tmp_path, "data=some.csv\nlength=100\n")
        with pytest.raises(ValueError, match="generator keys"):
            parse_config(cfg, [])

    def test_dataset_label_defaults_to_file_stem(self, tmp_path):
        cfg = write_cfg(tmp_path, "data=/tmp/electricity.csv\n")
        plan = parse_config(cfg, [])
        assert plan.dataset == "electricity" and plan.drift is None

    def test_freeze_online_is_an_unknown_key(self, capsys):
        # a rate of 0 freezes its part; there is no separate freeze switch
        assert main(["run", "--set", "freeze_online=true"]) == 2
        err = capsys.readouterr().err
        assert "unknown config key 'freeze_online'" in err
        assert "valid keys: " + ", ".join(cli.VALID_KEYS) in err

    def test_config_surface_is_pinned(self):
        # adding or dropping a knob must be a deliberate edit of these lists
        assert cli.VALID_KEYS == (
            "ar_coeff", "blocks", "change_point", "channels", "data", "dataset",
            "gen_seed", "hist_batch", "horizon", "kind", "length", "lookback",
            "lr_adapter", "lr_fogd", "lr_head", "lr_ogd", "magnitude", "method",
            "noise_std", "out_dir", "pretrain_epochs", "pretrain_lr", "seed",
            "tap_index", "test_frac", "train_batch", "train_epochs",
            "train_frac", "train_lr", "val_frac", "width")
        assert [f.name for f in fields(EngineConfig)] == [
            "method", "horizon", "lookback", "hist_batch", "lr_adapter",
            "lr_head", "lr_fogd", "lr_ogd", "seed"]

    def test_ablation_flags_are_chosen_by_token_only(self):
        for key in ("use_feat", "use_grad"):
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config(None, [f"{key}=0"])

    def test_pretrain_settings_checked(self):
        with pytest.raises(ValueError, match="pretrain_epochs"):
            parse_config(None, ["pretrain_epochs=4"])
        with pytest.raises(ValueError, match="pretrain_lr"):
            parse_config(None, ["pretrain_lr=0"])

    def test_every_horizon_checked_before_any_run(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            parse_config(None, ["horizon=24", "horizon=0"])

    @pytest.mark.parametrize("setting, message", [
        ("width=0", "width must be >= 1"),
        ("blocks=0", "blocks must be >= 1"),
        ("channels=0", "channels must be >= 1, got 0"),
        ("tap_index=5", "tap_index must be in"),
        ("train_epochs=-1", "train_epochs must be >= 0"),
        ("train_lr=-1", "train_lr must be > 0"),
        ("train_lr=inf", "train_lr must be > 0 and finite"),
        ("pretrain_lr=inf", "pretrain_lr must be > 0 and finite"),
        ("lr_head=inf", "lr_head must be >= 0 and finite"),
        ("lr_adapter=nan", "lr_adapter must be >= 0 and finite"),
        ("train_batch=0", "train_batch must be >= 1"),
        ("magnitude=nan", "magnitude nan is not finite"),
        ("noise_std=inf", "noise_std must be >= 0 and finite"),
        ("train_frac=nan", "split fraction nan must be >= 0"),
        ("seed=-1", "seed must be >= 0"),
        ("gen_seed=-1", "gen_seed must be >= 0"),
        ("length=50", "config key length: 50 is below 130"),
        ("length=129", "config key length: 129 is below 130"),
    ])
    def test_bad_plan_value_exits_two_before_data_loads(self, setting, message,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        def no_load(plan):
            raise AssertionError("data loaded for a bad plan")

        monkeypatch.setattr(cli, "load_plan_frame", no_load)
        assert main(["run", "--set", setting, "--set",
                     f"out_dir={tmp_path}"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "data=my,data.csv",                  # label taken from the file name
        "dataset=my,data",
        'dataset=say "hi"',
        "dataset=two\rlines",
        "dataset=two\nlines",
    ], ids=["file-stem-comma", "comma", "quote", "cr", "lf"])
    def test_dataset_label_unfit_for_results_csv_exits_two(self, setting,
                                                            tmp_path,
                                                            monkeypatch, capsys):
        def no_load(plan):
            raise AssertionError("data loaded for a bad plan")

        monkeypatch.setattr(cli, "load_plan_frame", no_load)
        assert main(["run", "--set", setting, "--set",
                     f"out_dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert "config key dataset" in err and "set dataset=" in err

    @pytest.mark.parametrize("setting, message", [
        ("method=ori", "method: value 'ori' repeated"),
        ("horizon=4", "horizon: value 4 repeated"),
        ("seed=1", "seed: value 1 repeated"),
    ])
    def test_repeated_grid_value_rejected(self, setting, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(None, [setting, "seed=7", setting])

    def test_repeated_magnitude_allowed(self):
        plan = parse_config(None, ["change_point=100", "change_point=200",
                                   "magnitude=1.0", "magnitude=1.0"])
        assert plan.drift.magnitudes == [1.0, 1.0]

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = write_cfg(tmp_path, "method=ori\njust words\n")
        with pytest.raises(ValueError, match=":2"):
            read_kv_file(cfg)

    def test_set_without_equals_rejected(self):
        with pytest.raises(ValueError, match="--set"):
            parse_config(None, ["horizon"])

    @given(st.sampled_from(cli.VALID_KEYS),
           st.sampled_from(["0", "-1", "nan", "inf", "1e9", "1000000000", "",
                            str(10**400), ",", "\x00"]))
    @settings(max_examples=400, deadline=None)
    def test_hostile_value_gives_a_plan_or_value_error(self, key, token):
        # 10**400 is too large for a float: length=10**400 must not overflow
        def no_work(*args, **kwargs):
            raise AssertionError("parse_config trained or loaded data")

        with pytest.MonkeyPatch.context() as mp:
            for name in ("load_plan_frame", "load_csv", "_generate",
                         "offline_train", "pretrain_adapter", "run_method"):
                mp.setattr(cli, name, no_work)
            try:
                plan = parse_config(None, [f"{key}={token}"])
            except ValueError:
                return
        assert isinstance(plan, ExperimentPlan)


@pytest.fixture(scope="module")
def small_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan")
    cfg_dir = tmp_path_factory.mktemp("cfg")
    cfg = write_cfg(cfg_dir, SMALL_GRID)
    plan = parse_config(cfg, [f"out_dir={out}"])
    results, results_path = run_plan(plan)
    return plan, results, results_path


class TestReadmeDefaults:
    def test_key_table_defaults_match_the_dataclasses(self):
        # each README key row names keys and their defaults in the same order;
        # a key's default is that of the dataclass field its key map fills
        readme = Path(__file__).resolve().parent.parent / "README.md"
        table = readme.read_text().split("Selected keys", 1)[1].split("\n\n")[1]
        rows = [line.split("|")[1:3] for line in table.splitlines()
                if line.startswith("| `")]
        sources = [(EngineConfig, {**cli._ENGINE_KEYS, "horizon": ("horizon", int)}),
                   (ExperimentPlan, cli._PLAN_KEYS), (SplitSpec, cli._SPLIT_KEYS),
                   (DriftSpec, cli._DRIFT_KEYS)]
        assert rows
        for keys_cell, defaults_cell in rows:
            keys = re.findall(r"`(\w+)`", keys_cell)
            shown = [d.strip().strip("`") for d in defaults_cell.split(",")]
            assert len(keys) == len(shown), keys_cell
            for key, text in zip(keys, shown):
                cls, (name, cast) = next((cls, keymap[key])
                                         for cls, keymap in sources if key in keymap)
                default = {f.name: f.default for f in fields(cls)}[name]
                want = None if text == "second-last" else cast(text)
                assert default == want, (key, text, default)

    def test_example_config_parses(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        plan = parse_config(write_cfg(tmp_path, block))
        assert (plan.drift.kind, plan.drift.length) == ("concept_drift", 6000)
        assert plan.drift.change_points == [4800]
        assert (plan.methods, plan.horizons, plan.seeds) == (["ori", "adaptz"], [24], [2025])


class TestRunPlan:
    def test_grid_rows_in_order(self, small_results):
        _, results, _ = small_results
        assert [(r.method, r.horizon, r.seed) for r in results] == [
            ("ori", 4, 2025), ("adaptz", 4, 2025)]
        assert all(r.status == "ok" for r in results)

    def test_results_csv_layout(self, small_results):
        _, results, path = small_results
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "dataset,method,horizon,seed,mse,status,imp"
        assert len(lines) == 3
        ori = lines[1].split(",")
        assert ori[0] == "concept_drift" and ori[1] == "ori"
        assert float(ori[4]) == results[0].mse
        assert ori[5] == "ok" and ori[6] == ""

    def test_improvement_column_on_adapted_row(self, small_results):
        _, results, path = small_results
        adapt = Path(path).read_text().splitlines()[2].split(",")
        expect = (results[0].mse - results[1].mse) / results[0].mse
        assert float(adapt[6]) == pytest.approx(expect, rel=1e-15)

    def test_trace_files_match_summary_mse(self, small_results):
        plan, results, _ = small_results
        for r in results:
            trace_path = os.path.join(plan.out_dir, f"trace_{r.run_id}.csv")
            lines = Path(trace_path).read_text().splitlines()
            assert lines[0] == "t,step_mse,cum_mse"
            step = np.array([float(l.split(",")[1]) for l in lines[1:]])
            assert float(np.mean(step)) == pytest.approx(r.mse, rel=1e-12)
            cum = float(lines[-1].split(",")[2])
            assert cum == pytest.approx(r.mse, rel=1e-12)

    def test_rerun_is_byte_identical(self, small_results, tmp_path):
        plan, results, path = small_results
        plan2 = ExperimentPlan(**{**plan.__dict__, "out_dir": str(tmp_path)})
        _, path2 = run_plan(plan2)
        assert Path(path).read_text().split("\n", 1)[1] \
            == Path(path2).read_text().split("\n", 1)[1]
        assert Path(path).read_bytes() == Path(path2).read_bytes()
        for r in results:
            a = os.path.join(plan.out_dir, f"trace_{r.run_id}.csv")
            b = os.path.join(str(tmp_path), f"trace_{r.run_id}.csv")
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_run_ids_differ_across_runs(self, small_results):
        _, results, _ = small_results
        assert len({r.run_id for r in results}) == len(results)


class TestPlumbing:
    def test_ablation_tokens_flip_adapter_flags(self, tmp_path, monkeypatch):
        seen = []
        real = cli.run_method

        def spy(method, model, adapter_net, stream, cfg):
            seen.append((method, adapter_net.use_feat, adapter_net.use_grad))
            return real(method, model, adapter_net, stream, cfg)

        monkeypatch.setattr(cli, "run_method", spy)
        plan = parse_config(None, [
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "hist_batch=4", "horizon=4", "width=8", "blocks=2",
            "train_epochs=1", "pretrain_epochs=0", "method=adaptz",
            "method=adaptz-nograd", "method=adaptz-nofeat",
            f"out_dir={tmp_path}"])
        execute_plan(plan)
        assert seen == [("adaptz", True, True), ("adaptz", True, False),
                        ("adaptz", False, True)]

    def test_pretrain_epochs_reach_the_pretraining_call(self, tmp_path,
                                                        monkeypatch):
        calls = []
        real = cli.pretrain_adapter

        def spy(model, adapter_net, val, epochs, **kw):
            calls.append((epochs, kw.get("lr")))
            return real(model, adapter_net, val, 0, **kw)

        monkeypatch.setattr(cli, "pretrain_adapter", spy)
        plan = parse_config(None, [
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "hist_batch=4", "horizon=4", "width=8", "blocks=2",
            "train_epochs=1", "pretrain_epochs=5", "pretrain_lr=0.002",
            f"out_dir={tmp_path}"])
        execute_plan(plan)
        assert calls == [(5, 0.002)]

    def test_failed_run_recorded_not_raised(self, tmp_path):
        # horizon 400 cannot be split out of 420 rows; horizon 4 still runs
        plan = parse_config(None, [
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "hist_batch=4", "horizon=4", "horizon=400", "width=8", "blocks=2",
            "train_epochs=1", "pretrain_epochs=0", "method=ori",
            f"out_dir={tmp_path}"])
        results, path = run_plan(plan)
        by_h = {r.horizon: r for r in results}
        assert by_h[4].status == "ok" and by_h[400].status == "error"
        assert by_h[400].mse is None
        line = [l for l in Path(path).read_text().splitlines() if ",400," in l][0]
        assert line.endswith(",error,")

    def test_empty_test_split_is_an_error(self, tmp_path):
        plan = parse_config(None, [
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "hist_batch=4", "horizon=4", "width=8", "blocks=2",
            "train_epochs=1", "pretrain_epochs=0", "method=ori",
            "train_frac=0.9", "val_frac=0.1", "test_frac=0",
            f"out_dir={tmp_path}"])
        results, path = run_plan(plan)
        assert [(r.status, r.mse) for r in results] == [("error", None)]
        assert Path(path).read_text().splitlines()[1].endswith(",error,")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_mse_is_an_error(self, tmp_path):
        # a head rate this large diverges; the ori sibling still runs
        plan = parse_config(None, [
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "hist_batch=4", "horizon=4", "width=8", "blocks=2",
            "train_epochs=1", "pretrain_epochs=0", "lr_head=1e6",
            "method=adaptz", "method=ori", f"out_dir={tmp_path}"])
        results, path = run_plan(plan)
        assert [(r.method, r.status) for r in results] == [
            ("adaptz", "error"), ("ori", "ok")]
        assert results[0].mse is None and results[0].trace is None
        assert Path(path).read_text().splitlines()[1].endswith(",error,")

    def test_pretraining_that_cannot_step_is_an_error(self, tmp_path, capsys):
        # val releases 34 records, fewer than one window of 40; ori still runs
        code = main(["run"] + [f"--set={kv}" for kv in (
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "horizon=4", "width=8", "blocks=2", "train_epochs=1",
            "pretrain_epochs=1", "hist_batch=40", "method=adaptz", "method=ori",
            f"out_dir={tmp_path}")])
        assert code == 1
        out, err = capsys.readouterr()
        assert "[error] concept_drift adaptz" in out
        assert "[ok] concept_drift ori" in out
        assert "hist_batch 40 is above the 34 records val releases" in err

    def test_deployment_whose_window_never_fills_is_an_error(self, tmp_path, capsys):
        # test releases 118 records, fewer than one window of 200; ori still runs
        code = main(["run"] + [f"--set={kv}" for kv in (
            "length=420", "change_point=320", "magnitude=1.0", "lookback=16",
            "horizon=4", "width=8", "blocks=2", "train_epochs=1",
            "pretrain_epochs=0", "hist_batch=200", "method=adaptz", "method=ori",
            f"out_dir={tmp_path}")])
        assert code == 1
        out, err = capsys.readouterr()
        assert "[error] concept_drift adaptz" in out
        assert "[ok] concept_drift ori" in out
        assert "hist_batch 200 is above the 118 records test releases" in err

    def test_results_rows_blank_mse_on_error(self):
        from driftcast.cli import RunResult
        rows = results_rows([RunResult("d", "ori", 1, 0, None, "error", "abc")])
        assert rows[1] == "d,ori,1,0,,error,"


class TestMainEntry:
    def test_run_round_trip_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_GRID)
        code = main(["run", "--config", cfg, "--set",
                     f"out_dir={tmp_path / 'out'}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[ok] concept_drift ori" in out
        assert os.path.exists(tmp_path / "out" / "results.csv")

    def test_run_exit_one_on_failed_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_GRID + "horizon=400\n")
        code = main(["run", "--config", cfg, "--set",
                     f"out_dir={tmp_path / 'out'}"])
        assert code == 1

    def test_run_bad_config_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "nope=1\n")
        assert main(["run", "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_gen_writes_loadable_csv(self, tmp_path, capsys):
        spec = write_cfg(tmp_path, "kind=mean_shift\nlength=120\nchannels=3\n"
                         "change_point=60\nmagnitude=2.0\ngen_seed=4\n",
                         name="drift.cfg")
        out = str(tmp_path / "series.csv")
        assert main(["gen", "--drift", spec, "--out", out]) == 0
        frame = load_csv(out)
        assert frame.values.shape == (120, 3)
        assert abs(frame.values[80:, 0].mean() - 2.0) < 0.5

    def test_gen_rejects_run_only_keys(self, tmp_path, capsys):
        spec = write_cfg(tmp_path, "kind=mean_shift\nmethod=ori\n",
                         name="drift.cfg")
        assert main(["gen", "--drift", spec, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_gen_rejects_non_finite_magnitude(self, tmp_path, capsys):
        spec = write_cfg(tmp_path, "length=80\nchange_point=40\nmagnitude=nan\n",
                         name="drift.cfg")
        out = tmp_path / "x.csv"
        assert main(["gen", "--drift", spec, "--out", str(out)]) == 2
        assert "magnitude nan is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_stream_over_max_cells_exit_two(self, tmp_path, capsys):
        # refused while parsing, before a cell is generated
        named = "length 1000000000 x channels 2 is over"
        assert main(["run", "--set", "length=1000000000", "--set",
                     f"out_dir={tmp_path / 'out'}"]) == 2
        assert named in capsys.readouterr().err
        spec = write_cfg(tmp_path, "length=1000000000\n", name="drift.cfg")
        out = tmp_path / "x.csv"
        assert main(["gen", "--drift", spec, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_gen_deterministic_bytes(self, tmp_path):
        spec = write_cfg(tmp_path, "length=80\nchannels=2\ngen_seed=9\n",
                         name="drift.cfg")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["gen", "--drift", spec, "--out", a])
        main(["gen", "--drift", spec, "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_regret_prints_report_and_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = main(["regret", "--family", "geometric", "--seeds", "2",
                     "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("family,seed,T,gamma,R_d,V,")
        assert printed == Path(out).read_text()
        assert len(printed.splitlines()) == 3

    def test_regret_without_seeds_exit_two(self, capsys):
        assert main(["regret", "--family", "all", "--seeds", "0"]) == 2
        err = capsys.readouterr()
        assert "--seeds" in err.err and err.out == ""

    def test_regret_unknown_family_exit_two(self, capsys):
        assert main(["regret", "--family", "concave", "--seeds", "1"]) == 2
        assert "unknown family" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "driftcast", "run", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: driftcast run")
