import hashlib
import importlib.util
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropix import cli, config, pgm
from entropix._kernels_py import _BLOCK_ELEMS
from entropix.cli import SWEEP_PARAMS, main, run
from entropix.config import (_FLOAT_KEYS, MAX_CELLS, MAX_LENGTH,
                             MAX_QUERY_LOGITS, MAX_VOCAB, MAX_WINDOW, MODES,
                             ConfigSyntaxError, ConfigValueError, RunConfig,
                             build_run, parse_config)
from entropix.oracle import Oracle


def write_config(path, text):
    path.write_text(text)
    return str(path)


def base_config(tmp_path, mode="next-token", extra=""):
    out = tmp_path / "out"
    return write_config(tmp_path / "run.cfg", f"""
# harness run
mode = {mode}
seed = 3
vocab = 16
height = 8
width = 8
kappa_bg = 0.8
kappa_fg = 0.1
rect = 2,2,4,4
context_sensitivity = 0.5
out_dir = {out}
{extra}
""")


# One out-of-range value per rule that an object of the run states: the
# oracle, the temperature, the scale and acceptance parameters, the kappa
# map and its rect (8x8 grid), the preset table and the random stream.
OBJECT_RULES = [
    "context_sensitivity=1.5",
    "t0=0",
    "alpha=-1",
    "theta=0",
    "accept_e=0",
    "accept_lambda=-2",
    "beta=1",
    "floor_temperature=0",
    "kappa_fg=1.5",
    "rect=0,5,2,4",
    "preset=nope",
    "seed=-1",
]


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(base_config(tmp_path))
        assert cfg.mode == "next-token"
        assert cfg.seed == 3
        assert cfg.rect == (2, 2, 4, 4)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "mode = mask\ntempp0 = 2.5\n")
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_config(path)
        assert "tempp0" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "just words\n")
        with pytest.raises(ConfigSyntaxError):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "seed = abc\n")
        with pytest.raises(ConfigSyntaxError):
            parse_config(path)

    def test_invalid_mode(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "mode = diffusion\n")
        with pytest.raises(ConfigValueError):
            parse_config(path)

    def test_semantic_checks(self, tmp_path):
        for line in ("top_p = 1.5", "kappa_bg = -0.1", "cfg_scale = 0.5",
                     "rect = 0,0,20,20", "window = 0"):
            path = write_config(tmp_path / "bad.cfg", line + "\n")
            with pytest.raises(ConfigValueError):
                parse_config(path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = base_config(tmp_path)
        monkeypatch.setenv("ENTROPIX_SEED", "99")
        assert parse_config(path).seed == 99
        monkeypatch.setenv("ENTROPIX_SEED", "zzz")
        with pytest.raises(ConfigValueError):
            parse_config(path)

    def test_ladder_parsing(self, tmp_path):
        path = write_config(tmp_path / "run.cfg",
                            "mode = scale\nladder = 1x1,2x2,4x4\n"
                            "height = 4\nwidth = 4\n")
        assert parse_config(path).ladder == ((1, 1), (2, 2), (4, 4))

    @pytest.mark.parametrize("mode,line", [
        (mode, line) for mode in MODES for line in OBJECT_RULES
    ] + [("mask", "steps=65")])
    def test_run_objects_refuse_bad_values(self, tmp_path, capsys,
                                           monkeypatch, mode, line):
        # each range is stated once, by the object of the run that holds
        # the value; parsing builds them all, so every mode refuses it
        # before decoding starts and before out_dir is made
        monkeypatch.delenv("ENTROPIX_SEED", raising=False)
        path = base_config(tmp_path, mode, line + "\n")
        with pytest.raises(ConfigValueError):
            parse_config(path)
        assert main(["generate", path]) == 3
        assert "invalid parameters:" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("line", ["kappa_bg=-0.5", "kappa_fg=2"])
    def test_kappas_checked_without_rect(self, tmp_path, line):
        # without a rect the foreground kappa is unused, and still checked
        path = write_config(tmp_path / "bad.cfg", line + "\n")
        with pytest.raises(ConfigValueError, match="kappa"):
            parse_config(path)


# Each config breaks one size limit by one unit; only build_run sees
# them, so nothing of their size is ever allocated.
OVERSIZED = [
    ("vocab", dict(vocab=MAX_VOCAB + 1, height=1, width=1,
                   context_sensitivity=0.5)),
    ("vocab", dict(vocab=1000000000, height=4, width=4)),
    (r"height \* width", dict(height=MAX_CELLS + 1, width=1, vocab=2)),
    ("length", dict(mode="spec-entropy", length=MAX_LENGTH + 1)),
    ("window", dict(mode="spec-entropy", window=MAX_WINDOW + 1, vocab=2)),
    ("ladder entry", dict(mode="scale", vocab=2,
                          ladder=((1, 1), (1, MAX_CELLS + 1)))),
    ("ladder entries", dict(mode="scale", ladder=((1, 1), (0, 4)))),
    # the largest query holds rows x vocab logits
    ("query", dict(mode="next-token", vocab=MAX_VOCAB, height=1, width=65)),
    ("query", dict(mode="mask", vocab=MAX_QUERY_LOGITS // MAX_CELLS + 1,
                   height=1024, width=1024)),
    ("query", dict(mode="scale", vocab=1 << 10, height=128, width=128,
                   ladder=((1, 1), (128, 129)))),
    ("query", dict(mode="spec-baseline", vocab=MAX_VOCAB, window=65)),
    # a length longer than the grid still queries at most a grid per block
    ("query", dict(mode="next-token", vocab=64, height=1024, width=1024,
                   length=MAX_LENGTH)),
]

# Configs exactly at the limits, which the checks admit.
AT_LIMIT = [
    dict(vocab=MAX_VOCAB, height=1, width=1),
    dict(mode="next-token", vocab=MAX_VOCAB, height=1, width=64),
    # under context next-token windows hold at most a kernel block of
    # logits per query kind, and one row where a row fills the block
    dict(mode="next-token", vocab=MAX_VOCAB, height=1, width=65,
         context_sensitivity=0.5, length=MAX_LENGTH),
    dict(mode="mask", vocab=MAX_QUERY_LOGITS // MAX_CELLS, height=1024,
         width=1024),
    dict(mode="scale", vocab=1 << 10, height=128, width=128,
         ladder=((1, 1), (128, 128))),
    dict(mode="spec-baseline", vocab=MAX_VOCAB, window=64),
    dict(mode="spec-entropy", vocab=2, window=MAX_WINDOW, length=MAX_LENGTH),
    # a short length bounds the query below the grid and the window
    dict(mode="next-token", vocab=64, height=1024, width=1024, length=10),
    dict(mode="next-token", vocab=MAX_VOCAB, height=1, width=65, length=64),
    dict(mode="spec-entropy", vocab=MAX_VOCAB, window=MAX_WINDOW, length=64),
]

# Small configs, one per batching rule that config._check_sizes restates:
# each decoder's largest oracle query, in rows.
QUERY_CONFIGS = [
    # next-token at context 0: one query per grid, or a shorter length
    dict(mode="next-token", length=7),
    dict(mode="next-token", length=45),
    # under context, verified windows of up to a span of positions per
    # query kind: at a vocabulary of 4096 a span holds 8, and with every
    # draw the target (kappa 1, top-k 1) the windows of 4 and 8 slots after
    # four one-row steps reach it
    dict(mode="next-token", vocab=4096, length=20, context_sensitivity=0.5,
         kappa_bg=1.0, top_k=1),
    dict(mode="next-token", vocab=4096, length=20, context_sensitivity=0.5,
         kappa_bg=1.0, top_k=1, cfg_scale=1.0),
    dict(mode="mask", steps=4),
    dict(mode="scale"),
    # the largest scale is not the last one
    dict(mode="scale", ladder=((1, 1), (3, 4), (2, 2))),
    # Jacobi windows hold min(window, length) rows
    dict(mode="spec-entropy", window=9, length=6, context_sensitivity=0.5),
    dict(mode="spec-baseline", window=3, length=12, context_sensitivity=0.5),
    # a large vocabulary: a Jacobi span of a block's 8 positions plus a
    # window
    dict(mode="spec-entropy", vocab=4096, window=16, length=40,
         context_sensitivity=0.5),
    # where one row fills a kernel block a span holds one position, and
    # every token is a one-row step, one row per query kind
    dict(mode="next-token", vocab=1 << 15, length=3,
         context_sensitivity=0.5),
]

# Configs whose largest query depends on their draws and stays below the
# size that config._check_sizes counts: next-token decoding under context
# at high entropy, where few drafts verify and windows stay short.
BOUNDED_QUERY_CONFIGS = [
    dict(mode="next-token", context_sensitivity=0.5),
    dict(mode="next-token", context_sensitivity=0.5, cfg_scale=1.0),
    dict(mode="next-token", vocab=4096, length=20, context_sensitivity=0.5),
]


class TestSizeLimits:
    @staticmethod
    def largest_query(monkeypatch, keys):
        """The config of ``keys`` on a small base, and the logits of its
        largest query when decoded, counted per query kind. The limit
        bounds logits_rows (a window's query) and logits_kinds (one row per
        kind). The position-input spans that next-token and Jacobi
        decoding derive ahead are not queries: per query kind they hold at
        most a kernel block (_kernels_py._BLOCK_ELEMS values) beyond the
        largest query, which is checked here too."""
        cfg = RunConfig(**{"vocab": 8, "height": 4, "width": 5, "seed": 1,
                           "cfg_scale": 1.5, **keys})
        largest = span = 0
        rows_query = Oracle.logits_rows
        kinds_query = Oracle.logits_kinds
        span_inputs = Oracle.position_inputs

        def position_inputs(self, positions, *args, **kwargs):
            nonlocal span
            span = max(span, len(positions) * self.cfg.vocab)
            return span_inputs(self, positions, *args, **kwargs)

        def logits_rows(self, positions, *args, **kwargs):
            nonlocal largest
            largest = max(largest, len(positions) * self.cfg.vocab)
            return rows_query(self, positions, *args, **kwargs)

        def logits_kinds(self, *args, **kwargs):
            nonlocal largest
            largest = max(largest, self.cfg.vocab)
            return kinds_query(self, *args, **kwargs)

        monkeypatch.setattr(Oracle, "logits_rows", logits_rows)
        monkeypatch.setattr(Oracle, "logits_kinds", logits_kinds)
        monkeypatch.setattr(Oracle, "position_inputs", position_inputs)
        run(cfg)
        assert largest > 0
        assert span <= largest + _BLOCK_ELEMS
        return cfg, largest

    @pytest.mark.parametrize("keys", QUERY_CONFIGS)
    def test_query_limit_is_the_largest_query(self, monkeypatch, keys):
        # The limit must admit exactly the logits of the largest query the
        # decoders make, so the check and the decoders' batching cannot
        # drift apart.
        cfg, largest = self.largest_query(monkeypatch, keys)
        monkeypatch.setattr(config, "MAX_QUERY_LOGITS", largest)
        build_run(cfg)
        monkeypatch.setattr(config, "MAX_QUERY_LOGITS", largest - 1)
        with pytest.raises(ConfigValueError, match="query"):
            build_run(cfg)

    @pytest.mark.parametrize("keys", BOUNDED_QUERY_CONFIGS)
    def test_query_limit_bounds_the_largest_query(self, monkeypatch, keys):
        # where the largest query depends on the draws, the limit counts
        # at least its logits: a limit just below them refuses the config
        cfg, largest = self.largest_query(monkeypatch, keys)
        monkeypatch.setattr(config, "MAX_QUERY_LOGITS", largest - 1)
        with pytest.raises(ConfigValueError, match="query"):
            build_run(cfg)

    @pytest.mark.parametrize("match,keys", OVERSIZED)
    def test_oversized_rejected(self, match, keys):
        with pytest.raises(ConfigValueError, match=match):
            build_run(RunConfig(**keys))

    @pytest.mark.parametrize("match,keys",
                             OVERSIZED + [("length", dict(length=0))])
    def test_every_run_passes_the_gate_first(self, monkeypatch, match, keys):
        # profile_rect makes a run's first allocation: the gate refuses
        # each of these before it, whether a config is built or decoded
        def allocates(*args, **kwargs):
            raise AssertionError("profile_rect ran before the gate refused")

        monkeypatch.setattr(config, "profile_rect", allocates)
        cfg = RunConfig(**keys)
        with pytest.raises(ConfigValueError, match=match):
            config.build_run(cfg)
        with pytest.raises(ConfigValueError, match=match):
            run(cfg)

    @pytest.mark.parametrize("keys", AT_LIMIT)
    def test_limit_admitted(self, keys):
        build_run(RunConfig(**keys))

    @pytest.mark.parametrize("line", ["vocab = 1000000000",
                                      f"window = {MAX_WINDOW + 1}",
                                      "ladder = 1x1,2048x1024"])
    def test_exit_3_without_artifacts(self, tmp_path, capsys, line):
        mode = "scale" if line.startswith("ladder") else "spec-entropy"
        for m in ("next-token", mode):
            cfg = base_config(tmp_path, m, line + "\n")
            assert main(["generate", cfg]) == 3
            assert "invalid parameters:" in capsys.readouterr().err
            assert not os.path.exists(artifact(tmp_path, "tokens.csv"))

    def test_benchmark_workloads_admitted(self, tmp_path):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for w in workloads.WORKLOADS.values():
            for keys in ({}, w.warmup):
                cfg = write_config(tmp_path / "w.cfg",
                                   w.config_text(0, "out", **keys))
                parse_config(cfg)


def _sized(lo, hi, *beyond):
    """Small values that decode in milliseconds, or values past a limit."""
    return st.one_of(st.integers(lo, hi), st.sampled_from(beyond)).map(str)


_JUNK = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\r\n"), max_size=12)
_FLOAT_TEXT = st.one_of(
    st.floats(), st.floats(-2.0, 3.0),
    st.sampled_from([0.0, 1.0, 0.5, 1e-300, 1e300])).map(repr)
_VALUES = {
    **{key: _FLOAT_TEXT for key in _FLOAT_KEYS},
    "mode": st.sampled_from(MODES + ("diffusion",)),
    "preset": st.sampled_from(["llamagen", "star", "gpt"]),
    "seed": _sized(-3, 1 << 70, -1),
    "vocab": _sized(-1, 9, MAX_VOCAB + 1, 10 ** 9),
    "height": _sized(-1, 5, MAX_CELLS + 1),
    "width": _sized(-1, 5, MAX_CELLS + 1),
    "length": _sized(-1, 30, MAX_LENGTH + 1),
    "steps": _sized(-1, 30, 10 ** 9),
    "window": _sized(-1, 6, MAX_WINDOW + 1),
    "top_k": _sized(-1, 10, 10 ** 9),
    "rect": st.lists(st.integers(-1, 5), max_size=5).map(
        lambda v: ",".join(map(str, v))),
    "ladder": st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
                       max_size=4).map(
        lambda v: ",".join(f"{h}x{w}" for h, w in v)),
    "literal_noise_decay": st.sampled_from(["true", "0", "1", "yes"]),
}
# mostly known keys with values of their own kind, sometimes junk text
_KEYED = st.sampled_from(sorted(_VALUES)).flatmap(
    lambda key: st.integers(0, 9).flatmap(
        lambda i: _JUNK if i == 0 else _VALUES[key]).map(
        lambda value: f"{key} = {value}"))
_LINE = st.integers(0, 19).flatmap(lambda i: _JUNK if i == 0 else _KEYED)
# sweep values: integers, fractions, huge and non-finite floats, junk
_SWEEP_VALUE = st.one_of(
    st.integers(-2, 40).map(str), st.floats(-2.0, 40.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e400", "1e300", "1e18", "nan", "8.0"]),
    _JUNK)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINE, max_size=14))
    def test_generate_exits_0_2_or_3(self, lines):
        with tempfile.TemporaryDirectory() as d:
            # the last out_dir line wins, so artifacts stay in d
            lines = lines + [f"out_dir = {os.path.join(d, 'out')}"]
            path = write_config(Path(d) / "run.cfg", "\n".join(lines) + "\n")
            assert main(["generate", path]) in (0, 2, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MODES),
           st.one_of(st.sampled_from(sorted(SWEEP_PARAMS)), _JUNK),
           st.lists(_SWEEP_VALUE, min_size=1, max_size=3))
    def test_sweep_exits_0_2_or_3(self, mode, param, values):
        with tempfile.TemporaryDirectory() as d:
            path = write_config(Path(d) / "run.cfg", f"""
mode = {mode}
vocab = 8
height = 4
width = 4
context_sensitivity = 0.5
steps = 4
window = 4
out_dir = {os.path.join(d, 'out')}
""")
            try:
                code = main(["sweep", path, param, ",".join(values)])
            except SystemExit as exc:
                # argparse's usage error or --help: only a junk parameter
                # name such as "-x" reads as an option
                assert param.startswith("-")
                code = exc.code
            assert code in (0, 2, 3)


def artifact(tmp_path, name):
    return os.path.join(tmp_path / "out", name)


def artifact_lines(tmp_path, name):
    return Path(artifact(tmp_path, name)).read_text().splitlines()


class TestGenerate:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["generate", base_config(tmp_path)]) == 0
        bad = write_config(tmp_path / "bad.cfg", "tempp0 = 1\n")
        assert main(["generate", bad]) == 2
        assert "tempp0" in capsys.readouterr().err
        bad = write_config(tmp_path / "bad2.cfg", "mode = diffusion\n")
        assert main(["generate", bad]) == 3

    def test_unwritable_out_dir(self, tmp_path, capsys):
        # out_dir below a regular file cannot be created
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = base_config(tmp_path, extra=f"out_dir = {blocker / 'out'}\n")
        assert main(["generate", cfg]) == 3
        assert main(["sweep", cfg, "alpha", "1,2"]) == 3
        assert capsys.readouterr().err.count("invalid parameters:") == 2

    @pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
    def test_non_finite_float_rejected(self, tmp_path, capsys, key):
        # a NaN passes every comparison, so range checks alone let it in
        for value in ("nan", "inf", "-inf"):
            cfg = base_config(tmp_path, "spec-entropy", f"{key} = {value}\n")
            assert main(["generate", cfg]) == 3
            assert f"{key} must be finite" in capsys.readouterr().err
            assert not os.path.exists(artifact(tmp_path, "tokens.csv"))

    def test_artifacts_exist(self, tmp_path):
        main(["generate", base_config(tmp_path)])
        for name in ("tokens.csv", "entropy.csv", "entropy.pgm", "report.csv"):
            assert os.path.exists(artifact(tmp_path, name))
        tokens = np.loadtxt(artifact(tmp_path, "tokens.csv"), delimiter=",")
        assert tokens.shape == (8, 8)
        assert pgm.read_pgm(artifact(tmp_path, "entropy.pgm")).shape == (8, 8)

    @pytest.mark.parametrize("mode", ["next-token", "mask", "scale",
                                      "spec-baseline", "spec-entropy"])
    def test_all_modes_run(self, tmp_path, mode):
        extra = "steps = 8\n" if mode == "mask" else ""
        assert main(["generate", base_config(tmp_path, mode, extra)]) == 0
        report = artifact_lines(tmp_path, "report.csv")
        assert report[0].startswith("mode,seed,")
        assert report[1].startswith(mode + ",")

    def test_scale_mode_extra_artifact(self, tmp_path):
        main(["generate", base_config(tmp_path, "scale")])
        rows = artifact_lines(tmp_path, "scales.csv")
        assert rows[0] == "scale,mean_entropy"
        assert len(rows) == 1 + 4  # ladder 1x1, 2x2, 4x4, 8x8

    def test_report_accounting_spec_mode(self, tmp_path):
        main(["generate", base_config(tmp_path, "spec-baseline",
                                      "length = 64\nwindow = 8\n")])
        header, row = artifact_lines(tmp_path, "report.csv")
        rec = dict(zip(header.split(","), row.split(",")))
        assert int(rec["tokens_emitted"]) == 64
        assert int(rec["model_invocations"]) >= 64 // 8
        assert int(rec["accepted"]) <= int(rec["accept_tests"])


class TestEntropyMap:
    def test_writes_maps_only(self, tmp_path):
        assert main(["entropy-map", base_config(tmp_path)]) == 0
        assert os.path.exists(artifact(tmp_path, "entropy.pgm"))
        assert os.path.exists(artifact(tmp_path, "entropy.csv"))
        assert not os.path.exists(artifact(tmp_path, "tokens.csv"))

    def test_kappa_extremes(self, tmp_path):
        low = write_config(tmp_path / "low.cfg", f"""
mode = next-token
vocab = 64
height = 4
width = 4
kappa_bg = 1.0
out_dir = {tmp_path / 'out'}
""")
        main(["entropy-map", low])
        pix = pgm.read_pgm(artifact(tmp_path, "entropy.pgm"))
        assert np.all(pix <= 2)
        high = write_config(tmp_path / "high.cfg", f"""
mode = next-token
vocab = 64
height = 4
width = 4
kappa_bg = 0.0
out_dir = {tmp_path / 'out'}
""")
        main(["entropy-map", high])
        pix = pgm.read_pgm(artifact(tmp_path, "entropy.pgm"))
        assert np.all(pix >= 240)

    def test_rectangle_visible(self, tmp_path):
        main(["entropy-map", base_config(tmp_path)])
        pix = pgm.read_pgm(artifact(tmp_path, "entropy.pgm")).astype(float)
        inside = pix[2:6, 2:6].mean()
        outside = (pix.sum() - pix[2:6, 2:6].sum()) / (64 - 16)
        assert inside > outside + 50


class TestSweep:
    def test_alpha_sweep_monotone_temperature(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["sweep", cfg, "alpha", "1,2,3,4,5"]) == 0
        capsys.readouterr()
        rows = artifact_lines(tmp_path, "sweep.csv")
        assert len(rows) == 6
        temps = [float(r.split(",")[4]) for r in rows[1:]]
        assert all(a <= b for a, b in zip(temps, temps[1:]))

    def test_sweep_e_acceptance_nondecreasing(self, tmp_path, capsys):
        cfg = base_config(tmp_path, "spec-entropy",
                          "length = 128\nwindow = 8\n")
        assert main(["sweep", cfg, "e", "4,8,16"]) == 0
        capsys.readouterr()
        rows = artifact_lines(tmp_path, "sweep.csv")
        rates = [float(r.split(",")[6]) for r in rows[1:]]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_unknown_parameter(self, tmp_path, capsys):
        assert main(["sweep", base_config(tmp_path), "zeta", "1,2"]) == 3
        capsys.readouterr()

    def test_empty_values(self, tmp_path, capsys):
        assert main(["sweep", base_config(tmp_path), "alpha", ","]) == 3
        capsys.readouterr()

    def test_invalid_swept_value_rejected(self, tmp_path, capsys):
        assert main(["sweep", base_config(tmp_path), "T0", "1,-2"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("values", ["1e400", "2,inf", "1.5", "nan"])
    def test_integer_parameter_needs_integral_values(self, tmp_path, capsys,
                                                     values):
        # top_k = 1.5 in a config is a syntax error; swept, it must not
        # run as 1, and a non-finite value must not escape as a traceback
        assert main(["sweep", base_config(tmp_path), "K", values]) == 3
        assert "bad sweep values" in capsys.readouterr().err
        assert not os.path.exists(artifact(tmp_path, "sweep.csv"))

    @pytest.mark.parametrize("values", ["-1e-3", "-1,2", "-1"])
    def test_values_starting_with_minus_reach_the_sweep(self, tmp_path,
                                                        capsys, values):
        # argparse used to read "-1e-3" and "-1,2" as options and exit 2
        # with a usage error; like T0 = -1e-3 in a config, they are invalid
        # parameters
        assert main(["sweep", base_config(tmp_path), "T0", values]) == 3
        assert "invalid parameters" in capsys.readouterr().err
        assert not os.path.exists(artifact(tmp_path, "sweep.csv"))

    @pytest.mark.parametrize("extra", [[], ["1", "2"]])
    def test_one_value_list_required(self, tmp_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", base_config(tmp_path), "T0", *extra])
        assert exc.value.code == 2
        assert "one comma-separated list" in capsys.readouterr().err

    def test_integer_parameter_accepts_integral_float(self, tmp_path, capsys):
        assert main(["sweep", base_config(tmp_path), "K", "8.0,3"]) == 0
        capsys.readouterr()
        rows = artifact_lines(tmp_path, "sweep.csv")
        assert [r.split(",")[1] for r in rows[1:]] == ["8", "3"]


class TestCommandPaths:
    """What each command prints and writes, where generate and entropy-map
    share one path and sweep prints the CSV it writes."""

    @pytest.mark.parametrize("command", ["generate", "entropy-map"])
    def test_unknown_preset_exits_3_without_artifacts(self, tmp_path, capsys,
                                                      command):
        cfg = base_config(tmp_path, extra="preset = nope\n")
        assert main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert "invalid parameters: unknown preset 'nope'" in captured.err
        assert captured.out == ""
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("mode,param,values", [
        ("next-token", "alpha", "1,2.5"),
        ("next-token", "K", "8.0,3"),
        ("spec-entropy", "e", "4,8,16"),
    ])
    def test_sweep_prints_the_csv_it_writes(self, tmp_path, capsys, mode,
                                           param, values):
        cfg = base_config(tmp_path, mode, "length = 32\nwindow = 4\n")
        assert main(["sweep", cfg, param, values]) == 0
        written = Path(artifact(tmp_path, "sweep.csv")).read_text()
        assert capsys.readouterr().out == written
        assert len(written.splitlines()) == 1 + len(values.split(","))

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = config.build_run

        def counted(cfg):
            builds.append(cfg.mode)
            return build(cfg)

        monkeypatch.setattr(config, "build_run", counted)
        monkeypatch.setattr(cli, "build_run", counted)
        return builds

    @pytest.mark.parametrize("command", ["generate", "entropy-map"])
    @pytest.mark.parametrize("mode", MODES)
    def test_generate_builds_the_run_once(self, tmp_path, monkeypatch,
                                          command, mode):
        # reading the config builds nothing; cli.run builds the run's
        # objects once, its random stream among them
        builds = self.count_builds(monkeypatch)
        cfg = base_config(tmp_path, mode, "length = 32\nwindow = 4\n")
        assert main([command, cfg]) == 0
        assert builds == [mode]

    def test_sweep_builds_once_per_value(self, tmp_path, monkeypatch):
        # plus once for the gate on the config it starts from
        builds = self.count_builds(monkeypatch)
        cfg = base_config(tmp_path, "spec-entropy", "length = 32\n")
        assert main(["sweep", cfg, "e", "4,8,16"]) == 0
        assert len(builds) == 1 + 3

    def test_entropy_map_summary_line(self, tmp_path, capsys):
        assert main(["entropy-map", base_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"entropy map written to {tmp_path / 'out'} "
                              "(mean=")
        assert out.count("\n") == 1


def float_digest(values):
    """Short SHA-256 of the exact float64 bytes, for bit-level goldens."""
    raw = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# Frozen next-token regression values: (context sensitivity, sampling
# options, token grid, entropy-map digest, temperature digest) for an 8x8
# run with seed 3. Recorded from the per-position loop that refolds the
# whole prefix (commit 8aa6442) so that restructuring it stays
# byte-identical.
NEXT_TOKEN_GOLDEN = [
    (0.0, {},
     [[1, 9, 12, 7, 3, 6, 9, 12], [14, 15, 12, 2, 14, 1, 4, 5], [5, 0, 7, 0, 6, 1, 1, 8], [10, 8, 12, 13, 15, 11, 13, 7], [15, 9, 12, 0, 5, 15, 6, 4], [6, 2, 12, 8, 13, 9, 7, 3], [14, 10, 6, 8, 6, 7, 5, 12], [14, 0, 15, 5, 10, 1, 14, 8]],
     'bb8197202f391913', 'e35ccffefd8ab3ea'),
    (0.0, {'cfg_scale': 1.5, 'top_k': 5},
     [[1, 9, 2, 7, 3, 6, 9, 12], [14, 15, 7, 2, 14, 1, 4, 5], [5, 0, 7, 3, 10, 0, 1, 8], [10, 8, 12, 10, 14, 12, 13, 14], [9, 9, 14, 0, 2, 14, 4, 14], [6, 0, 11, 5, 15, 13, 7, 3], [6, 10, 6, 1, 6, 7, 5, 12], [15, 2, 15, 15, 1, 1, 14, 8]],
     '11a1b638a4c4be51', '848e534eb8b84fda'),
    (0.0, {'top_p': 0.9},
     [[1, 9, 12, 7, 3, 6, 9, 12], [14, 15, 11, 2, 14, 1, 4, 5], [5, 0, 7, 0, 5, 1, 1, 8], [10, 8, 12, 12, 15, 11, 13, 8], [14, 9, 12, 0, 5, 15, 5, 4], [6, 0, 13, 9, 13, 9, 7, 3], [11, 10, 6, 8, 6, 7, 5, 12], [15, 0, 15, 7, 10, 1, 14, 8]],
     'bb8197202f391913', 'e35ccffefd8ab3ea'),
    (0.5, {},
     [[1, 9, 12, 7, 3, 6, 9, 12], [14, 15, 12, 2, 14, 1, 4, 5], [5, 0, 7, 0, 6, 1, 1, 8], [10, 8, 12, 13, 15, 12, 13, 7], [15, 9, 12, 1, 5, 15, 6, 4], [6, 3, 12, 8, 13, 9, 7, 3], [14, 10, 6, 8, 6, 7, 5, 12], [15, 0, 15, 5, 11, 1, 14, 8]],
     'db332cbe3596c383', 'b2d837f4685adfdf'),
    (0.5, {'cfg_scale': 1.5, 'top_k': 5},
     [[1, 9, 2, 7, 3, 6, 9, 12], [14, 15, 7, 2, 14, 1, 4, 5], [5, 0, 10, 3, 1, 0, 1, 8], [10, 8, 14, 12, 14, 12, 13, 14], [12, 9, 13, 0, 5, 14, 4, 14], [6, 0, 13, 9, 15, 9, 7, 3], [5, 10, 6, 1, 6, 7, 5, 12], [15, 4, 15, 15, 1, 1, 14, 8]],
     'f81c2aa5f8725bf9', 'e1a91cab31fa3465'),
    (0.5, {'top_p': 0.9},
     [[1, 9, 12, 7, 3, 6, 9, 12], [14, 15, 12, 2, 14, 1, 4, 5], [5, 0, 6, 0, 6, 1, 1, 8], [10, 8, 11, 12, 15, 11, 13, 8], [14, 9, 12, 0, 5, 15, 5, 5], [6, 1, 13, 8, 13, 9, 7, 3], [13, 10, 6, 6, 6, 7, 5, 12], [15, 0, 15, 7, 9, 1, 14, 8]],
     'f2a6526f412857ab', '60e55e0f565abefb'),
]


class TestNextTokenGolden:
    @pytest.mark.parametrize("c,options,grid,emap_digest,temp_digest",
                             NEXT_TOKEN_GOLDEN)
    def test_golden(self, c, options, grid, emap_digest, temp_digest):
        result = run(RunConfig(mode="next-token", seed=3, vocab=16, height=8,
                               width=8, kappa_bg=0.3, kappa_fg=0.0,
                               rect=(2, 2, 4, 4), context_sensitivity=c,
                               **options))
        assert result.tokens.tolist() == grid
        assert float_digest(result.entropy_map) == emap_digest
        assert float_digest(result.temps) == temp_digest
        assert len(result.temps) == 64


# Frozen artifact files: a short SHA-256 of each file `generate` writes for
# the harness config (seed 3, V = 16, 8x8, context 0.5) with guidance 1.5
# and top-p 0.9, one config per mode (8 steps in mask mode). Recorded at
# commit 5159eb5, before the artifact rows were formatted from Python
# lists; report.csv holds no wall time, so every file is deterministic.
ARTIFACT_GOLDEN = {
    "next-token": {"entropy.csv": "1907706685cf805c",
                   "entropy.pgm": "622ceab68849a525",
                   "report.csv": "54dc639a5beeb61e",
                   "tokens.csv": "574ae48618580f11"},
    "mask": {"entropy.csv": "40b6fbc3bcf4f262",
             "entropy.pgm": "f6b194562d909419",
             "report.csv": "9e477b87a8abe025",
             "tokens.csv": "aa2ecdbd50786a03"},
    "scale": {"entropy.csv": "5d4d513526ce5800",
              "entropy.pgm": "fcd9bffab4d5b570",
              "report.csv": "7bee68842013d104",
              "scales.csv": "a266dc2fec8a7939",
              "tokens.csv": "b0c42a3db5e204ed"},
    "spec-baseline": {"entropy.csv": "31e04d9fdc178876",
                      "entropy.pgm": "eb3074ec15671b97",
                      "report.csv": "e758e32378f5aed0",
                      "tokens.csv": "26d4b6ee675d0ccb"},
    "spec-entropy": {"entropy.csv": "31e04d9fdc178876",
                     "entropy.pgm": "eb3074ec15671b97",
                     "report.csv": "379e03569b845952",
                     "tokens.csv": "26d4b6ee675d0ccb"},
}


class TestArtifactGolden:
    @pytest.mark.parametrize("mode", sorted(ARTIFACT_GOLDEN))
    def test_golden_files(self, tmp_path, mode):
        extra = "cfg_scale = 1.5\ntop_p = 0.9\n"
        if mode == "mask":
            extra += "steps = 8\n"
        assert main(["generate", base_config(tmp_path, mode, extra)]) == 0
        got = {name: hashlib.sha256(
                   Path(artifact(tmp_path, name)).read_bytes()).hexdigest()[:16]
               for name in sorted(os.listdir(tmp_path / "out"))}
        assert got == ARTIFACT_GOLDEN[mode]
