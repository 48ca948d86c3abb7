import functools
import inspect
import io
import sys
import types

import numpy as np
import pytest

from adsm import cli
from adsm.cli import main
from adsm.corpus import SyntheticSpec, write_transcripts
from adsm.encoder import TrainConfig, init_params, load_params, save_params
from adsm.errors import FormatError
from adsm.pipeline import PipelineConfig
from adsm.textseg import EOS, SubwordNgramLM, detokenize, segment_corpus, train_lm
from adsm.vocab import SegTable, Vocabulary

LEXICON = "ab\tab\ncd\tcd\nabcd\tab cd\ncdab\tcd ab\n"


@pytest.fixture(scope="module")
def datadir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    lex = root / "lexicon.tsv"
    lex.write_text(LEXICON, encoding="utf-8")
    out = root / "corpus"
    rc = main(["gen-synthetic", "--lexicon", str(lex), "--outdir", str(out),
               "--dim", "8", "--frames-per-unit", "4", "--noise", "0.1",
               "--utterances", "30", "--min-words", "2", "--max-words", "3",
               "--seed", "0"])
    assert rc == 0
    return out


def test_gen_synthetic_outputs(datadir, tmp_path):
    for name in ("features.tsv", "transcripts.tsv", "truth.tsv", "g2p.tsv"):
        assert (datadir / name).exists()
    assert (datadir / "g2p.tsv").read_text(encoding="utf-8").startswith("#adsm-g2p-v1")
    # same seed, same bytes
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(LEXICON, encoding="utf-8")
    again = tmp_path / "again"
    rc = main(["gen-synthetic", "--lexicon", str(lex), "--outdir", str(again),
               "--dim", "8", "--frames-per-unit", "4", "--noise", "0.1",
               "--utterances", "30", "--min-words", "2", "--max-words", "3",
               "--seed", "0"])
    assert rc == 0
    for name in ("features.tsv", "transcripts.tsv", "truth.tsv", "g2p.tsv"):
        assert (again / name).read_bytes() == (datadir / name).read_bytes()


def test_full_workflow(datadir, tmp_path, capsys):
    d = str(datadir)
    vocab0 = str(tmp_path / "vocab0.tsv")
    table0 = str(tmp_path / "table0.tsv")
    rc = main(["init", "--g2p", f"{d}/g2p.tsv", "--transcripts",
               f"{d}/transcripts.tsv", "--out-vocab", vocab0,
               "--out-segtable", table0])
    assert rc == 0
    assert "vocabulary:" in capsys.readouterr().out
    Vocabulary.load(vocab0)  # loadable artifacts

    params = str(tmp_path / "params.tsv")
    rc = main(["train", "--features", f"{d}/features.tsv", "--transcripts",
               f"{d}/transcripts.tsv", "--vocab", vocab0, "--segtable", table0,
               "--out-params", params, "--subsample", "2", "--hidden", "16",
               "--radii", "0", "--epochs", "3", "--lr", "1.0", "--batch", "8",
               "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch 0" in out and "epoch 2" in out

    stats = str(tmp_path / "stats.tsv")
    ali = str(tmp_path / "alignments.tsv")
    rc = main(["align", "--features", f"{d}/features.tsv", "--transcripts",
               f"{d}/transcripts.tsv", "--vocab", vocab0, "--segtable", table0,
               "--params", params, "--lambda", "0.3", "--out-stats", stats,
               "--out-alignments", ali])
    assert rc == 0
    assert "aligned 30" in capsys.readouterr().out

    vocab1 = str(tmp_path / "vocab1.tsv")
    table1 = str(tmp_path / "table1.tsv")
    rc = main(["refine", "--stats", stats, "--mu", "0.05",
               "--out-vocab", vocab1, "--out-segtable", table1])
    assert rc == 0
    assert "kept" in capsys.readouterr().out

    vocab2 = str(tmp_path / "vocab2.tsv")
    table2 = str(tmp_path / "table2.tsv")
    rc = main(["merge", "--vocab", vocab1, "--segtable", table1,
               "--out-vocab", vocab2, "--out-segtable", table2])
    assert rc == 0
    assert "enlarged" in capsys.readouterr().out

    vocabf = str(tmp_path / "vocabf.tsv")
    tablef = str(tmp_path / "tablef.tsv")
    rc = main(["finalize", "--stats", stats, "--k", "5", "--mu", "0.05",
               "--out-vocab", vocabf, "--out-segtable", tablef])
    assert rc == 0
    assert "final table" in capsys.readouterr().out

    text_in = tmp_path / "text.txt"
    text_in.write_text("ab cd\ncdab dcba\n", encoding="utf-8")
    text_out = tmp_path / "segmented.txt"
    lm_out = str(tmp_path / "lm.tsv")
    rc = main(["segment-text", "--vocab", vocabf, "--segtable", tablef,
               "--input", str(text_in), "--output", str(text_out),
               "--out-lm", lm_out])
    assert rc == 0
    segged = text_out.read_text(encoding="utf-8").splitlines()
    assert [detokenize(s) for s in segged] == ["ab cd", "cdab dcba"]

    # the saved LM feeds a second run and gives identical output
    rerun = tmp_path / "segmented2.txt"
    rc = main(["segment-text", "--vocab", vocabf, "--segtable", tablef,
               "--lm", lm_out, "--input", str(text_in), "--output", str(rerun)])
    assert rc == 0
    assert rerun.read_bytes() == text_out.read_bytes()

    rc = main(["report", "--vocab", vocabf, "--segtable", tablef,
               "--step", "final", "--token-level", "--transcripts",
               f"{d}/transcripts.tsv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("#adsm-metrics-v1")
    assert "final" in out


def test_run_subcommand(datadir, tmp_path, capsys):
    d = str(datadir)
    outdir = tmp_path / "run"
    rc = main(["run", "--g2p", f"{d}/g2p.tsv", "--features", f"{d}/features.tsv",
               "--transcripts", f"{d}/transcripts.tsv", "--outdir", str(outdir),
               "--merge-rounds", "1", "--subsample", "2", "--hidden", "16",
               "--radii", "0", "--epochs", "3", "--lr", "1.0", "--batch", "8",
               "--k", "5", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("#adsm-metrics-v1")
    for step in ("init", "refine-1", "merge-1", "final"):
        assert step in out
    for name in ("vocab.tsv", "segtable.tsv", "params.txt", "targets.tsv",
                 "metrics.tsv"):
        assert (outdir / name).exists()


def test_defaults_are_the_dataclass_defaults(datadir, tmp_path, monkeypatch):
    parser = cli.build_parser()
    assert cli._train_config(cli._Args(parser.parse_args(["train"]))) == TrainConfig()
    seen = []
    monkeypatch.setattr(cli, "run_pipeline", lambda corp, entries, config, outdir:
                        seen.append(config) or types.SimpleNamespace(metrics=[]))
    d = str(datadir)
    assert main(["run", "--g2p", f"{d}/g2p.tsv", "--features", f"{d}/features.tsv",
                 "--transcripts", f"{d}/transcripts.tsv", "--outdir", "unused"]) == 0
    assert seen == [PipelineConfig()]

    def defaults(func, *keys):
        params = inspect.signature(func).parameters
        return {key: params[key].default for key in keys}

    def recorder(func, result):
        """``func``'s signature, recording the keywords of each call."""
        return functools.wraps(func)(lambda *args, **kw: seen.append(kw) or result)

    monkeypatch.setattr(cli, "train_lm", recorder(train_lm, None))
    monkeypatch.setattr(cli, "segment_corpus", recorder(segment_corpus, []))
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    vpath, tpath = _ab_cd_table(tmp_path)
    assert main(["segment-text", "--vocab", vpath, "--segtable", tpath]) == 0
    assert seen[1:] == [defaults(train_lm, "order", "add_k"),
                        defaults(segment_corpus, "mode", "seed")]

    def stop(spec):
        seen.append(spec)
        raise ValueError("stopped after the spec")

    monkeypatch.setattr(cli.corpus_io, "gen_synthetic", stop)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(LEXICON, encoding="utf-8")
    assert main(["gen-synthetic", "--lexicon", str(lexicon), "--outdir", "unused"]) == 2
    assert seen[3:] == [SyntheticSpec(cli._read_seg_lexicon(lexicon))]


def test_seg_lexicon_rejects_a_repeated_word(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("# word<TAB>chunks\nab\tab\n\nab\ta b\n", encoding="utf-8")
    with pytest.raises(FormatError, match="repeated word") as err:
        cli._read_seg_lexicon(lexicon)
    assert err.value.line == 4
    assert main(["gen-synthetic", "--lexicon", str(lexicon), "--outdir",
                 str(tmp_path / "out")]) == 2
    assert "repeated word" in capsys.readouterr().err


def test_segment_text_stdin_stdout(tmp_path, capsys, monkeypatch):
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True),
         ("c", False), ("c", True), ("d", False), ("d", True),
         ("ab", True), ("cd", True)])
    table = SegTable.explicit(
        {"ab": [((vocab.id("ab", True),), 1.0)],
         "cd": [((vocab.id("cd", True),), 1.0)]}, vocab)
    vpath, tpath = str(tmp_path / "vocab.tsv"), str(tmp_path / "table.tsv")
    vocab.save(vpath)
    table.save(tpath)
    monkeypatch.setattr(sys, "stdin", io.StringIO("ab cd\n"))
    rc = main(["segment-text", "--vocab", vpath, "--segtable", tpath])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [detokenize(s) for s in lines] == ["ab cd"]



def _ab_cd_table(tmp_path):
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True),
         ("c", False), ("c", True), ("d", False), ("d", True),
         ("ab", True), ("cd", True)])
    table = SegTable.explicit({"ab": [((vocab.id("ab", True),), 1.0)]}, vocab)
    vpath, tpath = str(tmp_path / "vocab.tsv"), str(tmp_path / "table.tsv")
    vocab.save(vpath)
    table.save(tpath)
    return vpath, tpath


def test_word_missing_from_the_table_exits_2(datadir, tmp_path, capsys):
    d = str(datadir)
    vpath, tpath = _ab_cd_table(tmp_path)
    rc = main(["train", "--features", f"{d}/features.tsv", "--transcripts",
               f"{d}/transcripts.tsv", "--vocab", vpath, "--segtable", tpath,
               "--out-params", str(tmp_path / "params.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err and "not in the segmentation table" in err


def test_lm_missing_a_unit_exits_2(tmp_path, capsys, monkeypatch):
    vpath, tpath = _ab_cd_table(tmp_path)
    lm_path = str(tmp_path / "lm.tsv")
    SubwordNgramLM(order=2, add_k=0.1, events=("a", "b_", EOS)).save(lm_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("ab cd\n"))
    rc = main(["segment-text", "--vocab", vpath, "--segtable", tpath, "--lm", lm_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err and "'c'" in err and "not an event of the LM" in err


def test_internal_key_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    def broken(a):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_report", broken)
    vpath, tpath = _ab_cd_table(tmp_path)
    with pytest.raises(KeyError, match="missing"):
        main(["report", "--vocab", vpath, "--segtable", tpath])
    assert "input error" not in capsys.readouterr().err

def test_config_file_defaults_and_flag_override(datadir, tmp_path, capsys):
    d = str(datadir)
    vocab0 = str(tmp_path / "vocab0.tsv")
    table0 = str(tmp_path / "table0.tsv")
    assert main(["init", "--g2p", f"{d}/g2p.tsv", "--transcripts",
                 f"{d}/transcripts.tsv", "--out-vocab", vocab0,
                 "--out-segtable", table0]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# defaults\nepochs=4\nhidden=12,12\nradii=0,0\n"
                   "subsample=2\nlr=1.0\nbatch=8\n", encoding="utf-8")
    params = str(tmp_path / "params.tsv")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--features", f"{d}/features.tsv",
               "--transcripts", f"{d}/transcripts.tsv", "--vocab", vocab0,
               "--segtable", table0, "--out-params", params, "--epochs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    # flag wins over the config's epochs=4
    assert sum(line.startswith("epoch ") for line in out.splitlines()) == 2
    # hidden sizes came from the config
    assert load_params(params).hidden_sizes == (12, 12)


def test_config_keys_use_underscores(tmp_path):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(LEXICON, encoding="utf-8")
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("frames-per-unit=3\nutterances=5\nmin-words=1\n"
                   "max-words=1\ndim=6\n", encoding="utf-8")
    out = tmp_path / "corpus"
    rc = main(["gen-synthetic", "--config", str(cfg), "--lexicon", str(lex),
               "--outdir", str(out)])
    assert rc == 0
    from adsm.corpus import read_features
    mats = read_features(out / "features.tsv")
    assert len(mats) == 5
    for mat in mats:
        assert mat.values.shape[1] == 6
        assert mat.values.shape[0] % 3 == 0


def test_bad_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no equals sign here\n", encoding="utf-8")
    rc = main(["report", "--config", str(cfg), "--vocab", "x", "--segtable", "y"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_config_token_level_reads_0_false_1_true(datadir, tmp_path, capsys):
    d = str(datadir)
    vocab0, table0 = str(tmp_path / "vocab0.tsv"), str(tmp_path / "table0.tsv")
    assert main(["init", "--g2p", f"{d}/g2p.tsv", "--out-vocab", vocab0,
                 "--out-segtable", table0]) == 0
    report = ["report", "--vocab", vocab0, "--segtable", table0]
    capsys.readouterr()
    assert main(report) == 0
    by_type = capsys.readouterr().out
    assert main(report + ["--token-level", "--transcripts", f"{d}/transcripts.tsv"]) == 0
    by_token = capsys.readouterr().out
    assert by_token != by_type
    cfg = tmp_path / "report.cfg"
    for body, want in [("token_level=0\n", by_type), ("token-level=false\n", by_type),
                       (f"token_level=1\ntranscripts={d}/transcripts.tsv\n", by_token),
                       (f"token_level=true\ntranscripts={d}/transcripts.tsv\n", by_token)]:
        cfg.write_text(body, encoding="utf-8")
        assert main(report + ["--config", str(cfg)]) == 0, body
        assert capsys.readouterr().out == want, body
    cfg.write_text("token_level=yes\n", encoding="utf-8")
    assert main(report + ["--config", str(cfg)]) == 2
    assert "not 'yes'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "run"])
def test_corpus_without_a_joined_utterance_exits_2(datadir, tmp_path, capsys, command):
    d = str(datadir)
    trans = tmp_path / "other.tsv"
    write_transcripts([("elsewhere", ("ab",))], trans)
    vpath, tpath = _ab_cd_table(tmp_path)
    rest = {"train": ["--vocab", vpath, "--segtable", tpath,
                      "--out-params", str(tmp_path / "params.txt")],
            "run": ["--g2p", f"{d}/g2p.tsv", "--outdir", str(tmp_path / "run")]}[command]
    rc = main([command, "--features", f"{d}/features.tsv", "--transcripts", str(trans)] + rest)
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error: no utterance" in err
    assert f"{d}/features.tsv" in err and str(trans) in err


def test_config_keys_are_the_subcommands_own_options(tmp_path):
    cfg = tmp_path / "align.cfg"
    cfg.write_text("# align\n\nprior-scale = 0.5\nout_stats=a=b.tsv\n", encoding="utf-8")
    a = cli._Args(cli.build_parser().parse_args(["align", "--config", str(cfg)]))
    assert a.config == {"prior_scale": "0.5", "out_stats": "a=b.tsv"}
    assert a.get("prior_scale", None, float) == 0.5


@pytest.mark.parametrize("command, body, message", [
    ("train", "epochs=3\nepochz=3\n", "unknown key 'epochz'"),
    ("align", "out-stats=s.tsv\nlambda=0.3\n", "unknown key 'lambda'"),
    ("align", "prior_scale=0.3\nprior-scale=0.9\n", "repeated key 'prior_scale'"),
])
def test_config_refuses_an_unknown_or_repeated_key_at_its_line(tmp_path, capsys,
                                                               command, body, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body, encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{cfg}:2: {message}" in capsys.readouterr().err


def test_missing_option_exits_2(capsys):
    rc = main(["init"])
    assert rc == 2
    assert "--g2p" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["refine", "--stats", str(tmp_path / "nope.tsv"),
               "--out-vocab", "a", "--out-segtable", "b"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_corrupt_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "vocab.tsv"
    bad.write_text("#wrong-header\n", encoding="utf-8")
    rc = main(["merge", "--vocab", str(bad), "--segtable", str(bad),
               "--out-vocab", "a", "--out-segtable", "b"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_numerical_failure_exits_3(datadir, tmp_path, capsys):
    d = str(datadir)
    vocab0 = str(tmp_path / "vocab0.tsv")
    table0 = str(tmp_path / "table0.tsv")
    assert main(["init", "--g2p", f"{d}/g2p.tsv", "--transcripts",
                 f"{d}/transcripts.tsv", "--out-vocab", vocab0,
                 "--out-segtable", table0]) == 0
    vocab = Vocabulary.load(vocab0)
    params = init_params(8, (16,), vocab.num_classes, 2, (0,), seed=0)
    # finite weights whose output scores overflow: NaN posteriors at align time
    params.out_w[:] = 1e308
    broken = str(tmp_path / "broken.tsv")
    save_params(params, broken)
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        rc = main(["align", "--features", f"{d}/features.tsv", "--transcripts",
                   f"{d}/transcripts.tsv", "--vocab", vocab0, "--segtable", table0,
                   "--params", broken, "--lambda", "0.3", "--out-stats",
                   str(tmp_path / "stats.tsv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_checkpoint_exits_2(datadir, tmp_path, capsys):
    d = str(datadir)
    vocab0 = str(tmp_path / "vocab0.tsv")
    table0 = str(tmp_path / "table0.tsv")
    assert main(["init", "--g2p", f"{d}/g2p.tsv", "--transcripts",
                 f"{d}/transcripts.tsv", "--out-vocab", vocab0,
                 "--out-segtable", table0]) == 0
    vocab = Vocabulary.load(vocab0)
    params = init_params(8, (16,), vocab.num_classes, 2, (0,), seed=0)
    params.arrays()[0][:] = np.nan
    broken = str(tmp_path / "broken.tsv")
    save_params(params, broken)
    capsys.readouterr()
    rc = main(["align", "--features", f"{d}/features.tsv", "--transcripts",
               f"{d}/transcripts.tsv", "--vocab", vocab0, "--segtable", table0,
               "--params", broken, "--lambda", "0.3", "--out-stats",
               str(tmp_path / "stats.tsv")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err



def test_checkpoint_of_another_vocabulary_exits_2(datadir, tmp_path, capsys):
    d = str(datadir)
    vocab0, table0 = str(tmp_path / "vocab0.tsv"), str(tmp_path / "table0.tsv")
    assert main(["init", "--g2p", f"{d}/g2p.tsv", "--transcripts",
                 f"{d}/transcripts.tsv", "--out-vocab", vocab0,
                 "--out-segtable", table0]) == 0
    other = str(tmp_path / "other.tsv")
    save_params(init_params(8, (16,), 5, 2, (0,), seed=0), other)
    capsys.readouterr()
    rc = main(["align", "--features", f"{d}/features.tsv", "--transcripts",
               f"{d}/transcripts.tsv", "--vocab", vocab0, "--segtable", table0,
               "--params", other, "--out-stats", str(tmp_path / "stats.tsv")])
    assert rc == 2
    assert "the encoder has 5 classes" in capsys.readouterr().err

def test_non_positive_stats_count_exits_2(tmp_path, capsys):
    stats = tmp_path / "stats.tsv"
    stats.write_text("#adsm-stats-v1\nab\t-1\tab_\n", encoding="utf-8")
    rc = main(["refine", "--stats", str(stats), "--mu", "0.05",
               "--out-vocab", str(tmp_path / "v.tsv"),
               "--out-segtable", str(tmp_path / "t.tsv")])
    assert rc == 2
    assert "not positive" in capsys.readouterr().err
