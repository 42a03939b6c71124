"""The README's examples run as documented, so documentation drift fails."""

import re
import shlex
from pathlib import Path

import pytest

from maxminalloc import cli, gen
from maxminalloc.model import (
    Epsilon,
    parse_allocation,
    parse_instance,
    serialize_instance,
    verify_allocation,
)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def cli_examples():
    """Every `maxminalloc ...` command in the README's sh blocks, with
    backslash continuations joined and comments dropped."""
    commands = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("maxminalloc "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_cli_examples_exit_ok(tmp_path, monkeypatch, capsys):
    commands = cli_examples()
    assert [argv[0] for argv in commands] == [
        "generate", "solve", "estimate", "verify", "bench"]
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus_dir"  # the directory the bench example reads
    corpus.mkdir()
    inst = gen.gen_random(3, 2, 4, 0.6, Epsilon(1, 2), 0)
    (corpus / "i0.json").write_bytes(serialize_instance(inst))
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, argv
    capsys.readouterr()
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 3


def test_exit_codes_documented():
    line = re.search(r"Exit codes: (.*?)\n\n", README, re.S).group(1)
    documented = {int(code) for code in re.findall(r"(\d) [a-zA-Z]", line)}
    assert documented == {cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_PARSE,
                          cli.EXIT_SIZE_CAP, cli.EXIT_LP}


def parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:  # argparse rejects an unknown flag or a bad value
        return False
    return True


@pytest.mark.parametrize("command", ["solve", "bench", "estimate"])
def test_documented_knobs_accepted(command, capsys):
    section = README.split("Knobs per subcommand:", 1)[1].split("\n## ", 1)[0]
    knobs = {}
    for names, flags in re.findall(r"^- (`.*?`): (.*?)\n(?=- |\n|\Z)", section, re.S | re.M):
        for name in re.findall(r"`(\w+)`", names):
            knobs[name] = re.findall(r"`(--[\w-]+)`", flags)
    assert knobs[command]
    base = [command, "x.json"] + (["--out", "x.csv"] if command == "bench" else [])
    for flag in knobs[command]:  # a valued knob, or a switch
        assert parses(base + [flag, "1"]) or parses(base + [flag]), flag
    capsys.readouterr()


def test_instance_format_example():
    inst_doc, alloc_doc = code_blocks("json")[0], re.search(
        r"An allocation file is\s+`(\{.*?\})`", README, re.S).group(1)
    inst = parse_instance(inst_doc.encode())
    alloc = parse_allocation(alloc_doc.encode())
    assert verify_allocation(inst, alloc) == []
