"""README's Library example runs and its comments state true values, and
its console session prints what README shows."""

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from polycomplete import cli
from polycomplete.fixtures import cube_km, cyclic_incidence, delete_minor
from polycomplete.incidence import IncidenceMinor, serialize_incidence

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block():
    block = library_block()
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    # every line commented "# True" or "# False" evaluates to that value
    claims = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        word = comment.split()[0] if comment.strip() else ""
        if word in ("True", "False"):
            claims[code.strip()] = word == "True"
    assert claims == {
        "decide(3, km)": True,
        "decide(4, km)": False,
        "verify_certificate(3, delete_minor(km, rows=[1]), cert)": True,
    }
    for code, value in claims.items():
        assert eval(code, ns) is value
    # "as a minor of C_4(8) it misses 14 facets"
    assert cyclic_incidence(4, 8).m - ns["km"].m == 14
    report = ns["report"]
    assert report.complete
    assert (report.side, report.boundary_d_shape, report.boundary_d_rank, report.boundary_d1_kernel) == (
        "dual",
        (8, 0),
        0,
        1,
    )


def console_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    return re.search(r"```console\n(.*?)```", section, re.S).group(1)


def run_console(command: str, monkeypatch) -> tuple[list[int], str]:
    """Exit codes and stdout of a '$' line: polycomplete stages joined by
    '|', the last one optionally redirected with '>'."""
    command, _, target = command.partition(" > ")
    codes, text = [], ""
    for stage in command.split(" | "):
        program, *argv = stage.split()
        assert program == "polycomplete"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes.append(cli.main(argv))
        assert err.getvalue() == ""
        text = out.getvalue()
    if target:
        Path(target).write_text(text, encoding="utf-8")
        text = ""
    return codes, text


def test_console_block(tmp_path, monkeypatch):
    block = console_block()
    # the two input files, as the block's comments describe them
    assert "declared as d=4" in block and "cube-km without row 1" in block
    km = cube_km()
    (tmp_path / "km4.inc").write_text(serialize_incidence(IncidenceMinor(4, km.n, km.row_masks)))
    (tmp_path / "minor.inc").write_text(serialize_incidence(delete_minor(km, rows=[1])))
    monkeypatch.chdir(tmp_path)
    sessions = []  # [command, what README shows it print]
    for line in block.splitlines():
        if line.startswith("$ "):
            sessions.append([line[2:].split("#")[0].strip(), ""])
        elif line:
            sessions[-1][1] += line + "\n"
    codes = {}
    for command, shown in sessions:
        codes[command], printed = run_console(command, monkeypatch)
        assert printed == shown, command
    assert codes == {
        "polycomplete gen cube-km | polycomplete check -": [0, 0],
        "polycomplete check --machine km4.inc": [1],
        "polycomplete certify km4.inc": [1],
        "polycomplete certify minor.inc > cert.txt": [1],
        "polycomplete verify minor.inc cert.txt": [0],
    }
    assert Path("cert.txt").read_text(encoding="utf-8") == "RIDGE 2 3\n"


def test_package_exports_the_documented_api():
    import polycomplete

    assert sorted(polycomplete.__all__) == [
        "__version__",
        "analyze",
        "decide",
        "find_certificate",
        "verify_certificate",
    ]
    for name in polycomplete.__all__:
        assert hasattr(polycomplete, name)
