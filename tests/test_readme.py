"""README's Library example runs and its comments state true values."""

import re
from pathlib import Path

from polycomplete.fixtures import cyclic_incidence

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
