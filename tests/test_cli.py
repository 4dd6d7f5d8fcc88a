import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polycomplete.cli import main
from polycomplete.fixtures import delete_minor, geometric_cube_km
from polycomplete.geometry import GeometricInstance, extract_incidence, serialize_geometry
from polycomplete.incidence import IncidenceMinor, parse_incidence, serialize_incidence


@pytest.fixture
def km_file(tmp_path, km):
    path = tmp_path / "km.inc"
    path.write_text(serialize_incidence(km))
    return str(path)


@pytest.fixture
def km4_file(tmp_path, km):
    path = tmp_path / "km4.inc"
    path.write_text(serialize_incidence(IncidenceMinor(4, km.n, km.row_masks)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_yes_instance(self, capsys, km_file):
        code, out, _ = run(capsys, "check", km_file)
        assert code == 0
        assert out.splitlines()[0] == "yes"
        assert "side: dual" in out

    def test_no_instance(self, capsys, km4_file):
        code, out, _ = run(capsys, "check", km4_file)
        assert code == 1
        assert out.splitlines()[0] == "no"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.inc"
        path.write_text("")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error" in err

    def test_parse_diagnostics_carry_line(self, capsys, tmp_path):
        path = tmp_path / "bad.inc"
        path.write_text(
            "3 6 8\n11110000\n1100x011\n10011001\n01100110\n00111100\n00001111\n"
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 3" in err

    def test_machine_line(self, capsys, km_file):
        code, out, _ = run(capsys, "check", "--machine", km_file)
        assert code == 0
        assert out.strip() == (
            "answer=yes d=3 side=dual boundary_d=8x0 rank_d=0 "
            "boundary_d1=12x8 kernel_d1=1 homology=1"
        )

    def test_machine_output_stable(self, capsys, km_file):
        first = run(capsys, "check", "--machine", km_file)
        second = run(capsys, "check", "--machine", km_file)
        assert first == second

    def test_side_override(self, capsys, km_file):
        code, out, _ = run(capsys, "check", "--side", "primal", "--machine", km_file)
        assert code == 0
        assert "side=primal" in out
        assert "boundary_d=24x6" in out

    def test_stdin(self, capsys, monkeypatch, km):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_incidence(km)))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0 and out.splitlines()[0] == "yes"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/way/off.inc")
        assert code == 2


class TestCertify:
    def test_complete(self, capsys, km_file):
        code, out, _ = run(capsys, "certify", km_file)
        assert code == 0
        assert out.strip() == "COMPLETE"

    def test_km_d4_empty(self, capsys, km4_file):
        code, out, _ = run(capsys, "certify", km4_file)
        assert code == 1
        assert out.strip() == "EMPTY"

    def test_deleted_row_ridge(self, capsys, tmp_path, km):
        path = tmp_path / "minor.inc"
        path.write_text(serialize_incidence(delete_minor(km, rows=[1])))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 1
        assert out.strip() == "RIDGE 2 3"

    def test_d0_rejected(self, capsys, tmp_path):
        path = tmp_path / "point.inc"
        path.write_text("0 0 1\n")
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2


class TestVerify:
    def test_accept(self, capsys, tmp_path, km):
        minor = tmp_path / "minor.inc"
        minor.write_text(serialize_incidence(delete_minor(km, rows=[1])))
        cert = tmp_path / "cert.txt"
        cert.write_text("RIDGE 2 3\n")
        code, out, _ = run(capsys, "verify", str(minor), str(cert))
        assert code == 0
        assert out.strip() == "accept"

    def test_reject(self, capsys, km_file, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text("RIDGE 7 8\n")
        code, out, _ = run(capsys, "verify", km_file, str(cert))
        assert code == 1
        assert out.strip() == "reject"

    def test_accept_empty_on_km_d4(self, capsys, km4_file, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text("EMPTY\n")
        code, out, _ = run(capsys, "verify", km4_file, str(cert))
        assert code == 0
        assert out.strip() == "accept"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("RIDGE 7\n", "ridge has 1 vertices, expected 2"),
            ("RIDGE 1 2 3\n", "ridge has 3 vertices, expected 2"),
            ("RIDGE 0 1\n", "ridge (0, 1) has vertices outside 1..8"),
            ("RIDGE -1 2\n", "ridge (-1, 2) has vertices outside 1..8"),
            ("RIDGE 7 9\n", "ridge (7, 9) has vertices outside 1..8"),
            ("RIDGE 0 1 2\n", "ridge has 3 vertices, expected 2"),  # size is checked first
        ],
        ids=["one-vertex", "three-vertices", "vertex-0", "vertex-negative", "vertex-9", "size-before-range"],
    )
    def test_malformed_certificate(self, capsys, km_file, tmp_path, text, message):
        cert = tmp_path / "cert.txt"
        cert.write_text(text)  # d = 3, n = 8
        assert run(capsys, "verify", km_file, str(cert)) == (2, "", f"error: {message}\n")

    def test_garbage_certificate(self, capsys, km_file, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text("WITNESS 1 2\n")
        code, _, _ = run(capsys, "verify", km_file, str(cert))
        assert code == 2

    def test_d0_rejected(self, capsys, tmp_path):
        point = tmp_path / "point.inc"
        point.write_text("0 0 1\n")
        cert = tmp_path / "cert.txt"
        cert.write_text("EMPTY\n")
        code, out, err = run(capsys, "verify", str(point), str(cert))
        assert code == 2 and out == ""
        assert err == "error: certificates are defined for d >= 1 only\n"


class TestHugeWidthNoRows:
    """A column count far beyond memory with no rows is a plain incomplete minor."""

    @pytest.fixture
    def wide_file(self, tmp_path):
        path = tmp_path / "wide.inc"
        path.write_text("3 0 100000000000000000000\n")
        return str(path)

    def test_check(self, capsys, wide_file):
        code, out, err = run(capsys, "check", wide_file)
        assert (code, out.splitlines()[0], err) == (1, "no", "")

    def test_certify(self, capsys, wide_file):
        assert run(capsys, "certify", wide_file) == (1, "EMPTY\n", "")

    def test_verify_empty(self, capsys, wide_file, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text("EMPTY\n")
        assert run(capsys, "verify", wide_file, str(cert)) == (0, "accept\n", "")

    def test_verify_ridge(self, capsys, wide_file, tmp_path):
        # both vertices are in range, but no row holds them
        cert = tmp_path / "cert.txt"
        cert.write_text("RIDGE 1 99999999999999999999\n")
        assert run(capsys, "verify", wide_file, str(cert)) == (1, "reject\n", "")


@pytest.mark.parametrize("command, target", [("check", "analyze"), ("certify", "find_certificate")])
def test_out_of_memory_is_invalid_input(capsys, monkeypatch, km_file, command, target):
    """Exit 1 means "no", so running out of memory must not end there."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"polycomplete.cli.{target}", exhausted)
    assert run(capsys, command, km_file) == (2, "", "error: out of memory\n")


class TestExtract:
    def test_cube(self, capsys, tmp_path, km):
        geom = tmp_path / "cube.geom"
        geom.write_text(serialize_geometry(geometric_cube_km()))
        code, out, err = run(capsys, "extract", str(geom))
        assert code == 0
        assert parse_incidence(out) == km
        assert "all checks passed" in err

    def test_broken_instance_refused(self, capsys, tmp_path):
        base = geometric_cube_km()
        broken = GeometricInstance(3, base.points, base.halfspaces[:5])
        geom = tmp_path / "broken.geom"
        geom.write_text(serialize_geometry(broken))
        code, out, err = run(capsys, "extract", str(geom))
        assert code == 2
        assert out == ""
        assert "check=vertex" in err

    def test_force(self, capsys, tmp_path):
        base = geometric_cube_km()
        broken = GeometricInstance(3, base.points, base.halfspaces[:5])
        geom = tmp_path / "broken.geom"
        geom.write_text(serialize_geometry(broken))
        code, out, _ = run(capsys, "extract", "--force", str(geom))
        assert code == 0
        assert parse_incidence(out) == extract_incidence(broken)

    def test_force_with_values_too_long_to_print(self, capsys, tmp_path):
        # N*N/3 has more digits than Python will turn into a string
        N = 10**3999 + 1
        geom = tmp_path / "long.geom"
        geom.write_text(f"1 3 3\n0\n1\n{N}/3\n-1 0\n1 1\n{N} {N}\n")
        issues = [
            f"validation: check=containment point 3: violates halfspace 2 ({N}/3 > 1)",
            "validation: check=containment point 3: violates halfspace 3 (values too long to print)",
            "validation: check=vertex point 3: tight halfspace normals span dimension 0, expected 1",
        ]
        code, out, err = run(capsys, "extract", str(geom))
        assert code == 2 and out == ""
        assert err.splitlines() == [*issues, "error: validation failed (use --force to extract anyway)"]
        code, out, err = run(capsys, "extract", "--force", str(geom))
        assert code == 0
        assert err.splitlines() == issues
        assert out == "1 3 3\n100\n010\n010\n"

    def test_empty_instance(self, capsys, tmp_path):
        geom = tmp_path / "empty.geom"
        geom.write_text("")
        code, _, _ = run(capsys, "extract", str(geom))
        assert code == 2

    def test_output_file(self, capsys, tmp_path, km):
        geom = tmp_path / "cube.geom"
        geom.write_text(serialize_geometry(geometric_cube_km()))
        out_path = tmp_path / "out.inc"
        code, out, _ = run(capsys, "extract", "-o", str(out_path), str(geom))
        assert code == 0 and out == ""
        assert parse_incidence(out_path.read_text()) == km

    def test_unwritable_output(self, capsys, tmp_path):
        geom = tmp_path / "cube.geom"
        geom.write_text(serialize_geometry(geometric_cube_km()))
        out_path = tmp_path / "missing" / "out.inc"
        code, out, err = run(capsys, "extract", "-o", str(out_path), str(geom))
        assert code == 2 and out == ""
        assert f"error: cannot write {out_path}: " in err


# `gen` cases: arguments after "gen" -> (exit code, the first 16 hex digits
# of stdout's SHA-256 or "" for no output, stderr).  The generated dimension
# counts one per prism and is capped at 6 before any prism is built.
GEN_CASES = {
    "cube-km": (0, "a9c71d8f88d90854", ""),
    "CUBE_KM": (0, "a9c71d8f88d90854", ""),
    "simplex 4": (0, "82c40868c947c4d6", ""),
    "crosspolytope 3": (0, "765566641fbccada", ""),
    "cyclic 4 8": (0, "41bd386435d9a735", ""),
    "cyclic 6 12": (0, "f9806334abb30949", ""),
    "prism cube-km": (0, "ab1d6a3a5f9825e6", ""),
    "prism prism prism cube-km": (0, "11ceae896e422294", ""),
    "PRISM cyclic 2 4": (0, "7d4094ae9fdaa50a", ""),
    "prism simplex 5": (0, "d38edeaec536dc7f", ""),
    "simplex 9": (2, "", "error: fixture d=9 outside 0..6\n"),
    "simplex -1": (2, "", "error: fixture d=-1 outside 0..6\n"),
    "cyclic 4 20": (2, "", "error: fixture n=20 outside 0..12\n"),
    "cyclic 7 20": (2, "", "error: fixture d=7 outside 0..6\n"),
    "simplex": (2, "", "error: family 'simplex' takes 1 integer parameter(s)\n"),
    "cyclic 4": (2, "", "error: family 'cyclic' takes 2 integer parameter(s)\n"),
    "cube-km 3": (2, "", "error: family 'cube-km' takes 0 integer parameter(s)\n"),
    "simplex x": (2, "", "error: parameters for 'simplex' must be integers\n"),
    "cyclic 4 8.0": (2, "", "error: parameters for 'cyclic' must be integers\n"),
    "cyclic 3 1_0": (2, "", "error: parameters for 'cyclic' must be integers\n"),
    "cyclic +3 7": (2, "", "error: parameters for 'cyclic' must be integers\n"),
    "cyclic \u0663 7": (2, "", "error: parameters for 'cyclic' must be integers\n"),  # Arabic-Indic 3
    "simplex \uff12": (2, "", "error: parameters for 'simplex' must be integers\n"),  # fullwidth 2
    "dodecahedron": (2, "", "error: unknown fixture family 'dodecahedron'\n"),
    "prism": (2, "", "error: missing fixture family\n"),
    "prism prism": (2, "", "error: missing fixture family\n"),
    "prism simplex 9": (2, "", "error: fixture d=9 outside 0..6\n"),
    "prism cyclic 4 20": (2, "", "error: fixture n=20 outside 0..12\n"),
    "prism dodecahedron": (2, "", "error: unknown fixture family 'dodecahedron'\n"),
    "prism simplex": (2, "", "error: family 'simplex' takes 1 integer parameter(s)\n"),
    "simplex 0": (2, "", "error: simplex dimension must be at least 1\n"),
    "cyclic 3 3": (2, "", "error: cyclic polytope needs n > d >= 2\n"),
    "crosspolytope 0": (2, "", "error: cross-polytope dimension must be at least 1\n"),
    "prism prism prism prism cube-km": (2, "", "error: fixture d=7 outside 0..6\n"),  # past the prism cap
    "prism prism simplex 5": (2, "", "error: fixture d=7 outside 0..6\n"),  # past the prism cap
    "prism prism prism prism prism prism prism cyclic 3 3": (2, "", "error: cyclic polytope needs n > d >= 2\n"),
    "prism prism prism prism cyclic 4 20": (2, "", "error: fixture n=20 outside 0..12\n"),
    "--geometry cube-km": (0, "e25c48273c2f7997", ""),
    "--geometry CUBE_KM": (0, "e25c48273c2f7997", ""),
    "--geometry simplex 3": (0, "a6b9f0ab1f0ee28a", ""),
    "--geometry crosspolytope 3": (0, "7b57636b5bdeb93d", ""),
    "--geometry cyclic 4 8": (0, "792f8a94600429a2", ""),
    "--geometry prism cube-km": (2, "", "error: no geometric coordinates for fixture family 'prism'\n"),
    "--geometry prism simplex 9": (2, "", "error: no geometric coordinates for fixture family 'prism'\n"),
    "--geometry simplex 9": (2, "", "error: fixture d=9 outside 0..6\n"),
    "--geometry cyclic 3 13": (2, "", "error: fixture n=13 outside 0..12\n"),
    "--geometry prism": (2, "", "error: missing fixture family\n"),
    "--geometry dodecahedron": (2, "", "error: unknown fixture family 'dodecahedron'\n"),
    "--geometry cyclic 2 2": (2, "", "error: cyclic polytope needs n > d >= 2\n"),
    "--geometry simplex x": (2, "", "error: parameters for 'simplex' must be integers\n"),
    "--geometry simplex 0": (2, "", "error: simplex dimension must be at least 1\n"),
    "--geometry crosspolytope 0": (2, "", "error: cross-polytope dimension must be at least 1\n"),
    "--geometry prism prism prism prism cube-km": (2, "", "error: no geometric coordinates for fixture family 'prism'\n"),
}


class TestGen:
    @pytest.mark.parametrize("args", GEN_CASES)
    def test_table(self, capsys, args):
        code, out, err = run(capsys, "gen", *args.split())
        digest = hashlib.sha256(out.encode()).hexdigest()[:16] if out else ""
        assert (code, digest, err) == GEN_CASES[args]

    def test_prism_tower_past_recursion_limit(self, capsys):
        # Deeper than the interpreter's recursion limit: the tower is counted,
        # not parsed recursively, and refused before any prism is built.
        code, out, err = run(capsys, "gen", *["prism"] * 1100, "cube-km")
        assert (code, out, err) == (2, "", "error: fixture d=1103 outside 0..6\n")

    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "gen", "cyclic", "4", "8")
        assert code == 0
        J = parse_incidence(out)
        assert (J.d, J.m, J.n) == (4, 20, 8)

    def test_cube_km(self, capsys, km):
        code, out, _ = run(capsys, "gen", "cube-km")
        assert code == 0
        assert parse_incidence(out) == km

    def test_prism_cube_km(self, capsys):
        code, out, _ = run(capsys, "gen", "prism", "cube-km")
        assert code == 0
        J = parse_incidence(out)
        assert (J.d, J.m, J.n) == (4, 8, 16)

    def test_geometry_output(self, capsys, km):
        code, out, _ = run(capsys, "gen", "--geometry", "cube-km")
        assert code == 0
        from polycomplete.geometry import extract_incidence, parse_geometry

        assert extract_incidence(parse_geometry(out)) == km

    def test_geometry_of_prism_unsupported(self, capsys):
        code, _, err = run(capsys, "gen", "--geometry", "prism", "cube-km")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "hypercube", "9")
        assert code == 2

    def test_out_of_range(self, capsys):
        code, _, _ = run(capsys, "gen", "cyclic", "4", "20")
        assert code == 2

    def test_unwritable_output(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.inc"
        code, out, err = run(capsys, "gen", "cube-km", "-o", str(out_path))
        assert code == 2 and out == ""
        assert f"error: cannot write {out_path}: " in err


class TestPipelines:
    def test_check_and_certify_agree(self, capsys, tmp_path, km):
        cases = [
            IncidenceMinor(3, km.n, km.row_masks),
            IncidenceMinor(4, km.n, km.row_masks),
            delete_minor(km, rows=[3]),
        ]
        for idx, J in enumerate(cases):
            path = tmp_path / f"case{idx}.inc"
            path.write_text(serialize_incidence(J))
            check_code, _, _ = run(capsys, "check", str(path))
            certify_code, _, _ = run(capsys, "certify", str(path))
            assert check_code == certify_code

    def test_certify_then_verify(self, capsys, tmp_path, km):
        minor = tmp_path / "minor.inc"
        minor.write_text(serialize_incidence(delete_minor(km, cols=[8])))
        code, out, _ = run(capsys, "certify", str(minor))
        assert code == 1
        cert = tmp_path / "cert.txt"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(minor), str(cert))
        assert code == 0 and out.strip() == "accept"


def test_module_entry_point_runs_main(tmp_path, km):
    # exit 0 means "yes", so a module run that did nothing would read as an answer
    minor = tmp_path / "minor.inc"
    minor.write_text(serialize_incidence(delete_minor(km, rows=[3])))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "polycomplete.cli", "check", str(minor)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "no"
