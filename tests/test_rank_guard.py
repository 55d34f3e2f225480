"""Guard: tensorkit is the only module that decides a numerical rank.

Every null space, rank, affine solve and definiteness test counts singular
values or eigenvalues against Tolerance.rank_cutoff inside tensorkit.  Any
other call of rank_cutoff, of an SVD, of a least-squares solve or of a
hermitian eigenvalue solver in src/wka must be named in ALLOWED with the
reason it decides no rank.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wka"

# attribute names whose calls decide a rank or solve a system
GUARDED = {"rank_cutoff", "svd", "lstsq", "eigvalsh", "matrix_rank", "pinv"}

ALLOWED = {
    ("haar.py", "_haar_trace_cone", "rank_cutoff"):
        "entrywise threshold on the coefficient projector that couples"
        " generators into classes; the projector's rank came from nullspace",
    ("haar.py", "_haar_trace_cone", "lstsq"):
        "coefficients of the normalized trace over the rays; the residual"
        " is reported as normalized_trace_in_cone_span",
    ("fusion.py", "_support_multiplicities", "lstsq"):
        "character solve over the block characters, orthogonal 0/1 columns;"
        " the residual is reported",
    ("fusion.py", "fusion_ring", "lstsq"):
        "character solve over the block characters; the residual is reported",
    ("fusion.py", "dual_fusion_consistency", "lstsq"):
        "products of the carried characters over those characters; the"
        " residual is reported",
    ("algebra.py", "_block_matrix_units", "eigvalsh"):
        "spectral radius used as a shift before a spectral split",
}


def guarded_calls_in(source: str, filename: str) -> set:
    """(file, enclosing function, attribute) of every guarded call in a
    module's source; methods are named Class.method."""
    found = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{getattr(node, 'name', '<body>')}", node) for node in top.body]
        else:
            scopes = [(getattr(top, "name", "<module>"), top)]
        for name, scope in scopes:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in GUARDED
                ):
                    found.add((filename, name, node.func.attr))
    return found


def guarded_calls() -> set:
    """The guarded calls of every module of src/wka but tensorkit."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tensorkit.py":
            found |= guarded_calls_in(path.read_text(), path.name)
    return found


def test_only_tensorkit_decides_a_rank():
    unexpected = guarded_calls() - set(ALLOWED)
    assert not unexpected, f"rank decisions outside tensorkit: {sorted(unexpected)}"


def test_allow_list_has_no_stale_entries():
    stale = set(ALLOWED) - guarded_calls()
    assert not stale, f"allow-list entries with no call left: {sorted(stale)}"


def test_guard_sees_methods_nested_functions_and_module_code():
    source = (
        "class Functional:\n"
        "    def is_faithful_positive(self, g):\n"
        "        return np.linalg.eigvalsh(g)[0] > tol.rank_cutoff(g.shape, 1.0)\n"
        "def outer(a):\n"
        "    def inner():\n"
        "        return np.linalg.svd(a)\n"
        "    return inner\n"
        "X = np.linalg.lstsq(A, b)\n"
    )
    assert guarded_calls_in(source, "m.py") == {
        ("m.py", "Functional.is_faithful_positive", "eigvalsh"),
        ("m.py", "Functional.is_faithful_positive", "rank_cutoff"),
        ("m.py", "outer", "svd"),
        ("m.py", "<module>", "lstsq"),
    }
