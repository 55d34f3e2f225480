"""Guards over the calls made in src/wka.

Rank decisions: every null space, rank, affine solve and definiteness test
counts singular values or eigenvalues against Tolerance.rank_cutoff inside
tensorkit.  Any other call of rank_cutoff, of an SVD, of a QR (whose R
factor would feed one), of a least-squares solve or of a hermitian
eigenvalue solver in src/wka must be named in ALLOWED with the reason it
decides no rank.

Random draws: a check that holds on a basis is evaluated on the basis, so
every random draw in src/wka must be named in ALLOWED_DRAWS with the
reason no exact evaluation replaces it, and every function with a seed
parameter in ALLOWED_SEEDS.

Multiplication operators: products and the checks with L_a and R_a are
joins over the product triples (FdAlgebra.product_terms), so every call
of the dense d x d lmat or rmat in src/wka must be named in
ALLOWED_OPERATORS with the reason it keeps the dense matrix.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wka"

# attribute names whose calls decide a rank or solve a system
GUARDED = {"rank_cutoff", "svd", "qr", "lstsq", "eigh", "eigvalsh", "matrix_rank", "pinv"}

ALLOWED = {}

# attribute names whose calls draw random numbers
DRAWS = {"default_rng", "standard_normal", "random"}

_PROBES = (
    "probes of associativity and the involution of a presentation, from a"
    " fixed generator; the exact test costs d^5 on a dense d = 64 presentation"
)
_COCYCLE = "a random cocycle is the input this constructor exists to build"
ALLOWED_DRAWS = {
    ("algebra.py", "_validate_star_algebra", "default_rng"): _PROBES,
    ("algebra.py", "_validate_star_algebra", "standard_normal"): _PROBES,
    ("constructors.py", "random_cocycle", "default_rng"): _COCYCLE,
    ("constructors.py", "random_cocycle", "random"): _COCYCLE,
}

# functions of src/wka with a seed parameter
ALLOWED_SEEDS = {
    ("constructors.py", "random_cocycle"): "the seed of the random cocycle it builds",
    ("duality.py", "dual"):
        "ignored; kept because the benchmark harness in wkabench/ passes seed=",
    ("weakkac.py", "verify_weak_kac"):
        "ignored; kept because the benchmark harness in wkabench/ passes seed=",
}


# attribute names whose calls form a dense multiplication operator
OPERATORS = {"lmat", "rmat"}

ALLOWED_OPERATORS = {
    ("constructors.py", "crossed_product", "lmat"):
        "the action matrices of the crossed product are read as left multiplications",
    ("weakkac.py", "_delta_mult_dense", "lmat"):
        "the dense multiplicativity path, taken where it is cheaper than the join",
}


def guarded_calls_in(source: str, filename: str, guarded=GUARDED) -> set:
    """(file, enclosing function, attribute) of every call in a module's
    source whose attribute is in guarded; methods are named Class.method."""
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
                    and node.func.attr in guarded
                ):
                    found.add((filename, name, node.func.attr))
    return found


def guarded_calls(guarded=GUARDED, skip=("tensorkit.py",)) -> set:
    """The guarded calls of every module of src/wka but those in skip."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name not in skip:
            found |= guarded_calls_in(path.read_text(), path.name, guarded)
    return found


def test_only_tensorkit_decides_a_rank():
    unexpected = guarded_calls() - set(ALLOWED)
    assert not unexpected, f"rank decisions outside tensorkit: {sorted(unexpected)}"


def test_allow_list_has_no_stale_entries():
    stale = set(ALLOWED) - guarded_calls()
    assert not stale, f"allow-list entries with no call left: {sorted(stale)}"


def test_every_random_draw_is_named():
    unexpected = guarded_calls(DRAWS, skip=()) - set(ALLOWED_DRAWS)
    assert not unexpected, f"random draws in src/wka: {sorted(unexpected)}"


def test_draw_allow_list_has_no_stale_entries():
    stale = set(ALLOWED_DRAWS) - guarded_calls(DRAWS, skip=())
    assert not stale, f"allow-list entries with no draw left: {sorted(stale)}"


def test_exact_checks_draw_nothing():
    # the Haar identities and the direct-sum split are evaluated on bases
    draws = guarded_calls(DRAWS, skip=())
    assert not {call for call in draws if call[0] == "haar.py"}
    assert not {call for call in draws if call[1] == "decompose_if_split"}


def test_every_dense_multiplication_operator_is_named():
    unexpected = guarded_calls(OPERATORS, skip=()) - set(ALLOWED_OPERATORS)
    assert not unexpected, f"dense L_a / R_a in src/wka: {sorted(unexpected)}"


def test_operator_allow_list_has_no_stale_entries():
    stale = set(ALLOWED_OPERATORS) - guarded_calls(OPERATORS, skip=())
    assert not stale, f"allow-list entries with no call left: {sorted(stale)}"


def seeded_functions() -> set:
    """(file, function) of every function or method of src/wka that takes
    a parameter named seed."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(a, ast.arg) and a.arg == "seed" for a in ast.walk(node.args)
            ):
                found.add((path.name, node.name))
    return found


def test_no_seed_parameter_but_the_named_ones():
    assert seeded_functions() == set(ALLOWED_SEEDS)


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

