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

Tolerances: a rank is decided at the shape of the matrix it is given, so
no function of tensorkit takes a shape and no call passes one; and every
cutoff is a multiple of the one abs_tol, so every float literal in (0, 1)
in src/wka must be named in ALLOWED_FLOATS with the reason it is not a
cutoff of its own.

Limits: a check passes iff its residual is at most abs_tol, so
VerificationReport.add takes (name, residual, note) and no call of .add
in src/wka passes a fourth argument or a limit of its own.
"""

import ast
from pathlib import Path

from wka import tensorkit

SRC = Path(__file__).resolve().parents[1] / "src" / "wka"

# attribute names whose calls decide a rank or solve a system
GUARDED = {"rank_cutoff", "svd", "qr", "lstsq", "eigh", "eigvalsh", "matrix_rank", "pinv"}

ALLOWED = {}

# attribute names whose calls draw random numbers
DRAWS = {"default_rng", "standard_normal", "random"}

_COCYCLE = "a random cocycle is the input this constructor exists to build"
ALLOWED_DRAWS = {
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


# float literals in (0, 1), by file and the name they are bound to
ALLOWED_FLOATS = {
    ("tensorkit.py", "DEFAULT_ABS_TOL"): "the default abs_tol that every cutoff is a multiple of",
    ("haar.py", "_FLIP_EXPAND"): "a share of the k^2 block entries that picks a route, not a cutoff",
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


def _scopes(source: str):
    """(name, node) of each top-level statement of a module: functions by
    name, methods as Class.method, a module-level assignment by the name it
    binds."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{getattr(n, 'name', '<body>')}", n) for n in top.body)
        elif isinstance(top, ast.Assign) and len(top.targets) == 1 and isinstance(top.targets[0], ast.Name):
            yield top.targets[0].id, top
        else:
            yield getattr(top, "name", "<module>"), top


def small_floats_in(source: str, filename: str) -> set:
    """(file, scope) of every float literal strictly between 0 and 1."""
    return {
        (filename, name)
        for name, scope in _scopes(source)
        for node in ast.walk(scope)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1
    }


def shape_arguments_in(source: str, filename: str) -> set:
    """(file, scope, callee) of every call of a tensorkit function that
    passes shape= by keyword."""
    public = set(tensorkit.__all__)
    found = set()
    for name, scope in _scopes(source):
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and any(k.arg == "shape" for k in node.keywords):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if callee in public:
                    found.add((filename, name, callee))
    return found


def _each_module(finder) -> set:
    return set().union(*(finder(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))))


def test_no_tensorkit_function_takes_a_shape():
    takes = {
        node.name
        for node in ast.parse((SRC / "tensorkit.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name in tensorkit.__all__
        and any(a.arg == "shape" for a in ast.walk(node.args) if isinstance(a, ast.arg))
    }
    assert not takes, f"tensorkit functions with a shape parameter: {sorted(takes)}"


def test_no_call_passes_a_shape_to_tensorkit():
    found = _each_module(shape_arguments_in)
    assert not found, f"calls that pass shape= to tensorkit: {sorted(found)}"


def test_every_small_float_literal_is_named():
    unexpected = _each_module(small_floats_in) - set(ALLOWED_FLOATS)
    assert not unexpected, f"float literals in (0, 1) in src/wka: {sorted(unexpected)}"


def test_float_allow_list_has_no_stale_entries():
    stale = set(ALLOWED_FLOATS) - _each_module(small_floats_in)
    assert not stale, f"allow-list entries with no literal left: {sorted(stale)}"


def test_tolerance_guards_see_calls_and_literals_in_every_scope():
    source = (
        "TOL = 1e-9\n"
        "LIMIT = 1e3\n"
        "class Functional:\n"
        "    def positive_definite(self, tol):\n"
        "        return block_positive_definite(self.blocks, tol, shape=(4, 4))\n"
        "def check(x):\n"
        "    y = x.reshape(shape=(2, 2))\n"
        "    return tk.nullspace(x, shape=(8, 2)), 2.0j * y, x > 1e-6\n"
    )
    assert small_floats_in(source, "m.py") == {("m.py", "TOL"), ("m.py", "check")}
    assert shape_arguments_in(source, "m.py") == {
        ("m.py", "Functional.positive_definite", "block_positive_definite"),
        ("m.py", "check", "nullspace"),
    }


# keywords that would give a check a limit of its own
LIMIT_KEYWORDS = {"scale", "limit"}


def limited_adds_in(source: str, filename: str) -> set:
    """(file, scope, line) of every call of .add that passes more than
    three positional arguments or a keyword in LIMIT_KEYWORDS."""
    found = set()
    for name, scope in _scopes(source):
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and (len(node.args) > 3 or any(k.arg in LIMIT_KEYWORDS for k in node.keywords))
            ):
                found.add((filename, name, node.lineno))
    return found


def test_every_check_is_judged_at_abs_tol():
    tree = ast.parse((SRC / "report.py").read_text())
    report = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "VerificationReport")
    add = next(n for n in report.body if isinstance(n, ast.FunctionDef) and n.name == "add")
    assert [a.arg for a in add.args.args] == ["self", "name", "residual", "note"]
    assert not add.args.vararg and not add.args.kwarg and not add.args.kwonlyargs
    found = _each_module(limited_adds_in)
    assert not found, f"calls of .add with a limit of their own: {sorted(found)}"


def test_limit_guard_sees_positional_and_keyword_limits():
    source = (
        "def check(rep, seen):\n"
        "    rep.add('a', 0.0, '', 10)\n"
        "    rep.add('b', 0.0, scale=100)\n"
        "    rep.add('c', 0.0, note='n', limit=1e-6)\n"
        "    rep.add('d', 0.0, 'note')\n"
        "    seen.add('e')\n"
    )
    assert limited_adds_in(source, "m.py") == {("m.py", "check", 2), ("m.py", "check", 3), ("m.py", "check", 4)}
