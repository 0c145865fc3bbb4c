"""No enum class attribute reads on the simulated access path.

On CPython before 3.12 the enum metaclass defines ``__getattr__``, so
every ``RequestType.READ`` evaluated in a function body goes through the
slow attribute hook — several times the cost of a module global. The
per-access functions below read enum members through module constants
bound once at import instead. This test parses each function's source
and fails, naming the function and the file line, on any attribute load
in its body whose base name is, in that module's globals, an
``enum.Enum`` subclass. Default arguments and annotations run once and
are not checked.
"""

import ast
import enum
import inspect
import textwrap

import pytest

from repro.cache import l1
from repro.system import machine, node

#: (module, dotted function name) for every checked function. A nested
#: name (``outer.inner``) checks every closure called ``inner`` defined
#: anywhere inside ``outer``.
ACCESS_PATH = [
    (machine, name) for name in (
        "Machine.load",
        "Machine.load_miss",
        "Machine.store",
        "Machine.store_miss",
        "Machine.ifetch",
        "Machine.ifetch_miss",
        "Machine.dcbz",
        "Machine.dcbf",
        "Machine.dcbi",
        "Machine._dcb_kill",
        "Machine._l2_data_access",
        "Machine._run_prefetcher",
        "Machine._external_request",
        "Machine._no_request",
        "Machine._direct_request",
        "Machine._broadcast_request",
        "Machine._snoop_regions",
        "Machine._broadcast_latency",
        "Machine._targeted_request",
        "Machine._prefetch_region_state",
        "Machine._apply_local_fill",
        "Machine._emit_writeback",
        "Machine._track_presence.line_allocated",
        "Machine._track_presence.line_removed",
        "Machine._track_presence.region_tracked",
        "Machine._track_presence.region_untracked",
    )
] + [
    (node, name) for name in (
        "ProcessorNode.snoop_line",
        "ProcessorNode.snoop_region",
        "ProcessorNode.allocate_region",
        "ProcessorNode.route_writeback_for_line",
        "ProcessorNode._drop_from_l1s",
    )
] + [
    (l1, name) for name in (
        "L1Cache.lookup",
        "L1Cache.fill",
        "L1Cache.upgrade",
        "L1Cache.downgrade",
        "L1Cache.back_invalidate",
        "L1Cache.state_of",
    )
]


def _function_defs(module, dotted):
    """(ast node, first file line) for every definition *dotted* names."""
    class_name, method, *inner = dotted.split(".")
    function = getattr(getattr(module, class_name), method)
    lines, first_line = inspect.getsourcelines(function)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    (outer,) = tree.body
    if not inner:
        return [(outer, first_line)]
    (name,) = inner
    found = [
        (n, first_line) for n in ast.walk(outer)
        if isinstance(n, ast.FunctionDef) and n.name == name
    ]
    assert found, f"{dotted}: no closure named {name}"
    return found


def _is_enum_class(value) -> bool:
    return isinstance(value, type) and issubclass(value, enum.Enum)


def body_enum_reads(definition, namespace):
    """(line within the parsed source, ``Class.attr``) for each
    attribute load in *definition*'s body whose base name is an enum
    class in *namespace*."""
    return [
        (n.lineno, f"{n.value.id}.{n.attr}")
        for statement in definition.body
        for n in ast.walk(statement)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name)
        and _is_enum_class(namespace.get(n.value.id))
    ]


def enum_class_reads(module, dotted):
    """``file:line Class.attr`` for each enum class attribute load in
    the body of *dotted*."""
    return [
        f"{module.__file__}:{first_line + lineno - 1} {read}"
        for definition, first_line in _function_defs(module, dotted)
        for lineno, read in body_enum_reads(definition, vars(module))
    ]


@pytest.mark.parametrize(
    "module,dotted", ACCESS_PATH,
    ids=[f"{m.__name__.rsplit('.', 1)[1]}.{d}" for m, d in ACCESS_PATH],
)
def test_no_enum_class_reads_in_body(module, dotted):
    hits = enum_class_reads(module, dotted)
    assert not hits, (
        f"{dotted} reads enum members through their class (bind a "
        f"module constant instead): " + "; ".join(hits)
    )


def test_checker_sees_an_enum_class_read():
    # A body that reads RequestPath.DIRECT is caught; a default argument
    # and a module constant are not.
    source = textwrap.dedent('''
        def f(state=RegionState.INVALID):
            return RequestPath.DIRECT, _PATH_DIRECT, state
    ''')
    (definition,) = ast.parse(source).body
    assert body_enum_reads(definition, vars(machine)) == [
        (3, "RequestPath.DIRECT")]
