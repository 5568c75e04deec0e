"""Guard on the one owner of every flow convention.

Which I_m a flow raises, which V_j it holds, whether its rate reads the
support function, whether its mode holds V_j, the normalized stage term,
the rescaled gauge and normalized's k <= n-1 rule are the flow law's,
`flow._law(mode, n, k)`. Code outside it reads a law's fields; it does not
work them out from the mode's name. The guard parses `flow`, `cli` and
`verify` and fails on any comparison with a mode name ("raw", "normalized",
"rescaled_raw"), any membership test in a mode table (`MODES`,
`CONSERVING_MODES`) and any call of the deleted `monotone_pair`, outside
the gates named as exempt: FlowConfig's check that its mode is one of
`MODES`."""

import ast
import os

import pytest

from starflow import flow

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "starflow")
MODE_TABLES = ("MODES", "CONSERVING_MODES")


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_mode_name(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and node.value in flow.MODES


def _is_convention_site(node) -> bool:
    if isinstance(node, ast.Call):
        return _name(node.func) == "monotone_pair"
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    membership = any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
    return any(map(_is_mode_name, operands)) or membership and any(
        _name(operand) in MODE_TABLES for operand in node.comparators)


def convention_sites(path: str, exempt: set) -> list:
    """'line: source' of every comparison with a mode name, membership test
    in a mode table and call of monotone_pair in the module at path, but for
    those whose source text is in exempt."""
    with open(path) as fh:
        source = fh.read()
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not _is_convention_site(node):
            continue
        text = ast.get_source_segment(source, node)
        if text not in exempt:
            sites.append((node.lineno, node.col_offset, text))
    return [f"{line}: {text}" for line, _, text in sorted(sites)]


@pytest.mark.parametrize("module, exempt", [
    ("flow", {"self.mode not in MODES"}),
    ("cli", set()),
    ("verify", set()),
])
def test_no_flow_convention_outside_the_law(module, exempt):
    assert convention_sites(os.path.join(SRC, f"{module}.py"), exempt) == []


def test_the_guard_sees_a_convention_worked_out_by_name(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(config, fc, law):\n"
                    "    a = config.mode == 'normalized' or 'raw' != fc.mode\n"
                    "    b = fc.mode not in flowmod.CONSERVING_MODES\n"
                    "    c = monotone_pair(fc.n, fc.k)[0] + flowmod.monotone_pair(2, 1)[1]\n"
                    "    d = law.conserving and fc.mode in ('a', 'b') and fc.mode == 'local'\n"
                    "    if config.mode not in MODES:\n"
                    "        raise ValueError(f'mode must be one of {MODES}')\n"
                    "    return FlowConfig(n=1, k=1, mode='rescaled_raw'), a, b, c, d\n")
    assert convention_sites(str(path), {"config.mode not in MODES"}) == [
        "2: config.mode == 'normalized'", "2: 'raw' != fc.mode",
        "3: fc.mode not in flowmod.CONSERVING_MODES",
        "4: monotone_pair(fc.n, fc.k)", "4: flowmod.monotone_pair(2, 1)"]
    assert convention_sites(str(path), set())[-1] == "6: config.mode not in MODES"
