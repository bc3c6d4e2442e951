"""The stage rules: one table of which quantizers each training stage switches
on, read by every module from ``quantize.stage_rules`` and nowhere else."""

import ast
from pathlib import Path

import pytest

from billnet.errors import StageOrderViolation
from billnet.model import ModelGraph, apply_stage_transition, count_params, toy_config
from billnet.quantize import StageRules, stage_rules
from billnet.training import StageConfig, stage_config

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "billnet"

# stage -> (binary_weights, binary_acts, folded_norms, int_lstm)
TABLE = {
    1: (False, False, False, False),
    2: (True, False, False, False),
    3: (True, True, False, False),
    4: (True, True, True, False),
    5: (True, True, True, True),
}


@pytest.mark.parametrize("stage", sorted(TABLE))
def test_stage_rules_match_the_schedule(stage):
    rules = stage_rules(stage)
    assert rules == StageRules(*TABLE[stage])
    assert rules.act_bound == (1 if rules.binary_acts else None)


ENTRIES = {
    "stage_rules": stage_rules,
    "StageConfig": lambda s: StageConfig(s, 1e-3, 1, 1),
    "stage_config": stage_config,
    # a layer-less model one stage below, so only the range can refuse it
    "apply_stage_transition": lambda s: apply_stage_transition(ModelGraph(toy_config(), [], s - 1), s),
    "count_params": lambda s: count_params(ModelGraph(toy_config(), [], 1), stage=s),
}


@pytest.mark.parametrize("stage", [0, 6])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_refuses_a_stage_outside_1_to_5(entry, stage):
    with pytest.raises(StageOrderViolation, match="outside 1..5"):
        ENTRIES[entry](stage)


def _is_stage(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "stage") or (
        isinstance(node, ast.Attribute) and node.attr == "stage"
    )


def _int_literals(node) -> list[int]:
    """The int literals ``node`` is, or holds as a tuple, list or set."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [n.value for n in items if isinstance(n, ast.Constant) and type(n.value) is int]


class _StageComparisons(ast.NodeVisitor):
    """Collects (enclosing function, line, source) of each comparison
    between ``stage`` or ``.stage`` and an int literal that the rules do
    not allow."""

    def __init__(self, source: str):
        self.source, self.func, self.found = source, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        literals = [v for o in operands for v in _int_literals(o)]
        if any(map(_is_stage, operands)) and literals and self.func != "stage_rules":
            order_rule = self.func == "run_stage" and literals == [1] and all(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            )
            if not order_rule:
                self.found.append((self.func, node.lineno, ast.get_source_segment(self.source, node)))
        self.generic_visit(node)


def stage_comparisons(package: Path = PACKAGE) -> list[tuple[str, str, int, str]]:
    """(file, enclosing function, line, source) of every comparison between
    ``stage`` or ``.stage`` and an int literal in ``package``, except the
    ones the rules allow: any inside ``stage_rules``, and ``run_stage``'s
    (in)equality checks on stage 1, which order the stages rather than say
    what one quantizes."""
    found = []
    for path in sorted(package.glob("*.py")):
        finder = _StageComparisons(path.read_text())
        finder.visit(ast.parse(finder.source))
        found += [(path.name, *hit) for hit in finder.found]
    return found


def test_stage_numbers_are_compared_only_inside_stage_rules():
    assert stage_comparisons() == []


def test_the_guard_sees_a_stage_comparison(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(model, stage):\n"
        "    def g():\n"
        "        return model.stage >= 4\n"
        "    return stage in (2, 3) or g()\n"
        "def stage_rules(stage):\n"
        "    return stage >= 2\n"
        "def run_stage(cfg, model):\n"
        "    return cfg.stage == 1 and model.stage != 1 and cfg.stage == 2\n"
    )
    assert [(f, line) for _, f, line, _ in stage_comparisons(tmp_path)] == [
        ("g", 3), ("f", 4), ("run_stage", 8)
    ]
