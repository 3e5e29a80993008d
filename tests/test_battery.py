import ast
import json
import os

import pytest

from kahlercheck import battery, cli, extensions, lieranks
from kahlercheck.battery import INCONCLUSIVE
from kahlercheck.lieranks import BudgetExceededError

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, os.pardir, "inputs")
SRC = os.path.join(HERE, os.pardir, "src", "kahlercheck")


def report(capsys, *argv):
    assert cli.main(list(argv) + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def overrun(*args, **kwargs):
    raise BudgetExceededError(7, 5)


# (guarded test, command, the module function it calls that is made to
# overrun, the records that then report the overrun)
BUDGET_GUARDED = [
    ("formality", ["analyze", "heisenberg.grp"], lieranks,
     "formality_test", ["formality"]),
    ("abelianization_class", ["analyze", "heisenberg.grp"], extensions,
     "abelianization_obstruction", ["abelianization_class"]),
    ("central_extension", ["analyze", "intro_g2.grp"], extensions,
     "class_and_torsion", ["central_extension"]),
    ("extension_class", ["ext", "torsion_order2.grp"], extensions,
     "recognize_extension", ["extension_class", "central_extension"]),
    ("lcs_strictness", ["hom", "derived_image.hom"], lieranks,
     "strictness_check", ["lcs_strictness"]),
    ("derived_image", ["hom", "derived_image.hom"], lieranks,
     "derived_image_check", ["derived_image"]),
]


@pytest.mark.parametrize("argv,module,function,overrun_records",
                         [case[1:] for case in BUDGET_GUARDED],
                         ids=[case[0] for case in BUDGET_GUARDED])
def test_budget_overrun_makes_the_test_inconclusive(
        argv, module, function, overrun_records, monkeypatch, capsys):
    monkeypatch.chdir(INPUTS)
    before = report(capsys, *argv)["tests"]
    monkeypatch.setattr(module, function, overrun)
    after = report(capsys, *argv)["tests"]
    assert ([(t["name"], t["criterion"]) for t in after]
            == [(t["name"], t["criterion"]) for t in before])
    for old, new in zip(before, after):
        if new["name"] in overrun_records:
            assert new["verdict"] == INCONCLUSIVE
            assert new["witness"] == {"reason": "budget exceeded",
                                      "required": 7, "budget": 5}
        else:
            assert new == old


def _module_tree(name):
    with open(os.path.join(SRC, name + ".py")) as fh:
        return ast.parse(fh.read())


def _handled(tree):
    return [ast.unparse(h.type) for h in ast.walk(tree)
            if isinstance(h, ast.ExceptHandler) and h.type is not None]


def test_cli_does_only_io():
    tree = _module_tree("cli")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    for module in ("homology", "lieranks", "extensions"):
        assert module not in imported
        assert not any(m and m.endswith("." + module) for m in imported)
    assert not any("BudgetExceededError" in h for h in _handled(tree))


def test_budget_overruns_are_caught_in_the_battery_only():
    handlers = {name: sum("BudgetExceededError" in h
                          for h in _handled(_module_tree(name)))
                for name in ("battery", "cli", "presentation", "homology",
                             "intlinalg", "lieranks", "extensions",
                             "surface")}
    assert handlers == {"battery": 2, "cli": 0, "presentation": 0,
                        "homology": 0, "intlinalg": 0, "lieranks": 0,
                        "extensions": 0, "surface": 0}


def test_cli_reexports_the_fired_verdicts():
    assert cli.NOT_KAHLER is battery.NOT_KAHLER
    assert cli.NOT_KAHLER_HOM is battery.NOT_KAHLER_HOM
