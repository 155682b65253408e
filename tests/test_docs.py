import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]


def assert_resolves(module, path):
    """spikecast.<module>.<path> names an attribute that exists."""
    obj = importlib.import_module(f"spikecast.{module}")
    for part in path.split("."):
        assert hasattr(obj, part), f"spikecast.{module}.{path}"
        obj = getattr(obj, part)


class TestNumericsDoc:
    """docs/numerics.md cites the tests that pin each special case and the
    names it describes; both must exist."""

    text = (ROOT / "docs" / "numerics.md").read_text()

    def test_cited_tests_exist(self):
        cited = set(re.findall(r"tests/(test_\w+\.py)::(\w+)::(\w+)", self.text))
        assert cited
        for file, cls, test in sorted(cited):
            tree = ast.parse((ROOT / "tests" / file).read_text())
            methods = {node.name for c in tree.body if isinstance(c, ast.ClassDef)
                       and c.name == cls for node in c.body
                       if isinstance(node, ast.FunctionDef)}
            assert test in methods, f"tests/{file}::{cls}::{test}"

    def test_cited_names_exist(self):
        cited = set(re.findall(r"spikecast\.(\w+)\.(\w+(?:\.\w+)*)", self.text))
        assert cited
        for module, path in sorted(cited):
            assert_resolves(module, path)

    def test_every_special_case_names_its_test_and_its_item(self):
        sections = re.split(r"\n### ", self.text.split("\n## Measured and deleted")[0])[1:]
        assert len(sections) > 10
        for section in sections:
            title = section.splitlines()[0]
            assert "- **What.**" in section, title
            assert "- **Pinned by.**" in section, title
            assert "- **Deleted by.**" in section, title


class TestReadme:
    """README names functions by module (reference.forward, kernels.conv2d);
    each such name must exist."""

    text = (ROOT / "README.md").read_text()

    def test_module_qualified_names_exist(self):
        modules = sorted(p.stem for p in (ROOT / "src" / "spikecast").glob("[a-z]*.py"))
        cited = set(re.findall(rf"(?<![\w/.])({'|'.join(modules)})\.([A-Za-z_]\w*(?:\.\w+)*)",
                               self.text))
        cited = {(m, path) for m, path in cited if path not in ("py", "json", "csv")}
        assert ("kernels", "fully_connected") in cited
        for module, path in sorted(cited):
            assert_resolves(module, path)
