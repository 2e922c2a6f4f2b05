"""The README's fenced python examples, run as doctests.

``python -m doctest README.md`` would read each closing fence as expected
output, so each block is handed to the parser on its own.  The blocks
share one namespace, in file order, as a reader running them would.
"""
import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    text = README.read_text(encoding="utf-8")
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    namespace, report = {}, []
    for block in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        line = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), {}, "README.md", str(README), line)
        test.globs = namespace  # the parser hands each test a copy
        runner.run(test, out=report.append, clear_globs=False)
    assert runner.failures == 0, "".join(report)
    assert runner.tries == 15
