import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    # every public name the tour shows must still import and run
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md (Library quick tour)", "exec"), namespace)
    assert namespace["l1_ball_count"](2, 3) == 25
    assert namespace["check_log_concavity"](6, 2000) == []
