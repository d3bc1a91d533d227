"""The benchmark's view of the package: bench/tracer.py wraps named
functions and methods and tags their results, so those names and result
shapes are part of the API.

The checks run in a child interpreter because Tracer.install rebinds
functions process-wide.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each report must read the same traced and untraced
COMMANDS = {
    "exact-sequence": ["exact-sequence", "line-bundle", "scale-translate", "--budget", "2"],
    "affine-check": ["affine-check", "line-affine"],
    "connection-validate": ["connection-validate", "line-connection"],
}

CHILD = textwrap.dedent(
    """
    import json
    import sys
    from pathlib import Path

    root = Path(sys.argv[1])
    out = Path(sys.argv[2])
    commands = json.loads(sys.argv[3])
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import diffeokit.cli as cli
    from tracer import LAYERS, Tracer

    # every layer resolves the way Tracer.install looks it up
    for name, mod, cls, attrs, _, _ in LAYERS:
        module = sys.modules[f"diffeokit.{mod}"]
        if cls is None:
            assert len(attrs) == 1, name
            assert callable(getattr(module, attrs[0])), name
        else:
            owner = getattr(module, cls)
            for attr in attrs:
                assert callable(owner.__dict__[attr]), (name, attr)

    def run(suffix):
        for name, argv in commands.items():
            path = out / f"{name}.{suffix}"
            assert cli.main(argv + ["--format", "json", "--out", str(path)]) == 0, name

    run("plain")
    tracer = Tracer()
    tracer.install()
    run("traced")
    assert len(tracer.layer) > 0
    tracer.summarise()
    """
)


def test_tracer_layers_resolve_and_tracing_keeps_the_report(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), str(tmp_path), json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in COMMANDS:
        plain = (tmp_path / f"{name}.plain").read_bytes()
        assert b'"verdict": "yes"' in plain, name
        assert (tmp_path / f"{name}.traced").read_bytes() == plain, name
