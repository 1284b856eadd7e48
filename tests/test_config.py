import os
import subprocess
import sys
from pathlib import Path

import adaptls


def test_config_imports_no_numpy():
    src = str(Path(adaptls.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, adaptls.config; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
