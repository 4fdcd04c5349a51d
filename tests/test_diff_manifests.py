"""scripts/diff_manifests.py prints the manifest rows that differ."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_manifests.py"
HEADER = "seed,kind,name,value\n"


def diff(tmp_path, old_rows, new_rows):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(HEADER + "".join(r + "\n" for r in old_rows))
    new.write_text(HEADER + "".join(r + "\n" for r in new_rows))
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True)


def test_identical_manifests_exit_0(tmp_path):
    rows = ["3,config,margin,0.1", "3,file,ccdf.csv,abc"]
    result = diff(tmp_path, rows, list(reversed(rows)))
    assert result.returncode == 0
    assert result.stdout == ""


def test_changed_and_one_sided_rows_print(tmp_path):
    old = ["3,config,margin,0.1", "3,file,binned_sigma.csv,aaa",
           "4,file,ccdf.csv,ccc"]
    new = ["3,config,margin,0.1", "3,file,binned_sigma.csv,bbb",
           "5,file,ccdf.csv,ccc"]
    result = diff(tmp_path, old, new)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "3,file,binned_sigma.csv aaa bbb",
        "4,file,ccdf.csv ccc -",
        "5,file,ccdf.csv - ccc",
    ]
