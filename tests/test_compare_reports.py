"""scripts/compare_reports.py: report agreement up to roundoff in Q."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "compare_reports.py"

REPORT = """method,resolution,realization,value,error
pce,1,0,60654.45943270553,0.0008670558373653263
pce,2,0,60707.09587455306,0.000119650054904176
pce,3,0,60699.83313618564,
mc,10,0,61078.13266620665,0.006595887342569929
mc,10,1,60123.44031373782,0.009137884364635949
mc,100,0,61094.9925408057,
mc,100,1,60191.921790764136,
fit_pce,,,0.011242118563425042,1.0237330867231609
fit_mc,,,0.12218048988960876,0.7768409771847321
"""


def _compare(tmp_path, edit=lambda text: text):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(REPORT)
    b.write_text(edit(REPORT))
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_identical_reports_agree(tmp_path):
    proc = _compare(tmp_path)
    assert proc.returncode == 0 and proc.stdout == ""


def test_estimates_agree_to_1e12_relative(tmp_path):
    near = _compare(tmp_path, lambda t: t.replace("60707.09587455306", "60707.09587455307"))
    assert near.returncode == 0
    far = _compare(tmp_path, lambda t: t.replace("60707.09587455306", "60707.09588"))
    assert far.returncode == 1
    assert far.stdout.startswith("pce,2,0 value: 60707.09587455306 != 60707.09588")


def test_errors_get_the_tolerance_their_difference_amplifies(tmp_path):
    """The level-2 error is |Q2 - Q3| / Q3 = 1.2e-4, so a 1e-12 roundoff in Q
    moves it by up to about 1.7e-8 relative: 1e-9 passes, 1e-7 fails."""
    error = "0.000119650054904176"
    moved = [f"{float(error) * (1 + rel)!r}" for rel in (1e-9, 1e-7)]
    assert _compare(tmp_path, lambda t: t.replace(error, moved[0])).returncode == 0
    proc = _compare(tmp_path, lambda t: t.replace(error, moved[1]))
    assert proc.returncode == 1 and proc.stdout.startswith("pce,2,0 error:")
    fit = "1.0237330867231609"
    assert _compare(tmp_path, lambda t: t.replace(fit, "1.0237330867241609")).returncode == 0
    assert _compare(tmp_path, lambda t: t.replace(fit, "1.02373")).returncode == 1


def test_reports_with_other_rows_are_refused(tmp_path):
    proc = _compare(tmp_path, lambda t: t.replace("mc,100,1,", "mc,100,2,"))
    assert proc.returncode == 2 and "same rows" in proc.stderr
    assert _compare(tmp_path, lambda t: t.replace(",0.0008670558373653263\n", ",\n")).returncode == 1
