"""Acceptance battery: the thirteen criteria of ``eichler verify-all --full``.

The checks are defined once, in :data:`eichler.cli.CRITERIA`; this module
runs each criterion in full mode as one test, so under ``pytest -v`` every
criterion contributes exactly one PASSED/FAILED line, and ``pytest -s``
shows its worst residual.  A criterion passes iff every check's residual is
within that check's tolerance.
"""

from eichler.cli import CRITERIA


def _criterion_test(num, name, crit):
    def test():
        checks = crit(True)
        failed = [c for c in checks if not c["residual"] <= c["tolerance"]]
        worst = max(c["residual"] / c["tolerance"] for c in checks)
        print(f"criterion {num:2d} ({name}): {'FAIL' if failed else 'PASS'}  "
              f"worst residual at {worst:.2e} of tolerance over {len(checks)} checks")
        assert not failed, failed

    # _crit_one_sided_averages runs as test_criterion_06_one_sided_averages
    test.__name__ = f"test_criterion_{num:02d}_{crit.__name__.removeprefix('_crit_')}"
    return test


for _num, _name, _crit in CRITERIA:
    _test = _criterion_test(_num, _name, _crit)
    globals()[_test.__name__] = _test
