from threebody1d.dynamics import superintegrability_check


def test_silent_negative_control_fails_superintegrability():
    # with no interaction h1 commutes with H, so the control cannot trip
    report = superintegrability_check(10, gamma_control=0.0)
    assert report.max_residual <= report.tolerance
    assert not report.details["negative_control_ok"]
    assert not report.passed
    assert '"pass": false' in report.to_json()
