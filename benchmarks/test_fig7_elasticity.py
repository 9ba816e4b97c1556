"""Fig. 7 — elastic game vs static fleets under a client ramp."""

from repro.harness.scenarios import _elastic_cell
from repro.sim.metrics import mean


def test_fig7_elastic_vs_static(once):
    def run():
        return {
            setup: _elastic_cell(setup, rep=0, scale="quick", seed=0)
            for setup in ("elastic", "8", "32")
        }

    data = once(run)
    for setup, result in data.items():
        values = [v for _t, v in result["latency_series"]]
        print(f"{setup:>8}: mean={mean(values):6.2f} ms  "
              f"violations={result['sla'].violation_pct:5.1f}%")
    # The static 8-server fleet buckles at peak load; the elastic fleet
    # and the 32-server fleet hold the SLA far better.
    static8 = data["8"]["sla"].violation_pct
    static32 = data["32"]["sla"].violation_pct
    elastic = data["elastic"]["sla"].violation_pct
    assert static8 > 2 * static32
    assert elastic < static8
    # Elasticity actually grew the fleet.
    servers = [v for _t, v in data["elastic"]["server_series"]]
    assert max(servers) > 8
    # ...and used fewer servers on average than the static 32 fleet.
    assert data["elastic"]["sla"].avg_servers < 32
