package bench

import (
	"fmt"

	"repro/internal/serve"
	"repro/pidcomm"
)

// servingPoints are the offered-load fractions the serving experiment
// sweeps: below, near and past the knee of the throughput-vs-latency
// curve (rho > 1 is deliberate overload).
var servingPoints = []float64{0.6, 0.75, 0.9, 1.05}

// servingRequests sizes a sweep point; Full triples it.
func servingRequests(full bool) int {
	if full {
		return 2400
	}
	return 800
}

// runServingPoint runs the canonical scenario at one (policy, rho)
// operating point.
func runServingPoint(pol pidcomm.SchedPolicy, rho float64, n int, mutate func(*serve.Config)) (serve.Result, error) {
	cfg, err := serve.Scenario(pol, rho, n)
	if err != nil {
		return serve.Result{}, err
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return serve.Run(cfg)
}

// servingGatePoint is the offered load the acceptance checks and the
// bare cell names (serving/edf_p99) belong to; every other point's cells
// carry it (serving/edf_p99_rho060).
const servingGatePoint = 0.9

func init() {
	register("serving", "Online serving: open-loop chat/feed/batch mix, WFQ vs EDF throughput-vs-p99 sweep, churn and overload", func(o Options, c *cells) error {
		n := servingRequests(o.Full)
		ms := func(v float64) string { return fmt.Sprintf("%.4f", v*1e3) }
		t := newTable("rho", "policy", "req/s", "SLO p50(ms)", "SLO p99(ms)", "SLO p99.9(ms)", "missed", "shed")
		gate := map[pidcomm.SchedPolicy]serve.Result{}
		for _, rho := range servingPoints {
			sfx := fmt.Sprintf("_rho%03.0f", rho*100)
			if rho == servingGatePoint {
				sfx = ""
			}
			for _, pol := range []pidcomm.SchedPolicy{pidcomm.SchedWFQ, pidcomm.SchedEDF} {
				res, err := runServingPoint(pol, rho, n, nil)
				if err != nil {
					return err
				}
				if rho == servingGatePoint {
					gate[pol] = res
				}
				name := pol.String() + "_p"
				t.add(fmt.Sprintf("%.2f", rho), pol.String(), fmt.Sprintf("%.0f", res.Throughput),
					ms(c.put(name+"50"+sfx, res.SLO.P50)), ms(c.put(name+"99"+sfx, res.SLO.P99)),
					ms(c.put(name+"999"+sfx, res.SLO.P999)),
					fmt.Sprintf("%d", res.Missed), fmt.Sprintf("%d", res.Shed))
			}
		}
		t.write(o.W)

		// The acceptance checks at the gate point: EDF misses no deadline,
		// nothing is shed below saturation, and EDF holds at least a 1.2x
		// p99 advantage over WFQ.
		wfq, edf := gate[pidcomm.SchedWFQ], gate[pidcomm.SchedEDF]
		c.put("makespan", edf.Makespan)
		c.require(edf.Missed == 0, "EDF missed %d deadlines below saturation", edf.Missed)
		c.require(edf.Shed == 0 && wfq.Shed == 0, "unexpected shedding below saturation (wfq %d, edf %d)", wfq.Shed, edf.Shed)
		c.require(float64(wfq.SLO.P99) >= 1.2*float64(edf.SLO.P99), "EDF p99 advantage below the 1.2x gate: wfq=%v edf=%v (%.3fx)",
			wfq.SLO.P99, edf.SLO.P99, float64(wfq.SLO.P99)/float64(edf.SLO.P99))

		// Variants at the gate point: tenant churn mid-run, fused
		// (preemption-point-free) submission, and deliberate overload with
		// a tight pending budget.
		fmt.Fprintln(o.W)
		v := newTable("variant (rho=0.9, edf)", "req/s", "SLO p99(ms)", "chat p99(ms)", "missed", "shed", "churns")
		for _, e := range []struct {
			name, key string
			mutate    func(*serve.Config)
		}{
			{"churn every 50", "churn", func(c *serve.Config) { c.ChurnEvery = 50 }},
			{"fused requests", "fused", func(c *serve.Config) { c.Fused = true }},
			{"4x overload, MaxPending 4", "overload", func(c *serve.Config) {
				for i := range c.Tenants {
					c.Tenants[i].Rate *= 4
					c.Tenants[i].MaxPending = 4
				}
				c.Tenants[len(c.Tenants)-1].Shed = pidcomm.ShedOldest
				c.MaxRequests = 16 * n
			}},
		} {
			r, err := runServingPoint(pidcomm.SchedEDF, servingGatePoint, n, e.mutate)
			if err != nil {
				return err
			}
			churns := 0
			for _, ts := range r.Tenants {
				churns += ts.Churns
			}
			v.add(e.name, fmt.Sprintf("%.0f", r.Throughput), ms(c.put("edf_"+e.key+"_p99", r.SLO.P99)),
				ms(c.put("edf_"+e.key+"_chat_p99", r.Tenants[0].Stats.P99)),
				fmt.Sprintf("%d", r.Missed), fmt.Sprintf("%d", r.Shed), fmt.Sprintf("%d", churns))
		}
		v.write(o.W)
		return nil
	})
}
