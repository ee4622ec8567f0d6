package tenant

import (
	"math"
	"testing"
	"testing/quick"

	"spotdc/internal/core"
	"spotdc/internal/powertrace"
	"spotdc/internal/workload"
)

func constLoad(v float64, n int) *powertrace.Power {
	w := make([]float64, n)
	for i := range w {
		w[i] = v
	}
	return &powertrace.Power{Name: "const", SlotSeconds: 120, Watts: w}
}

// newSprint builds a Search-like sprinting agent under high load (SLO at
// risk without spot capacity).
func newSprint(load float64, policy BidPolicy) *Sprint {
	return &Sprint{
		TenantName: "S-1",
		RackIndex:  0,
		Model:      workload.SearchModel(),
		Cost:       workload.DefaultSprintCost(),
		Reserved:   145,
		Headroom:   60,
		Load:       constLoad(load, 10),
		QMin:       0.1,
		QMax:       0.8,
		Policy:     policy,
	}
}

func newOpp(backlog float64, policy BidPolicy) *Opp {
	return &Opp{
		TenantName: "O-1",
		RackIndex:  1,
		Model:      workload.WordCountModel(),
		Cost:       workload.DefaultOppCost(),
		Reserved:   125,
		Headroom:   60,
		Backlog:    constLoad(backlog, 10),
		QMin:       0.02,
		QMax:       0.2,
		Policy:     policy,
	}
}

func TestBidPolicyString(t *testing.T) {
	for _, p := range []BidPolicy{PolicyElastic, PolicySimple, PolicyStep, PolicyFull, PolicyPricePredict} {
		if p.String() == "" {
			t.Errorf("policy %d has empty string", p)
		}
	}
	if BidPolicy(42).String() == "" {
		t.Error("unknown policy should still print")
	}
}

func TestOptimalDemand(t *testing.T) {
	// gain(d) = 0.001·d up to 50 W then flat: at price below 1 $/kW·h the
	// optimum is 50; above it, 0.
	gain := func(d float64) float64 { return 0.001 * math.Min(d, 50) }
	if got := OptimalDemand(gain, 0.5, 100, 1); got != 50 {
		t.Errorf("cheap price: %v, want 50", got)
	}
	if got := OptimalDemand(gain, 2.0, 100, 1); got != 0 {
		t.Errorf("expensive price: %v, want 0", got)
	}
	if got := OptimalDemand(gain, 0.5, 0, 1); got != 0 {
		t.Errorf("zero maxWatts: %v", got)
	}
	if got := OptimalDemand(gain, 0.5, 30, 0); got != 30 {
		t.Errorf("default step, capped: %v, want 30", got)
	}
}

func TestSprintAgentBasics(t *testing.T) {
	s := newSprint(100, PolicyElastic)
	if s.Name() != "S-1" || s.Class() != workload.Sprinting {
		t.Error("identity wrong")
	}
	if racks := s.Racks(); len(racks) != 1 || racks[0] != 0 {
		t.Errorf("Racks = %v", racks)
	}
	if s.ReservedWatts(0) != 145 || s.ReservedWatts(3) != 0 {
		t.Error("ReservedWatts wrong")
	}
}

func TestSprintBidsOnlyUnderPressure(t *testing.T) {
	// Low load: the 145 W reservation meets the SLO, so no bid.
	idle := newSprint(40, PolicyElastic)
	if bids := idle.PlanBids(0, MarketHint{}); bids != nil {
		t.Errorf("low-load agent bid: %v", bids)
	}
	if reqs := idle.MaxPerfRequests(0); reqs != nil {
		t.Errorf("low-load MaxPerf requests: %v", reqs)
	}
	// High load: must bid.
	hot := newSprint(100, PolicyElastic)
	bids := hot.PlanBids(0, MarketHint{})
	if len(bids) != 1 {
		t.Fatalf("bids = %v", bids)
	}
	if bids[0].Rack != 0 || bids[0].Tenant != "S-1" {
		t.Errorf("bid identity: %+v", bids[0])
	}
	lb, ok := bids[0].Fn.(core.LinearBid)
	if !ok {
		t.Fatalf("elastic policy produced %T", bids[0].Fn)
	}
	if lb.DMax <= 0 || lb.DMax > 60 {
		t.Errorf("DMax = %v, want in (0, 60]", lb.DMax)
	}
	if lb.DMin > lb.DMax {
		t.Errorf("DMin %v > DMax %v", lb.DMin, lb.DMax)
	}
	if lb.QMin != 0.1 || lb.QMax != 0.8 {
		t.Errorf("prices: %+v", lb)
	}
	if reqs := hot.MaxPerfRequests(0); len(reqs) != 1 || reqs[0].MaxWatts <= 0 {
		t.Errorf("MaxPerf requests: %+v", reqs)
	}
}

func TestSprintZeroLoadSlot(t *testing.T) {
	s := newSprint(0, PolicyElastic)
	if bids := s.PlanBids(0, MarketHint{}); bids != nil {
		t.Error("zero-load slot should not bid")
	}
	res := s.Execute(0, nil)
	if res.PowerWatts > s.Model.IdleWatts {
		t.Errorf("idle power = %v", res.PowerWatts)
	}
	if res.SLOViolated {
		t.Error("idle slot cannot violate SLO")
	}
}

func TestSprintExecuteImprovesWithGrant(t *testing.T) {
	s := newSprint(100, PolicyElastic)
	without := s.Execute(0, nil)
	with := s.Execute(0, map[int]float64{0: 50})
	if !without.SLOViolated {
		t.Fatalf("premise: no-spot slot should violate SLO (lat=%v)", without.LatencyMS)
	}
	if with.SLOViolated {
		t.Errorf("50 W grant should restore the SLO (lat=%v)", with.LatencyMS)
	}
	if with.LatencyMS >= without.LatencyMS {
		t.Errorf("latency did not improve: %v → %v", without.LatencyMS, with.LatencyMS)
	}
	if with.PerfScore <= without.PerfScore {
		t.Error("perf score did not improve")
	}
	if with.SpotUsedWatts <= 0 || with.SpotUsedWatts > 50 {
		t.Errorf("spot used = %v", with.SpotUsedWatts)
	}
	if with.PowerWatts > s.Reserved+50+1e-9 {
		t.Errorf("drew %v W beyond budget", with.PowerWatts)
	}
	if !with.Participated || without.Participated {
		t.Error("participation flags wrong")
	}
}

func TestSprintPolicies(t *testing.T) {
	for _, p := range []BidPolicy{PolicySimple, PolicyStep, PolicyFull, PolicyElastic} {
		s := newSprint(100, p)
		bids := s.PlanBids(0, MarketHint{})
		if len(bids) != 1 {
			t.Fatalf("policy %v: bids = %v", p, bids)
		}
		fn := bids[0].Fn
		// All policies must produce a valid, monotone demand function whose
		// demand never exceeds the rack headroom.
		for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.8, 1.0} {
			d := fn.Demand(q)
			if d < 0 || d > 60+1e-9 {
				t.Errorf("policy %v: demand %v at price %v", p, d, q)
			}
		}
		if fn.Demand(0.9) != 0 {
			t.Errorf("policy %v: demand above QMax should be 0", p)
		}
	}
	// Simple policy is all-or-nothing at QMax.
	s := newSprint(100, PolicySimple)
	fn := s.PlanBids(0, MarketHint{})[0].Fn
	if fn.Demand(0.79) != fn.Demand(0.1) {
		t.Error("simple policy should be flat up to QMax")
	}
}

func TestSprintPricePredictPolicy(t *testing.T) {
	s := newSprint(100, PolicyPricePredict)
	// Without a hint it behaves like a step at QMax.
	noHint := s.PlanBids(0, MarketHint{})[0].Fn
	if noHint.MaxPrice() != 0.8 {
		t.Errorf("no hint MaxPrice = %v, want QMax", noHint.MaxPrice())
	}
	// With a hint it bids its full demand at exactly the predicted price,
	// never above QMax.
	hinted := s.PlanBids(0, MarketHint{PredictedPrice: 0.3, HavePrediction: true})[0].Fn
	if math.Abs(hinted.MaxPrice()-0.3) > 1e-9 {
		t.Errorf("hinted MaxPrice = %v, want 0.3", hinted.MaxPrice())
	}
	if hinted.Demand(0.3) <= 0 {
		t.Error("hinted bid should demand at the predicted price")
	}
	if hinted.Demand(0.3) < s.PlanBids(0, MarketHint{})[0].Fn.Demand(0.1) {
		t.Error("strategic bid should not shade demand below the elastic DMax")
	}
	// An out-of-range prediction falls back to the elastic bid.
	capped := s.PlanBids(0, MarketHint{PredictedPrice: 5, HavePrediction: true})[0].Fn
	if capped.MaxPrice() > 0.8 {
		t.Errorf("fallback MaxPrice %v above QMax", capped.MaxPrice())
	}
}

func TestOppAgent(t *testing.T) {
	o := newOpp(10, PolicyElastic)
	if o.Name() != "O-1" || o.Class() != workload.Opportunistic {
		t.Error("identity wrong")
	}
	bids := o.PlanBids(0, MarketHint{})
	if len(bids) != 1 {
		t.Fatalf("bids = %v", bids)
	}
	if bids[0].Fn.MaxPrice() > 0.2 {
		t.Errorf("opportunistic max price %v above amortized rate", bids[0].Fn.MaxPrice())
	}
	// No backlog → no bid, idle power.
	quietSlot := newOpp(0, PolicyElastic)
	if bids := quietSlot.PlanBids(0, MarketHint{}); bids != nil {
		t.Errorf("idle opp bid: %v", bids)
	}
	res := quietSlot.Execute(0, nil)
	if res.ThroughputUnits != 0 || res.PowerWatts > quietSlot.Model.IdleWatts {
		t.Errorf("idle slot: %+v", res)
	}
}

func TestOppExecuteThroughputImproves(t *testing.T) {
	o := newOpp(10, PolicyElastic)
	without := o.Execute(0, nil)
	with := o.Execute(0, map[int]float64{1: 60})
	if with.ThroughputUnits <= without.ThroughputUnits {
		t.Errorf("throughput: %v → %v", without.ThroughputUnits, with.ThroughputUnits)
	}
	// Paper band: full spot headroom gives 1.2–1.8× speed-up.
	ratio := with.ThroughputUnits / without.ThroughputUnits
	if ratio < 1.2 || ratio > 1.8 {
		t.Errorf("speed-up %v outside [1.2, 1.8]", ratio)
	}
	if with.PerfCostRate >= without.PerfCostRate {
		t.Error("value rate should improve (more negative cost)")
	}
}

func TestOppMaxPerfRequests(t *testing.T) {
	o := newOpp(10, PolicyElastic)
	reqs := o.MaxPerfRequests(0)
	if len(reqs) != 1 || reqs[0].Rack != 1 {
		t.Fatalf("reqs = %+v", reqs)
	}
	if g := reqs[0].Gain(30); g <= 0 {
		t.Errorf("gain(30) = %v", g)
	}
	if reqs := newOpp(0, PolicyElastic).MaxPerfRequests(0); reqs != nil {
		t.Error("idle opp should have no MaxPerf requests")
	}
}

func TestSprintGrantBeyondPeakIsUnused(t *testing.T) {
	s := newSprint(100, PolicyElastic)
	res := s.Execute(0, map[int]float64{0: 500})
	if res.PowerWatts > s.Model.PeakWatts+1e-9 {
		t.Errorf("drew %v beyond peak %v", res.PowerWatts, s.Model.PeakWatts)
	}
	if res.SpotUsedWatts > s.Model.PeakWatts-s.Reserved+1e-9 {
		t.Errorf("used %v spot beyond peak-reserved", res.SpotUsedWatts)
	}
}

// Property: across loads and policies, planned bids always have demand
// within the rack headroom, prices within [QMin, QMax], and demand
// monotone in price.
func TestQuickSprintBidsWellFormed(t *testing.T) {
	f := func(loadRaw uint16, policyRaw uint8) bool {
		load := float64(loadRaw % 160)
		policy := BidPolicy(policyRaw % 5)
		s := newSprint(load, policy)
		bids := s.PlanBids(0, MarketHint{PredictedPrice: 0.3, HavePrediction: policy == PolicyPricePredict})
		for _, b := range bids {
			prev := math.Inf(1)
			for q := 0.0; q <= 1.0; q += 0.05 {
				d := b.Fn.Demand(q)
				if d < -1e-9 || d > 60+1e-9 {
					return false
				}
				if d > prev+1e-9 {
					return false
				}
				prev = d
			}
			if b.Fn.MaxPrice() > 0.8+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Execute never draws beyond reserved+grant (capped at peak) and
// never reports SpotUsed beyond the grant.
func TestQuickExecutePowerBudget(t *testing.T) {
	f := func(loadRaw, grantRaw uint16) bool {
		load := float64(loadRaw % 200)
		grant := float64(grantRaw % 100)
		s := newSprint(load, PolicyElastic)
		res := s.Execute(0, map[int]float64{0: grant})
		if res.PowerWatts > s.Reserved+grant+1e-9 && res.PowerWatts > s.Model.PeakWatts+1e-9 {
			return false
		}
		if res.SpotUsedWatts > grant+1e-9 {
			return false
		}
		o := newOpp(float64(loadRaw%20), PolicyElastic)
		ores := o.Execute(0, map[int]float64{1: grant})
		if ores.PowerWatts > o.Reserved+grant+1e-9 && ores.PowerWatts > o.Model.PeakWatts+1e-9 {
			return false
		}
		return ores.SpotUsedWatts <= grant+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
