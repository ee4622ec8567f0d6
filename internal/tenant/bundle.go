package tenant

import (
	"math"

	"spotdc/internal/core"
	"spotdc/internal/powertrace"
	"spotdc/internal/workload"
)

// BundledSprint is the advanced multi-rack tenant of Section III-B3 and
// Fig. 4: a multi-tier service (e.g. a web front end and a database back
// end in separate racks) whose end-to-end latency depends jointly on the
// power budgets of all its racks. It derives the optimal demand *vector*
// at the two bidding prices and joins them affinely into one LinearBid per
// rack sharing the same (qmin, qmax) pair — exactly the bundle the paper
// describes.
type BundledSprint struct {
	// TenantName identifies the tenant.
	TenantName string
	// Tiers lists the racks and their per-tier models, front to back.
	Tiers []Tier
	// Cost monetizes the end-to-end tail latency; the SLO applies to the
	// sum of tier latencies.
	Cost workload.SprintCost
	// Load is the request-rate trace; every tier serves the same rate.
	Load *powertrace.Power
	// QMin and QMax are the shared bidding prices.
	QMin, QMax float64

	// Agent-owned scratch (see the Agent ownership contract): zeroBuf is
	// the all-zero spot vector reused by every gain evaluation (hot inside
	// optimalVector's grid search), spotsBuf and rackBuf back Execute's
	// per-slot working state and returned PowerByRack map.
	zeroBuf  []float64
	spotsBuf []float64
	rackBuf  map[int]float64
}

// Tier is one rack of a bundled tenant.
type Tier struct {
	// Rack is the rack index.
	Rack int
	// Model is the tier's power-performance model.
	Model workload.LatencyModel
	// Reserved is the tier's guaranteed capacity in watts.
	Reserved float64
	// Headroom is the tier's spot headroom P_r^R.
	Headroom float64
}

var _ Agent = (*BundledSprint)(nil)

// Name implements Agent.
func (b *BundledSprint) Name() string { return b.TenantName }

// Class implements Agent.
func (b *BundledSprint) Class() workload.Class { return workload.Sprinting }

// Racks implements Agent.
func (b *BundledSprint) Racks() []int {
	out := make([]int, len(b.Tiers))
	for i, t := range b.Tiers {
		out[i] = t.Rack
	}
	return out
}

// ReservedWatts implements Agent.
func (b *BundledSprint) ReservedWatts(rack int) float64 {
	for _, t := range b.Tiers {
		if t.Rack == rack {
			return t.Reserved
		}
	}
	return 0
}

// latencyAt returns the end-to-end latency for the given per-tier spot
// grants at the slot's load.
func (b *BundledSprint) latencyAt(load float64, spots []float64) float64 {
	total := 0.0
	for i, t := range b.Tiers {
		draw := math.Min(t.Reserved+spots[i], t.Model.PeakWatts)
		total += t.Model.LatencyMS(load, draw)
	}
	return total
}

// zero returns the reused all-zero spot vector.
func (b *BundledSprint) zero() []float64 {
	if len(b.zeroBuf) != len(b.Tiers) {
		b.zeroBuf = make([]float64, len(b.Tiers))
	}
	return b.zeroBuf
}

// gainAt returns the $/h gain of the spot vector over no spot capacity.
func (b *BundledSprint) gainAt(load float64, spots []float64) float64 {
	base := b.Cost.RatePerHour(b.latencyAt(load, b.zero()), load)
	with := b.Cost.RatePerHour(b.latencyAt(load, spots), load)
	g := base - with
	if g < 0 {
		return 0
	}
	return g
}

// optimalVector grid-searches the per-tier demand vector maximizing net
// benefit at the given price (Fig. 4(a)'s per-price optimum). The grid is
// coarse (gridW watts) — tenants approximate, as the paper notes.
func (b *BundledSprint) optimalVector(load, price float64) []float64 {
	const gridW = 5.0
	best := make([]float64, len(b.Tiers))
	bestNet := 0.0
	// Exhaustive grid over up to three tiers; bundles are small by design.
	var walk func(i int, cur []float64)
	var scratch = make([]float64, len(b.Tiers))
	walk = func(i int, cur []float64) {
		if i == len(b.Tiers) {
			total := 0.0
			for _, s := range cur {
				total += s
			}
			net := b.gainAt(load, cur) - price*total/1000
			if net > bestNet+1e-12 {
				bestNet = net
				copy(best, cur)
			}
			return
		}
		lim := math.Min(b.Tiers[i].Headroom, b.Tiers[i].Model.PeakWatts-b.Tiers[i].Reserved)
		for s := 0.0; s <= lim+gridW/2; s += gridW {
			cur[i] = math.Min(s, lim)
			walk(i+1, cur)
		}
	}
	walk(0, scratch)
	return best
}

// needsSpot reports whether the reservation misses the SLO at the slot's
// load.
func (b *BundledSprint) needsSpot(slot int) bool {
	load := b.Load.At(slot)
	if load <= 0 {
		return false
	}
	return b.latencyAt(load, b.zero()) > b.Cost.SLOms
}

// PlanBids implements Agent: it computes the optimal demand vectors at
// qmin and qmax and bundles them into per-rack linear bids.
func (b *BundledSprint) PlanBids(slot int, _ MarketHint) []core.Bid {
	if !b.needsSpot(slot) {
		return nil
	}
	load := b.Load.At(slot)
	dMax := b.optimalVector(load, b.QMin)
	dMin := b.optimalVector(load, b.QMax)
	racks := b.Racks()
	for i := range dMin {
		if dMin[i] > dMax[i] {
			dMin[i] = dMax[i] // keep each rack's bid monotone
		}
	}
	any := false
	for _, d := range dMax {
		if d > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	bids, err := core.Bundle(b.TenantName, racks, dMax, dMin, b.QMin, b.QMax)
	if err != nil {
		return nil
	}
	return bids
}

// MaxPerfRequests implements Agent. The joint gain is split per tier by
// holding the other tiers at their optimal zero-price allocation, a
// standard separable approximation.
func (b *BundledSprint) MaxPerfRequests(slot int) []core.MaxPerfRequest {
	if !b.needsSpot(slot) {
		return nil
	}
	load := b.Load.At(slot)
	ref := b.optimalVector(load, 0)
	reqs := make([]core.MaxPerfRequest, 0, len(b.Tiers))
	for i, t := range b.Tiers {
		i := i
		lim := math.Min(t.Headroom, t.Model.PeakWatts-t.Reserved)
		if lim <= 0 {
			continue
		}
		gain := func(w float64) float64 {
			v := append([]float64(nil), ref...)
			v[i] = math.Min(w, lim)
			return b.gainAt(load, v)
		}
		reqs = append(reqs, core.MaxPerfRequest{Rack: t.Rack, MaxWatts: lim, Gain: gain})
	}
	return reqs
}

// Execute implements Agent. The returned PowerByRack map is agent-owned
// scratch, valid until the next Execute call.
func (b *BundledSprint) Execute(slot int, grants map[int]float64) SlotResult {
	load := b.Load.At(slot)
	if len(b.spotsBuf) != len(b.Tiers) {
		b.spotsBuf = make([]float64, len(b.Tiers))
	}
	if b.rackBuf == nil {
		b.rackBuf = make(map[int]float64, len(b.Tiers))
	}
	spots, byRack := b.spotsBuf, b.rackBuf
	totalGrant, totalDraw, totalUsed := 0.0, 0.0, 0.0
	for i, t := range b.Tiers {
		g := grants[t.Rack]
		spots[i] = g
		totalGrant += g
		draw := math.Min(t.Reserved+g, t.Model.PeakWatts)
		if load <= 0 {
			draw = math.Min(t.Model.IdleWatts, t.Reserved)
		}
		byRack[t.Rack] = draw
		totalDraw += draw
		totalUsed += math.Min(math.Max(0, draw-t.Reserved), g)
	}
	if load <= 0 {
		return SlotResult{PowerWatts: totalDraw, SpotGrantWatts: totalGrant, PowerByRack: byRack}
	}
	lat := b.latencyAt(load, spots)
	return SlotResult{
		Participated:   totalGrant > 0,
		PowerWatts:     totalDraw,
		SpotGrantWatts: totalGrant,
		SpotUsedWatts:  totalUsed,
		LatencyMS:      lat,
		SLOViolated:    lat > b.Cost.SLOms,
		PerfScore:      1000 / lat,
		PerfCostRate:   b.Cost.RatePerHour(lat, load),
		PowerByRack:    byRack,
	}
}
