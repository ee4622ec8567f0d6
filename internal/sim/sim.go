// Package sim is the time-slotted simulator tying SpotDC together: it runs
// Algorithm 1 slot by slot over a scenario (power topology + tenant agents
// + background load traces), in one of three modes — SpotDC, the
// PowerCapped status quo, or the owner-operated MaxPerf upper bound — and
// collects the metrics the paper's evaluation reports.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spotdc/internal/capping"
	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/par"
	"spotdc/internal/power"
	"spotdc/internal/powertrace"
	"spotdc/internal/stats"
	"spotdc/internal/tenant"
	"spotdc/internal/workload"
)

// Mode selects the capacity-management scheme under simulation.
type Mode int

const (
	// ModeSpotDC runs the paper's market (Algorithm 1).
	ModeSpotDC Mode = iota
	// ModePowerCapped is the status quo: no spot capacity, tenants cap at
	// their reservations.
	ModePowerCapped
	// ModeMaxPerf is the owner-operated upper bound: the operator sees
	// tenants' true gain curves and allocates to maximize total gain.
	ModeMaxPerf
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSpotDC:
		return "SpotDC"
	case ModePowerCapped:
		return "PowerCapped"
	case ModeMaxPerf:
		return "MaxPerf"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Scenario describes one simulation run.
type Scenario struct {
	// Name labels the run.
	Name string
	// Topo is the power hierarchy; agents reference its rack indices.
	Topo *power.Topology
	// Agents are the participating tenants.
	Agents []tenant.Agent
	// OtherLoad is one power trace per PDU for the non-participating
	// ("Other" in Table I) tenants.
	OtherLoad []*powertrace.Power
	// OtherLeasedWatts is the guaranteed capacity leased by the
	// non-participating tenants (enters the operator's revenue baseline).
	OtherLeasedWatts float64
	// Slots is the number of time slots to simulate.
	Slots int
	// SlotSeconds is the slot length (the paper uses 1–5 minutes).
	SlotSeconds int
	// MarketOptions tunes the clearing search.
	MarketOptions core.Options
	// Pricing carries the monetary parameters (DefaultPricing if zero).
	Pricing operator.Pricing
	// Predict tunes spot prediction (Fig. 17's under-prediction factor).
	Predict power.PredictOptions
	// BreakerTolerance is the excursion fraction breakers ride through.
	BreakerTolerance float64
	// Hint, if non-nil, supplies strategic bidders' market information per
	// slot (Fig. 16).
	Hint func(slot int) tenant.MarketHint
	// PriceFeedback, if non-nil, is called after every clearing with the
	// slot's price (0 when no market ran); lets Hint implementations build
	// online predictors (e.g. an EWMA) from realized prices.
	PriceFeedback func(slot int, price float64)
	// Emergency, if non-nil, injects capacity excursions and (optionally)
	// enables the operator's emergency responder. Nil keeps the run
	// bit-identical to a simulator without the emergency subsystem.
	Emergency *EmergencyScenario
	// BidLossProb drops each agent's bid submission with this probability,
	// emulating the Section III-C communication-loss exception: an affected
	// tenant silently falls back to no spot capacity for the slot.
	BidLossProb float64
	// FaultSeed drives the bid-loss process. Every agent derives its own
	// splitmix64 stream from (FaultSeed, agent index), so the randomness an
	// agent consumes is independent of iteration order (see rng.go).
	FaultSeed int64
	// Parallel runs the per-agent work of every slot — PlanBids /
	// MaxPerfRequests, Execute, and per-tenant stats accumulation — on a
	// GOMAXPROCS-bounded worker pool instead of a serial loop. Results are
	// bit-identical to a serial run: each agent's slot work is independent
	// (per-agent fault streams, agent-owned scratch), and every cross-agent
	// merge (bid order, rack readings, slot series, billing) happens
	// serially in agent order either way.
	Parallel bool
}

// EmergencyScenario parameterizes the simulator's emergency-loop harness:
// a deterministic overload schedule that pushes one PDU past its breaker
// tolerance, and the operator-side responder that reclaims spot capacity by
// power-capping the overloading racks (Section III-C).
type EmergencyScenario struct {
	// Responder enables the operator's emergency loop: reclaim planning,
	// spot-sale suspension, and budget restoration (operator.ResponderConfig).
	// Off, excursions are only counted — the historical behavior — so an
	// A/B pair isolates exactly the responder's effect.
	Responder bool
	// EscalationSeverity and RecoverySlots configure the responder (see
	// operator.ResponderConfig; zeros take its defaults).
	EscalationSeverity float64
	RecoverySlots      int
	// OverloadEvery > 0 injects a recurring surge: during the last
	// OverloadDuration slots of every OverloadEvery-slot period, each rack
	// under OverloadPDU draws OverloadRackWatts extra (uncapped tenant
	// sprinting — the overload the responder exists to contain).
	OverloadEvery     int
	OverloadDuration  int
	OverloadRackWatts float64
	OverloadPDU       int
}

func (e *EmergencyScenario) validate(topo *power.Topology) error {
	switch {
	case e.EscalationSeverity < 0:
		return fmt.Errorf("sim: emergency escalation severity %v negative", e.EscalationSeverity)
	case e.RecoverySlots < 0:
		return fmt.Errorf("sim: emergency recovery slots %d negative", e.RecoverySlots)
	case e.OverloadEvery < 0:
		return fmt.Errorf("sim: OverloadEvery %d negative", e.OverloadEvery)
	case e.OverloadRackWatts < 0:
		return fmt.Errorf("sim: OverloadRackWatts %v negative", e.OverloadRackWatts)
	}
	if e.OverloadEvery > 0 {
		if e.OverloadDuration <= 0 || e.OverloadDuration > e.OverloadEvery {
			return fmt.Errorf("sim: OverloadDuration %d outside (0, OverloadEvery=%d]", e.OverloadDuration, e.OverloadEvery)
		}
		if e.OverloadPDU < 0 || e.OverloadPDU >= len(topo.PDUs) {
			return fmt.Errorf("sim: OverloadPDU %d of %d", e.OverloadPDU, len(topo.PDUs))
		}
	}
	return nil
}

func (sc *Scenario) validate() error {
	switch {
	case sc.Topo == nil:
		return errors.New("sim: scenario has nil topology")
	case sc.Slots <= 0:
		return fmt.Errorf("sim: Slots %d must be positive", sc.Slots)
	case sc.SlotSeconds <= 0:
		return fmt.Errorf("sim: SlotSeconds %d must be positive", sc.SlotSeconds)
	case len(sc.OtherLoad) != len(sc.Topo.PDUs):
		return fmt.Errorf("sim: %d other-load traces for %d PDUs", len(sc.OtherLoad), len(sc.Topo.PDUs))
	case sc.BidLossProb < 0 || sc.BidLossProb > 1:
		return fmt.Errorf("sim: BidLossProb %v outside [0,1]", sc.BidLossProb)
	}
	for _, a := range sc.Agents {
		for _, r := range a.Racks() {
			if r < 0 || r >= len(sc.Topo.Racks) {
				return fmt.Errorf("sim: agent %s references rack %d of %d", a.Name(), r, len(sc.Topo.Racks))
			}
		}
	}
	if sc.Emergency != nil {
		if err := sc.Emergency.validate(sc.Topo); err != nil {
			return err
		}
	}
	return nil
}

// TenantStats accumulates one agent's metrics over a run.
type TenantStats struct {
	// Name and Class identify the tenant.
	Name  string
	Class workload.Class
	// Reserved is the agent's total guaranteed capacity in watts.
	Reserved float64
	// NeedSlots counts slots where the tenant needed spot capacity
	// (policy-independent, from its true gain curves); the paper averages
	// performance over exactly these slots.
	NeedSlots int
	// GrantSlots counts slots with a positive spot grant.
	GrantSlots int
	// SLOViolations counts missed-SLO slots (sprinting agents).
	SLOViolations int
	// PerfNeed averages the performance score over need slots.
	PerfNeed stats.Running
	// LatencyNeed averages tail latency over need slots (sprinting).
	LatencyNeed stats.Running
	// GrantFrac tracks the spot grant as a fraction of the guaranteed
	// capacity over need slots (Fig. 12(c)).
	GrantFrac stats.Running
	// Payment is the cumulative spot payment in $.
	Payment float64
	// EnergyKWh is the cumulative energy drawn.
	EnergyKWh float64
	// SpotKWh is the cumulative granted spot energy.
	SpotKWh float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Name and Mode echo the scenario.
	Name string
	Mode Mode
	// Slots and SlotSeconds echo the horizon.
	Slots       int
	SlotSeconds int
	// Prices holds the clearing price of every slot that sold capacity
	// (Fig. 13(a)).
	Prices []float64
	// PriceSeries holds the clearing price of every slot (zero when no
	// market ran), aligned with the other series (Fig. 10).
	PriceSeries []float64
	// SpotAvailable and SpotSold are UPS-level watts per slot (Fig. 10).
	SpotAvailable []float64
	SpotSold      []float64
	// UPSPower is the realized UPS draw per slot in watts (Fig. 13(b)).
	UPSPower []float64
	// PDUPower is the realized per-PDU draw per slot (Fig. 7(a)).
	PDUPower [][]float64
	// Tenants maps agent name to its accumulated stats.
	Tenants map[string]*TenantStats
	// TenantTraces holds per-slot performance scores per agent (Fig. 11);
	// populated only when Record is set on Run.
	TenantTraces map[string][]float64
	// SpotRevenue is the operator's cumulative spot revenue in $.
	SpotRevenue float64
	// EmergencySlots counts slots with a capacity excursion beyond breaker
	// tolerance.
	EmergencySlots int
	// LongestEmergencyRun is the longest streak of consecutive emergency
	// slots — the excursion duration the responder exists to bound
	// (populated only with Scenario.Emergency set).
	LongestEmergencyRun int
	// EmergenciesActed, ReclaimedWatts, GuaranteedCutWatts, and
	// InvoluntaryCuts mirror the operator's responder totals (all zero when
	// the responder is off): excursions acted on, budget watts reclaimed,
	// guaranteed watts curtailed under escalation, and budget resets that
	// invaded a guarantee.
	EmergenciesActed   int
	ReclaimedWatts     float64
	GuaranteedCutWatts float64
	InvoluntaryCuts    int
	// LostBids counts bid submissions dropped by fault injection.
	LostBids int
	// ClearingTime is the total wall time spent in market clearing, and
	// Clearings the number of clearing rounds (Fig. 7(b)).
	ClearingTime time.Duration
	Clearings    int
	// Operator exposes the operator for profit reporting.
	Operator *operator.Operator
}

// Hours returns the simulated duration in hours.
func (r *Result) Hours() float64 {
	return float64(r.Slots) * float64(r.SlotSeconds) / 3600
}

// Profit returns the operator's profit report for the run.
func (r *Result) Profit(otherLeasedWatts float64) operator.ProfitReport {
	return r.Operator.Profit(r.Hours(), otherLeasedWatts)
}

// RunOptions tunes a simulation run.
type RunOptions struct {
	// Mode selects the scheme (default ModeSpotDC).
	Mode Mode
	// Record enables per-slot tenant performance traces (Fig. 10/11);
	// leave off for year-long runs.
	Record bool
	// Registry, if non-nil, instruments the run: the market core and
	// operator register their families on it (registration is idempotent,
	// so a parallel scenario fan-out may share one registry — counters then
	// aggregate across scenarios) and the simulator counts slots on
	// spotdc_sim_slots_total. Instrumentation never perturbs results: every
	// observation is an atomic side effect of values already computed.
	Registry *metrics.Registry
	// Audit attaches a conservation auditor to the market core (see
	// core.Auditor) and, after the run, reconciles the operator's books
	// (payments vs. revenue) and the simulator's per-tenant payment mirror
	// against the operator's ledger. Any violation fails the run with a
	// descriptive error. Overhead is one O(bids) pass per slot.
	Audit bool
	// Tracer, if non-nil, opens one root span per simulated slot (ModeSpotDC
	// only) with the operator's predict/clear/audit children underneath —
	// the in-process twin of NetRunOptions.Tracer, minus the wire spans.
	Tracer *otrace.Tracer
}

// Run simulates the scenario.
func Run(sc Scenario, opts RunOptions) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	var slotsTotal *metrics.Counter
	var opMetrics *operator.Metrics
	if opts.Registry != nil {
		// sc is a by-value copy, so wiring market instrumentation here never
		// mutates the caller's scenario.
		sc.MarketOptions.Metrics = core.NewMarketMetrics(opts.Registry)
		opMetrics = operator.NewMetrics(opts.Registry)
		slotsTotal = opts.Registry.Counter("spotdc_sim_slots_total",
			"Simulated market slots completed, across all scenarios sharing the registry.")
	}
	var aud *core.Auditor
	if opts.Audit {
		// sc is a by-value copy (see the Metrics wiring above), so the
		// auditor never leaks into the caller's scenario.
		aud = &core.Auditor{}
		sc.MarketOptions.Audit = aud
	}
	opCfg := operator.Config{
		Topology:      sc.Topo,
		MarketOptions: sc.MarketOptions,
		Pricing:       sc.Pricing,
		Predict:       sc.Predict,
		Metrics:       opMetrics,
		Tracer:        opts.Tracer,
	}
	var emr *emergencyRunner
	if sc.Emergency != nil {
		if sc.Emergency.Responder {
			// The simulator drives tenant capping controllers directly from
			// op.LastReclaims(), so the operator needs no SetBudget hook.
			opCfg.Emergency = &operator.ResponderConfig{
				EscalationSeverity: sc.Emergency.EscalationSeverity,
				RecoverySlots:      sc.Emergency.RecoverySlots,
			}
		}
		var err error
		emr, err = newEmergencyRunner(sc.Topo, *sc.Emergency)
		if err != nil {
			return nil, err
		}
	}
	op, err := operator.New(opCfg)
	if err != nil {
		return nil, err
	}
	slotHours := float64(sc.SlotSeconds) / 3600
	res := &Result{
		Name:          sc.Name,
		Mode:          opts.Mode,
		Slots:         sc.Slots,
		SlotSeconds:   sc.SlotSeconds,
		PriceSeries:   make([]float64, 0, sc.Slots),
		SpotAvailable: make([]float64, 0, sc.Slots),
		SpotSold:      make([]float64, 0, sc.Slots),
		UPSPower:      make([]float64, 0, sc.Slots),
		PDUPower:      make([][]float64, len(sc.Topo.PDUs)),
		Tenants:       make(map[string]*TenantStats, len(sc.Agents)),
		Operator:      op,
	}
	if opts.Record {
		res.TenantTraces = make(map[string][]float64, len(sc.Agents))
	}
	for _, a := range sc.Agents {
		ts := &TenantStats{Name: a.Name(), Class: a.Class()}
		for _, r := range a.Racks() {
			ts.Reserved += a.ReservedWatts(r)
		}
		if _, dup := res.Tenants[a.Name()]; dup {
			return nil, fmt.Errorf("sim: duplicate agent name %q", a.Name())
		}
		res.Tenants[a.Name()] = ts
	}

	// The reference reading for slot 0: every rack at its guaranteed
	// capacity, others at their first trace point.
	reading := power.Reading{
		RackWatts:     make([]float64, len(sc.Topo.Racks)),
		OtherPDUWatts: make([]float64, len(sc.Topo.PDUs)),
	}
	for i, r := range sc.Topo.Racks {
		reading.RackWatts[i] = r.Guaranteed
	}
	for m := range sc.Topo.PDUs {
		reading.OtherPDUWatts[m] = sc.OtherLoad[m].At(0)
	}

	// Per-agent fault streams: agent i's bid-loss randomness is a pure
	// function of (FaultSeed, i, slot), independent of iteration order.
	var faults []faultStream
	if sc.BidLossProb > 0 {
		faults = make([]faultStream, len(sc.Agents))
		for i := range faults {
			faults[i] = newFaultStream(sc.FaultSeed, i)
		}
	}
	// workers for the per-agent phases: 1 pins the pool to the calling
	// goroutine (a plain loop), 0 resolves to GOMAXPROCS.
	workers := 1
	if sc.Parallel {
		workers = 0
	}
	// Per-agent slot scratch, reused across slots: the parallel phases
	// write each agent's results into its own slot, and the serial merge
	// reads them back in agent order.
	perAgent := make([]agentSlot, len(sc.Agents))
	tsByIdx := make([]*TenantStats, len(sc.Agents))
	for i, a := range sc.Agents {
		tsByIdx[i] = res.Tenants[a.Name()]
	}
	var traces [][]float64
	if opts.Record {
		traces = make([][]float64, len(sc.Agents))
		for i := range traces {
			traces[i] = make([]float64, 0, sc.Slots)
		}
	}
	bids := make([]core.Bid, 0, len(sc.Agents))
	reqs := make([]core.MaxPerfRequest, 0, len(sc.Agents))

	grants := make(map[int]float64)
	for slot := 0; slot < sc.Slots; slot++ {
		hint := tenant.MarketHint{}
		if sc.Hint != nil {
			hint = sc.Hint(slot)
		}
		for k := range grants {
			delete(grants, k)
		}
		price, sold, avail := 0.0, 0.0, 0.0

		switch opts.Mode {
		case ModeSpotDC:
			// Plan phase (parallel across agents): draw the agent's fault
			// variate and plan its bids. The merge below is serial in agent
			// order, so the submitted bid order matches a serial run.
			par.For(workers, len(sc.Agents), func(i int) {
				as := &perAgent[i]
				as.bids, as.lost = nil, false
				if faults != nil && faults[i].Float64() < sc.BidLossProb {
					// Communication loss: the submission never arrives and
					// the tenant defaults to no spot capacity this slot.
					as.lost = true
					return
				}
				as.bids = sc.Agents[i].PlanBids(slot, hint)
			})
			bids = bids[:0]
			for i := range perAgent {
				if perAgent[i].lost {
					res.LostBids++
					continue
				}
				bids = append(bids, perAgent[i].bids...)
			}
			root := opts.Tracer.StartRoot("slot", slot)
			if root != nil {
				root.SetInt("bids", int64(len(bids)))
				op.SetTraceParent(root)
			}
			out, err := op.RunSlot(bids, reading, slotHours)
			if root != nil {
				op.SetTraceParent(nil)
				if err != nil {
					root.ForceSample()
					root.SetStr("error", err.Error())
				} else {
					root.SetFloat("price", out.Result.Price)
					root.SetFloat("sold_watts", out.Result.TotalWatts)
				}
				root.End()
			}
			if err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			// Time only the market clearing itself (out.ClearDuration), not
			// prediction + feasibility + billing: Fig. 7(b) measures the
			// clearing algorithm's scaling.
			res.ClearingTime += out.ClearDuration
			res.Clearings++
			for _, a := range out.Result.Allocations {
				if a.Watts > 0 {
					grants[a.Rack] += a.Watts
				}
			}
			price, sold, avail = out.Result.Price, out.Result.TotalWatts, out.Spot.UPSWatts
			if sold > 0 {
				res.Prices = append(res.Prices, price)
			}
			// Per-tenant billing for this slot.
			for _, alloc := range out.Result.Allocations {
				if alloc.Watts > 0 && alloc.Tenant != "" {
					if ts := res.Tenants[alloc.Tenant]; ts != nil {
						ts.Payment += out.Result.Price * alloc.Watts / 1000 * slotHours
					}
				}
			}
		case ModeMaxPerf:
			par.For(workers, len(sc.Agents), func(i int) {
				perAgent[i].reqs = sc.Agents[i].MaxPerfRequests(slot)
			})
			reqs = reqs[:0]
			for i := range perAgent {
				reqs = append(reqs, perAgent[i].reqs...)
			}
			allocs, spot, err := op.MaxPerfSlot(reqs, reading)
			if err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			for _, a := range allocs {
				if a.Watts > 0 {
					grants[a.Rack] += a.Watts
					sold += a.Watts
				}
			}
			avail = spot.UPSWatts
		case ModePowerCapped:
			// No market, no grants.
		default:
			return nil, fmt.Errorf("sim: unknown mode %v", opts.Mode)
		}

		// Execute phase (parallel across agents): run every agent's slot and
		// accumulate its per-tenant stats — each agent touches only its own
		// TenantStats and trace row, so the accumulation order (and hence
		// every floating-point sum) is identical to a serial run.
		for m := range sc.Topo.PDUs {
			reading.OtherPDUWatts[m] = sc.OtherLoad[m].At(slot)
		}
		par.For(workers, len(sc.Agents), func(i int) {
			a := sc.Agents[i]
			needed := len(a.MaxPerfRequests(slot)) > 0
			slotRes := a.Execute(slot, grants) // grants is read-only here
			perAgent[i].res = slotRes
			ts := tsByIdx[i]
			ts.EnergyKWh += slotRes.PowerWatts / 1000 * slotHours
			ts.SpotKWh += slotRes.SpotGrantWatts / 1000 * slotHours
			if slotRes.SpotGrantWatts > 0 {
				ts.GrantSlots++
			}
			if slotRes.SLOViolated {
				ts.SLOViolations++
			}
			if needed {
				ts.NeedSlots++
				ts.PerfNeed.Observe(slotRes.PerfScore)
				if a.Class() == workload.Sprinting {
					ts.LatencyNeed.Observe(slotRes.LatencyMS)
				}
				if ts.Reserved > 0 {
					ts.GrantFrac.Observe(slotRes.SpotGrantWatts / ts.Reserved)
				}
			}
			if opts.Record {
				traces[i] = append(traces[i], slotRes.PerfScore)
			}
		})
		// Serial merge in agent order: assemble the realized rack reading
		// (later agents win shared racks, exactly as the serial loop did).
		for i := range perAgent {
			for rack, w := range perAgent[i].res.PowerByRack {
				reading.RackWatts[rack] = w
			}
		}

		if sc.PriceFeedback != nil {
			sc.PriceFeedback(slot, price)
		}
		if emr != nil {
			// Overload surge and tenant-side capping run on the slot
			// goroutine, so serial and parallel runs stay bit-identical.
			emr.apply(slot, reading)
		}
		if em := op.ObserveEmergencies(reading, sc.BreakerTolerance); len(em) > 0 {
			res.EmergencySlots++
			if emr != nil {
				emr.run++
				if emr.run > res.LongestEmergencyRun {
					res.LongestEmergencyRun = emr.run
				}
			}
		} else if emr != nil {
			emr.run = 0
		}
		if emr != nil {
			emr.absorb(op)
		}
		res.PriceSeries = append(res.PriceSeries, price)
		res.SpotSold = append(res.SpotSold, sold)
		res.SpotAvailable = append(res.SpotAvailable, avail)
		res.UPSPower = append(res.UPSPower, sc.Topo.UPSPower(reading))
		for m := range sc.Topo.PDUs {
			res.PDUPower[m] = append(res.PDUPower[m], sc.Topo.PDUPower(reading, m))
		}
		slotsTotal.Inc() // nil-safe: no-op when uninstrumented
	}
	if opts.Record {
		for i, a := range sc.Agents {
			res.TenantTraces[a.Name()] = traces[i]
		}
	}
	res.SpotRevenue = op.SpotRevenue()
	res.EmergenciesActed = op.EmergenciesActed()
	res.ReclaimedWatts = op.ReclaimedWatts()
	res.GuaranteedCutWatts = op.GuaranteedCutWatts()
	res.InvoluntaryCuts = op.InvoluntaryCuts()
	if opts.Audit {
		if err := auditRun(aud, op, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// auditRun applies the post-run conservation checks of RunOptions.Audit:
// the inline auditor must be clean, the operator's books must reconcile,
// and the simulator's per-tenant payment mirror must match the operator's
// ledger (they are accumulated independently, so a drift means one of the
// two billing paths dropped or double-counted a line item).
func auditRun(aud *core.Auditor, op *operator.Operator, res *Result) error {
	if n := aud.Violations(); n > 0 {
		return fmt.Errorf("sim: audit found %d clearing violation(s): %w", n, aud.Err())
	}
	if err := op.ReconcileAccounts(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	for name, ts := range res.Tenants {
		want := op.PaymentOf(name)
		if d := math.Abs(ts.Payment - want); d > 1e-9*(1+math.Abs(want)) {
			return fmt.Errorf("sim: audit: tenant %s paid $%v in sim books, $%v in operator ledger (Δ %g)",
				name, ts.Payment, want, d)
		}
	}
	return nil
}

// emergencyRunner holds the per-run state of the emergency harness: the
// overload schedule and, with the responder on, one capping controller per
// rack modelling the tenant side of the loop — it tracks whatever budget
// the operator's reclaim plans push down, with PI settle dynamics instead
// of an instantaneous cut.
type emergencyRunner struct {
	cfg   EmergencyScenario
	topo  *power.Topology
	ctrls []*capping.Controller // per rack; nil without the responder
	peaks []float64             // per-rack model peak (guaranteed + headroom + surge)
	caped []bool                // racks under an active reclaim budget
	run   int                   // consecutive emergency slots
}

func newEmergencyRunner(topo *power.Topology, cfg EmergencyScenario) (*emergencyRunner, error) {
	e := &emergencyRunner{
		cfg:   cfg,
		topo:  topo,
		peaks: make([]float64, len(topo.Racks)),
		caped: make([]bool, len(topo.Racks)),
	}
	for i, r := range topo.Racks {
		e.peaks[i] = r.Guaranteed + r.SpotHeadroom + cfg.OverloadRackWatts
	}
	if !cfg.Responder {
		return e, nil
	}
	e.ctrls = make([]*capping.Controller, len(topo.Racks))
	for i := range topo.Racks {
		c, err := capping.New(capping.Config{
			Model:         capping.ServerModel{IdleWatts: 0, PeakWatts: e.peaks[i]},
			InitialBudget: e.peaks[i],
		})
		if err != nil {
			return nil, fmt.Errorf("sim: emergency controller for rack %d: %v", i, err)
		}
		e.ctrls[i] = c
	}
	return e, nil
}

// overloadActive reports whether the surge schedule is on for the slot.
func (e *emergencyRunner) overloadActive(slot int) bool {
	return e.cfg.OverloadEvery > 0 &&
		slot%e.cfg.OverloadEvery >= e.cfg.OverloadEvery-e.cfg.OverloadDuration
}

// apply mutates the merged slot reading: first the injected surge (the
// uncapped demand), then the standing caps — racks under a reclaim budget
// settle their capping controller against the offered load and report the
// capped draw instead.
func (e *emergencyRunner) apply(slot int, reading power.Reading) {
	if e.overloadActive(slot) {
		for _, r := range e.topo.RacksOfPDU(e.cfg.OverloadPDU) {
			reading.RackWatts[r] += e.cfg.OverloadRackWatts
		}
	}
	for r, c := range e.ctrls {
		if c == nil || !e.caped[r] {
			continue
		}
		raw := reading.RackWatts[r]
		watts, _ := c.Settle(raw/e.peaks[r], 0.1, 50)
		if watts < raw {
			reading.RackWatts[r] = watts
		}
	}
}

// absorb folds the operator's slot outcome into tenant-side state: reclaim
// plans arm a rack's controller at the reduced budget, restores lift it.
func (e *emergencyRunner) absorb(op *operator.Operator) {
	if e.ctrls == nil {
		return
	}
	for _, plan := range op.LastReclaims() {
		for _, t := range plan.Targets {
			if c := e.ctrls[t.Rack]; c != nil {
				_ = c.SetBudget(t.BudgetWatts)
				e.caped[t.Rack] = true
			}
		}
	}
	for _, plan := range op.LastRestores() {
		for _, t := range plan.Targets {
			if c := e.ctrls[t.Rack]; c != nil {
				_ = c.SetBudget(t.BudgetWatts)
				e.caped[t.Rack] = false
			}
		}
	}
}

// agentSlot is one agent's per-slot scratch: the parallel phases write
// into it, the serial merges read it back in agent order.
type agentSlot struct {
	// bids / lost carry the plan phase (ModeSpotDC).
	bids []core.Bid
	lost bool
	// reqs carries the MaxPerf plan phase.
	reqs []core.MaxPerfRequest
	// res carries the execute phase.
	res tenant.SlotResult
}

// TenantCost computes a tenant's total cost over the run in dollars:
// guaranteed-capacity subscription + metered energy + spot payments
// (Fig. 12(a)).
func TenantCost(r *Result, pricing operator.Pricing, name string) (float64, error) {
	ts, ok := r.Tenants[name]
	if !ok {
		return 0, fmt.Errorf("sim: unknown tenant %q", name)
	}
	hours := r.Hours()
	subscription := pricing.GuaranteedRevenueRate(ts.Reserved) * hours
	energy := ts.EnergyKWh * pricing.EnergyPerKWh
	return subscription + energy + ts.Payment, nil
}
