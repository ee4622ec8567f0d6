package main

import (
	"fmt"
	"runtime"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/otrace"
	"spotdc/internal/sim"
	"spotdc/internal/stats"
	"spotdc/internal/tenant"
)

// timedAgent wraps a tenant agent to time its bid planning and slot
// execution. The simulator runs agents serially here, so the totals need
// no locking.
type timedAgent struct {
	tenant.Agent
	plan, exec *time.Duration
}

func (a timedAgent) PlanBids(slot int, hint tenant.MarketHint) []core.Bid {
	start := time.Now()
	bids := a.Agent.PlanBids(slot, hint)
	*a.plan += time.Since(start)
	return bids
}

func (a timedAgent) Execute(slot int, grants map[int]float64) tenant.SlotResult {
	start := time.Now()
	res := a.Agent.Execute(slot, grants)
	*a.exec += time.Since(start)
	return res
}

// runSim drives sim.Run on the Fig. 18 scaled data center: Table I tenants
// replicated to 15,000 with 20% jitter, exact clearing, inline audit,
// serial in-slot work (the experiments' default; on two cores the parallel
// pool is slower). sim.Run goes in chunks of slots until the measured time
// is spent.
func runSim(e *env) (*outcome, error) {
	tenants, chunk, setups := 15000, 50, 5
	if e.debug {
		tenants, chunk, setups = 200, 10, 2
	}
	o := &outcome{layer: make(map[string]float64)}
	fmt.Fprintf(e.log, "# sim tenants=%d racks=%d chunk=%d slots mode=spotdc audit=on serial\n", tenants, tenants, chunk)
	// Set-up is building the scenario (topology, agents, traces), timed
	// several times; a short warm-up run follows, untimed.
	var sc sim.Scenario
	for i := 0; i < setups; i++ {
		runtime.GC() // each build starts on a collected heap, as in a fresh process
		start := time.Now()
		var err error
		sc, err = sim.Scaled(sim.ScaledOptions{
			Testbed:    sim.TestbedOptions{Seed: e.seed, Slots: chunk, Algorithm: core.AlgorithmExact},
			Tenants:    tenants,
			JitterFrac: 0.2,
		})
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}
	warm := sc
	warm.Slots = 2
	if _, err := sim.Run(warm, sim.RunOptions{Mode: sim.ModeSpotDC, Audit: true}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var tracer *otrace.Tracer
	var spans *syncBuffer
	var plan, exec time.Duration
	if e.traced {
		spans = &syncBuffer{}
		tracer = otrace.NewTracer(otrace.Options{SampleEvery: 1, Journal: spans, Seed: e.seed, SlowPercentile: -1})
		agents := make([]tenant.Agent, len(sc.Agents))
		for i, a := range sc.Agents {
			agents[i] = timedAgent{Agent: a, plan: &plan, exec: &exec}
		}
		sc.Agents = agents
	}
	// Each slot's wall time is the gap between consecutive PriceFeedback
	// calls; the process CPU time is read at each of them.
	var lat, cpuAt []float64
	var last time.Time
	sc.PriceFeedback = func(slot int, price float64) {
		now := time.Now()
		if !last.IsZero() {
			lat = append(lat, ms(now.Sub(last)))
			cpuAt = append(cpuAt, cpuMs())
		}
		last = now
	}
	mem := readMem()
	cpu0 := cpuMs()
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var ends []int // len(lat) after each sim.Run: one period of inputs each
	for len(ends) < minPeriods || time.Now().Before(deadline) {
		o.attempted += sc.Slots
		if _, err := sim.Run(sc, sim.RunOptions{Mode: sim.ModeSpotDC, Audit: true, Tracer: tracer}); err != nil {
			o.failed += sc.Slots
			o.problemf("sim.Run: %v", err)
			return o, nil
		}
		ends = append(ends, len(lat))
	}
	wall := time.Since(start)
	o.rssMB = maxRSSMB()
	ops := len(lat)
	prev, lo := cpu0, 0
	for _, b := range windowBounds(len(ends)) {
		hi := ends[b[1]-1]
		o.windows = append(o.windows, window{lat: lat[lo:hi], cpuPerOp: (cpuAt[hi-1] - prev) / float64(max1(hi-lo))})
		prev, lo = cpuAt[hi-1], hi
	}
	L := o.layer
	mem.perOp(L, ops, cpuAt[ops-1]-cpu0)
	fmt.Fprintf(e.log, "# sim %d slots in %v: %.3f ms per slot\n", ops, wall.Round(time.Millisecond), ms(wall)/float64(max1(ops)))
	if !e.traced {
		return o, nil
	}
	slots := float64(max1(ops))
	L["tenant.plan_bids_ms_per_slot"] = ms(plan) / slots
	L["tenant.execute_ms_per_slot"] = ms(exec) / slots
	roots, _, _, err := parseSlotTraces(spans.buf, 0)
	if err != nil {
		return nil, err
	}
	var rootMs, evals []float64
	for _, st := range roots {
		rootMs = append(rootMs, float64(st.root.DurMicros)/1000)
		evals = append(evals, st.evals)
	}
	L["sim.market_ms_per_slot"] = stats.Sum(rootMs) / slots
	L["core.evaluations"] = median(evals)
	stageP50s(L, roots)
	return o, nil
}
