// Command spotdc-operator runs the operator side of a networked SpotDC
// deployment (Fig. 5): it serves the market protocol on a TCP address and
// clears the market once per slot, broadcasting the price and grants to
// connected tenants. The node itself is spotdc.NewMarketNode — the same
// assembly the simulator's networked and crash-recovery harnesses test;
// this command adds flags, the demo topology, signals and logging.
//
// The power hierarchy is the paper's Table I testbed; background
// (non-participating) power is synthesized. Tenants connect with
// spotdc-tenant.
//
// Usage:
//
//	spotdc-operator [-listen 127.0.0.1:7070] [-slot-seconds 10] [-slots N] \
//	    [-wire any|json|binary] [-metrics-addr host:port] [-events FILE] \
//	    [-state-dir DIR] [-fsync record|slot|timer] [-audit] [-emergency] [-v]
//
// The server speaks both wire encodings, answering each connection in
// whichever encoding it opened with (JSON or the compact binary frame); the
// -wire flag restricts which encodings are accepted, for fleets that want
// to enforce one.
//
// Observability: -metrics-addr serves Prometheus text metrics on
// GET /metrics (plus /healthz) covering market clearings, operator slot
// outcomes, protocol sessions and bid handling; -pprof additionally mounts
// the /debug/pprof/* profiling endpoints there; -events appends one JSON
// line per slot (price, volume, revenue, degradation) to FILE; -v enables
// verbose per-slot and protocol diagnostics (prefixed slot=N trace=ID so a
// log line joins its span tree), which are silent by default.
//
// Tracing: -trace-spans FILE records one span tree per slot — bid-window
// drain, prediction, clearing, feasibility audit, WAL commit, broadcast
// fan-out with per-session sends — as JSON lines; -trace-sample N head-
// samples every Nth slot (degraded, emergency and slowest-percentile slots
// are always kept). Convert the journal with spotdc-spans to open it in
// Perfetto, or browse the live ring at /debug/traces on -metrics-addr.
// Connected tenants' price broadcasts carry the slot's trace context, so
// tenant-side spans (spotdc tenant clients with a Tracer) parent under the
// same trace across both wire encodings.
//
// Emergency response: -emergency arms the Section III-C loop — every slot
// the operator checks measured load against breaker capacity (ride-through
// tolerance -breaker-tolerance); on an excursion it reclaims spot capacity
// proportionally to granted spot, resets rack PDU budgets, broadcasts the
// new budgets to connected tenants, and suspends spot sales at the affected
// element until -emergency-recovery-slots consecutive healthy readings.
// The demo's synthesized background trace stays below breaker capacity, so
// excursions come from real telemetry in a production deployment; the flag
// arms the loop and exercises the budget plumbing end to end.
//
// Durability: -state-dir DIR keeps the operator's books in a write-ahead
// log under DIR — one full-state record per slot boundary, at most two
// segment files on disk, fsync policy -fsync (record, slot or timer; see
// -fsync-interval). On startup the operator restores the newest record a
// previous process committed and resumes the market at the next slot;
// torn final records from a crash are truncated and the slot re-runs. A
// state directory in the older delta-and-snapshot format is refused. A restart that
// recovers a market position appends to the -events journal (its header is
// already on disk), so one journal file spans restarts; a fresh state
// directory starts a fresh journal (-events-sync forces it to disk every N
// slots). With -emergency the rack PDU budgets are logged with every slot
// and restored on restart. SIGINT/SIGTERM
// stop the loop gracefully at the next slot boundary, then drain in order:
// WAL close (final fsync), journal sync, summaries — with -emergency the
// summary names any failed rack PDU budget resets. A second signal exits
// immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spotdc"
	"spotdc/internal/powertrace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to serve the market protocol on")
	slotSeconds := flag.Int("slot-seconds", 10, "market slot length in seconds (paper: 60-300; short for demos)")
	slots := flag.Int("slots", 0, "stop after this many slots (0 = run forever)")
	seed := flag.Int64("seed", 42, "background power trace seed")
	algorithm := flag.String("algorithm", "auto", "clearing engine: auto, scan or exact")
	wire := flag.String("wire", "any", "accepted wire encodings: any, json or binary")
	sessionTTL := flag.Duration("session-ttl", 0, "expire tenant sessions idle longer than this (0 = library default)")
	bidWindow := flag.Int("bid-window", 0, "accept bids at most this many slots ahead (0 = library default)")
	maxFailures := flag.Int("max-consecutive-failures", 0, "trip the breaker to no-spot after this many consecutive slot failures (0 = never)")
	breakerCooldown := flag.Int("breaker-cooldown-slots", 0, "slots to hold the breaker open before a half-open probe (0 = stay open)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (e.g. localhost:9090)")
	pprofOn := flag.Bool("pprof", false, "also serve /debug/pprof/* profiling endpoints on -metrics-addr")
	traceSpans := flag.String("trace-spans", "", "record slot-lifecycle trace spans as JSON lines to this file (convert with spotdc-spans)")
	traceSample := flag.Int("trace-sample", 1, "head-sample every Nth slot's trace (1 = all; degraded/emergency/slow slots are always kept)")
	eventsFile := flag.String("events", "", "append one JSON slot event per market slot to this file")
	eventsSync := flag.Int("events-sync", 0, "fsync the -events journal every N slots (0 = only at shutdown)")
	stateDir := flag.String("state-dir", "", "persist operator state (WAL) under this directory and recover from it on startup")
	fsync := flag.String("fsync", "slot", "WAL fsync policy: record, slot or timer (with -state-dir)")
	fsyncInterval := flag.Duration("fsync-interval", 0, "background fsync tick for -fsync timer (0 = library default)")
	auditRun := flag.Bool("audit", false, "re-verify clearing invariants inline on every slot and log violations")
	emergency := flag.Bool("emergency", false, "arm the emergency responder: reclaim spot capacity and reset rack PDU budgets on capacity excursions")
	breakerTol := flag.Float64("breaker-tolerance", 0.05, "breaker ride-through tolerance fraction before an excursion is an emergency (with -emergency)")
	escalation := flag.Float64("emergency-escalation", 0.5, "overload fraction beyond which guaranteed capacity is curtailed pro-rata (with -emergency)")
	recoverySlots := flag.Int("emergency-recovery-slots", 2, "consecutive healthy slots before a suspended element resumes spot sales (with -emergency)")
	resetDelay := flag.Duration("reset-delay", 0, "rack PDU budget-reset actuation delay (with -emergency)")
	verbose := flag.Bool("v", false, "verbose: per-slot results and protocol diagnostics (default: quiet)")
	flag.Parse()

	algo, err := spotdc.ParseClearingAlgorithm(*algorithm)
	if err != nil {
		log.Fatal(err)
	}
	wirePolicy, err := spotdc.ParseMarketWirePolicy(*wire)
	if err != nil {
		log.Fatal(err)
	}

	// Observability is opt-in: a nil registry disables every metric hook.
	var reg *spotdc.MetricsRegistry
	if *metricsAddr != "" {
		reg = spotdc.NewMetricsRegistry()
	}
	// -trace-spans: one tracer shared by the market loop, the server's
	// broadcast fan-out, and the operator's slot phases, journaled as JSON
	// lines (read them back with spotdc-spans or cmd/spotdc-audit -spans).
	var tracer *spotdc.Tracer
	if *traceSpans != "" {
		f, err := os.Create(*traceSpans)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		var tm *spotdc.TracerMetrics
		if reg != nil {
			tm = spotdc.NewTracerMetrics(reg)
		}
		tracer = spotdc.NewTracer(spotdc.TracerOptions{
			SampleEvery: *traceSample,
			Journal:     f,
			Metrics:     tm,
		})
		log.Printf("spotdc-operator: tracing slot spans to %s (sample every %d)", *traceSpans, *traceSample)
	}
	if *metricsAddr != "" {
		muxOpts := spotdc.MetricsMuxOptions{Pprof: *pprofOn}
		if tracer != nil {
			muxOpts.Extra = map[string]http.Handler{"/debug/traces": spotdc.TraceHandler(tracer)}
		}
		bound, shutdown, err := spotdc.ServeMetricsOpts(*metricsAddr, reg, muxOpts)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("spotdc-operator: serving metrics on http://%s/metrics", bound)
		if *pprofOn {
			log.Printf("spotdc-operator: profiling on http://%s/debug/pprof/", bound)
		}
	} else if *pprofOn {
		log.Printf("spotdc-operator: -pprof has no effect without -metrics-addr")
	}
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}

	topo, err := spotdc.NewTopology(1370,
		[]spotdc.PDU{
			{ID: "PDU#1", Capacity: 715},
			{ID: "PDU#2", Capacity: 724},
		},
		[]spotdc.Rack{
			{ID: "S-1", Tenant: "Search-1", PDU: 0, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "S-2", Tenant: "Web", PDU: 0, Guaranteed: 115, SpotHeadroom: 50},
			{ID: "O-1", Tenant: "Count-1", PDU: 0, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-2", Tenant: "Graph-1", PDU: 0, Guaranteed: 115, SpotHeadroom: 50},
			{ID: "S-3", Tenant: "Search-2", PDU: 1, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-3", Tenant: "Count-2", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-4", Tenant: "Sort", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-5", Tenant: "Graph-2", PDU: 1, Guaranteed: 115, SpotHeadroom: 50},
		})
	if err != nil {
		log.Fatal(err)
	}
	// Background (non-participating) power per PDU.
	others := make([]*powertrace.Power, len(topo.PDUs))
	for m := range others {
		tr, err := powertrace.GeneratePower(powertrace.PowerConfig{
			Name: fmt.Sprintf("other-%d", m), Seed: *seed + int64(m),
			Slots: 100000, SlotSeconds: *slotSeconds,
			MeanWatts: 180, MinWatts: 90, MaxWatts: 250, Volatility: 0.03,
		})
		if err != nil {
			log.Fatal(err)
		}
		others[m] = tr
	}

	slotLen := time.Duration(*slotSeconds) * time.Second
	cfg := spotdc.MarketNodeConfig{
		Operator: spotdc.OperatorConfig{
			Topology:      topo,
			MarketOptions: spotdc.MarketOptions{PriceStep: 0.001, Algorithm: algo},
		},
		Listen: *listen,
		Server: spotdc.MarketServerOptions{
			Wire:       wirePolicy,
			SessionTTL: *sessionTTL,
			BidWindow:  *bidWindow,
			Logf:       logf,
		},
		BreakerTolerance: *breakerTol,
		ResetDelay:       *resetDelay,
		// The demo has no rack telemetry feed: the node references racks at
		// 75% of their guarantee, with this synthesized background load.
		OtherLoad:              others,
		SlotLen:                slotLen,
		Lead:                   slotLen,
		MaxConsecutiveFailures: *maxFailures,
		BreakerCooldownSlots:   *breakerCooldown,
		JournalPath:            *eventsFile,
		JournalSyncEvery:       *eventsSync,
		Registry:               reg,
		Tracer:                 tracer,
	}
	var auditor *spotdc.Auditor
	if *auditRun {
		auditor = &spotdc.Auditor{OnViolation: func(v error) {
			log.Printf("spotdc-operator: AUDIT VIOLATION: %v", v)
		}}
		cfg.Operator.MarketOptions.Audit = auditor
	}
	if *emergency {
		// One rack PDU per rack is the physical enforcement point; the
		// responder's resets land there (and are logged here).
		cfg.Operator.Emergency = &spotdc.ResponderConfig{
			EscalationSeverity: *escalation,
			RecoverySlots:      *recoverySlots,
			SetBudget: func(rack int, watts float64) error {
				log.Printf("emergency: rack %s budget reset to %.1f W", topo.Racks[rack].ID, watts)
				return nil
			},
		}
	}
	if *stateDir != "" {
		policy, err := spotdc.ParseWALSyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		cfg.WAL = spotdc.WALOptions{Dir: *stateDir, Policy: policy, TimerInterval: *fsyncInterval}
	}
	n, err := spotdc.NewMarketNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("spotdc-operator: serving market on %s, slot length %ds", n.Server.Addr(), *slotSeconds)
	firstSlot := n.NextSlot()
	if rec := n.Recovered; rec != nil {
		if firstSlot > 0 {
			log.Printf("spotdc-operator: recovered %s: resuming at slot %d (restored the newest of %d slot records read, %d torn tail(s) repaired), spot revenue so far $%.6f",
				*stateDir, firstSlot, rec.SlotsReplayed, rec.Truncations, n.Operator.SpotRevenue())
		} else {
			log.Printf("spotdc-operator: fresh state directory %s (fsync policy %s)", *stateDir, cfg.WAL.Policy)
		}
	}

	loop, op := n.Loop, n.Operator
	// slotTag prefixes a log line with the slot and its trace ID, so a
	// degraded slot in the log joins its span tree in -trace-spans with one
	// grep ("-" when tracing is off).
	slotTag := func(slot int) string {
		if sc := loop.SlotTrace(); sc.Valid() {
			return fmt.Sprintf("slot=%d trace=%s", slot, sc.Trace)
		}
		return fmt.Sprintf("slot=%d trace=-", slot)
	}
	// Per-slot narration is verbose-only; the journal and /metrics are
	// the always-available records.
	loop.OnSlot = func(slot int, out spotdc.SlotOutcome, bids int) {
		logf("%s: %d bids from %v, price $%.3f/kWh, sold %.1f W, revenue $%.6f (total $%.6f)",
			slotTag(slot), bids, n.Server.Sessions(), out.Result.Price, out.Result.TotalWatts,
			out.RevenueThisSlot, op.SpotRevenue())
	}
	// Section III-C: a failed slot degrades to the no-spot default and
	// the market keeps running; it is logged, never fatal.
	loop.OnSlotError = func(slot int, err error) {
		log.Printf("%s: degraded to no-spot default: %v", slotTag(slot), err)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the loop at the
	// next slot boundary — after that slot's WAL commit, so nothing
	// acknowledged is lost; a second signal exits immediately.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("spotdc-operator: %v: stopping at next slot boundary (signal again to exit now)", s)
		close(stop)
		s = <-sigs
		log.Fatalf("spotdc-operator: %v: exiting immediately", s)
	}()
	loop.Stop = stop

	horizon := *slots
	if horizon == 0 {
		horizon = 1 << 30 // effectively forever
	}
	cleared, err := n.Run(horizon)

	// Ordered drain regardless of how the loop ended: make the log durable
	// first (a sticky WAL error never stopped the market — surface it now),
	// then flush the journal, then summarize.
	if cerr := n.Close(); cerr != nil {
		log.Printf("spotdc-operator: %v", cerr)
	} else if n.Log != nil {
		log.Printf("spotdc-operator: state committed through slot %d in %s", firstSlot+cleared+loop.SlotErrors()-1, *stateDir)
	}
	if err != nil {
		log.Fatal(err)
	}
	if degraded := loop.SlotErrors(); degraded > 0 {
		log.Printf("spotdc-operator: %d/%d slots cleared, %d degraded (breaker open: %v)",
			cleared, horizon, degraded, loop.BreakerTripped())
	}
	if *emergency {
		log.Printf("spotdc-operator: emergency responder: %d emergencies acted on, %.1f W spot reclaimed, %.1f W guaranteed curtailed (%d involuntary cuts)",
			op.EmergenciesActed(), op.ReclaimedWatts(), op.GuaranteedCutWatts(), op.InvoluntaryCuts())
		// A failed reset leaves a rack uncapped through the excursion.
		if failed, last := op.HookFailures(); failed > 0 {
			log.Printf("spotdc-operator: %d rack PDU budget reset(s) failed, last: %v", failed, last)
		}
	}
	if err := n.Journal.Err(); err != nil {
		log.Printf("spotdc-operator: slot journal degraded: %v", err)
	}
	if auditor != nil {
		if n := auditor.Violations(); n > 0 {
			log.Fatalf("spotdc-operator: audit recorded %d violation(s): %v", n, auditor.Err())
		}
		if err := op.ReconcileAccounts(); err != nil {
			log.Fatalf("spotdc-operator: %v", err)
		}
		log.Printf("spotdc-operator: audit clean — every slot conserved power and revenue")
	}
}
