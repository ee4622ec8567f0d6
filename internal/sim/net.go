// Networked scenario runner: drives a Scenario's tenants against the real
// internal/proto transport (Fig. 5) instead of in-process calls, with
// protocol-level fault injection. This is the harness behind the Section
// III-C robustness claim: under any injected fault schedule — lost bids,
// missed broadcasts, severed connections, operator slot failures — the
// market keeps clearing, allocations stay feasible, and affected tenants
// fall back to the no-spot default.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/node"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/tenant"
	"spotdc/internal/wal"
)

// NetEmergencyOptions arms the emergency loop end to end over the wire:
// the operator's market loop checks every cleared reading for excursions,
// the responder plans reclamation and pushes budget resets into emulated
// rack PDUs (the authoritative physical cap on each rack's draw), budget
// resets are broadcast to the affected tenants, and spot sales at the
// element stay suspended until readings recover.
type NetEmergencyOptions struct {
	// BreakerTolerance is the excursion fraction breakers ride through
	// (default: the scenario's, or 0.05 — the testbed breakers').
	BreakerTolerance float64
	// EscalationSeverity and RecoverySlots configure the responder (see
	// operator.ResponderConfig; zeros take its defaults).
	EscalationSeverity float64
	RecoverySlots      int
	// OverloadSlots lists the slots during which every rack under
	// OverloadPDU draws OverloadRackWatts beyond its 75%-of-guarantee
	// reference — the injected excursion the responder must contain.
	OverloadSlots     []int
	OverloadRackWatts float64
	OverloadPDU       int
	// ResetDelay emulates the rack PDUs' budget-reset firmware latency
	// (see rackpdu.Config; the AP8632 sustains 20+ resets/s).
	ResetDelay time.Duration
}

// NetRunOptions configures a networked scenario run.
type NetRunOptions struct {
	// SlotLen is the wall-clock slot length (default 40ms; the scenario's
	// SlotSeconds still sets the *billed* slot duration so revenue matches
	// the in-process simulator's economics).
	SlotLen time.Duration
	// BidFaults injects faults into tenant→operator writes (hellos and
	// bids): the paper's "lost bid" exception.
	BidFaults proto.FaultPlan
	// BroadcastFaults injects faults into operator→tenant writes (price
	// broadcasts, acks): the paper's "missed broadcast" exception.
	BroadcastFaults proto.FaultPlan
	// ErrorSlots poisons the operator's power reading (NaN watts) for the
	// listed slots, forcing RunSlot to fail so the loop's degradation path
	// is exercised end to end.
	ErrorSlots []int
	// MaxConsecutiveFailures / BreakerCooldownSlots configure the market
	// loop's circuit breaker (see proto.MarketLoop).
	MaxConsecutiveFailures int
	BreakerCooldownSlots   int
	// Reconnect enables tenant auto-reconnect with backoff (see
	// proto.ClientOptions).
	Reconnect bool
	// Wire selects every tenant client's wire encoding (default
	// proto.WireJSON). The server accepts both encodings regardless — it
	// answers each client in whichever encoding it opened with.
	Wire proto.Encoding
	// WireFor, if non-nil, selects the wire encoding per agent index,
	// overriding Wire — the mixed-fleet interop hook (some tenants on
	// legacy JSON, some on binary, one market).
	WireFor func(agentIdx int) proto.Encoding
	// SessionTTL is the server-side half-open session expiry (default
	// 10×SlotLen).
	SessionTTL time.Duration
	// BidWindow is the server's bid acceptance window in slots (default
	// proto's 16).
	BidWindow int
	// Registry, if non-nil, instruments the whole networked plane on one
	// registry: the market core and operator families (as in Run), plus one
	// shared proto.Metrics wired into the server, every tenant client, and
	// both fault injectors — so /metrics shows sessions, bid rejections,
	// broadcast outcomes, and injected faults live.
	Registry *metrics.Registry
	// Journal, if non-nil, receives one structured SlotEvent JSON line per
	// market slot (cleared or degraded), stamped with the cumulative
	// injected-fault counts of both directions. The journal opens with a
	// schema-v2 header, making the run deterministically replayable by
	// internal/audit and cmd/spotdc-audit.
	Journal *metrics.Journal
	// Audit attaches a conservation auditor to the market core and, after
	// the run, reconciles the operator's books; any violation fails the run
	// with a descriptive error (see RunOptions.Audit).
	Audit bool
	// Emergency, if non-nil, arms the emergency loop (see
	// NetEmergencyOptions). Nil keeps the networked run bit-identical to a
	// harness without the emergency subsystem.
	Emergency *NetEmergencyOptions
	// Tracer, if non-nil, traces the operator plane: the market loop opens
	// one root span per slot with children for bid drain, predict, clear,
	// audit, emergencies, WAL commit, and broadcast (including per-session
	// send spans). The same tracer is wired into the server and operator.
	Tracer *otrace.Tracer
	// TenantTracer, if non-nil, traces every tenant client (bid decision,
	// submit, await-price) and upgrades their binary sessions to the
	// trace-carrying v2 framing. Use a separate tracer (and journal) from
	// the operator's so the two planes' rings don't contend.
	TenantTracer *otrace.Tracer
	// Durable, if non-nil, is threaded into the market loop so every
	// cleared slot commits to the write-ahead log before its broadcast
	// (see proto.Durable); with Tracer set, the commit is visible as a
	// wal_commit child span.
	Durable *proto.Durable
}

func (o *NetRunOptions) setDefaults() {
	if o.SlotLen <= 0 {
		o.SlotLen = 40 * time.Millisecond
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 10 * o.SlotLen
	}
}

// NetTenantStats reports one tenant's view of a networked run.
type NetTenantStats struct {
	// Name is the tenant name.
	Name string
	// BidSlots counts slots the agent submitted (or tried to submit) bids
	// for.
	BidSlots int
	// SubmitFailures counts bid submissions that failed even after
	// reconnect: the tenant ran those slots without spot capacity.
	SubmitFailures int
	// GrantSlots counts slots with a positive spot grant received.
	GrantSlots int
	// NoSpotSlots counts awaited slots that ended in the no-spot default
	// (missed broadcast, rejected bid, or degraded zero-price slot).
	NoSpotSlots int
	// Reconnects counts restored connections.
	Reconnects int
	// BudgetResets counts emergency budget-reset broadcasts this tenant
	// received and applied (Emergency runs only).
	BudgetResets int
	// DialFailed marks a tenant that never established its session.
	DialFailed bool
}

// NetResult is the outcome of a networked scenario run.
type NetResult struct {
	// Slots echoes the horizon; Cleared counts slots that cleared and
	// SlotErrors slots that degraded to the no-spot default.
	Slots      int
	Cleared    int
	SlotErrors int
	// BreakerTripped reports whether the loop ended with the circuit
	// breaker open.
	BreakerTripped bool
	// InfeasibleSlots counts broadcast allocations that failed an
	// independent VerifyFeasible re-check — any value but zero is a
	// reliability violation.
	InfeasibleSlots int
	// BidFaults / BroadcastFaults are the injected-fault counts for each
	// direction.
	BidFaults       proto.FaultStats
	BroadcastFaults proto.FaultStats
	// ReapedSessions counts server-side session expirations/evictions.
	ReapedSessions int
	// SpotRevenue is the operator's cumulative spot revenue in $.
	SpotRevenue float64
	// EmergencySlots counts cleared slots whose reading exceeded breaker
	// tolerance somewhere in the hierarchy (Emergency runs only); the
	// responder totals below mirror the operator's accessors.
	EmergencySlots     int
	EmergenciesActed   int
	ReclaimedWatts     float64
	GuaranteedCutWatts float64
	InvoluntaryCuts    int
	// BudgetResets totals the budget resets applied across all emulated
	// rack PDUs (reclaims and restores alike).
	BudgetResets int
	// Tenants maps tenant name to its networked stats.
	Tenants map[string]*NetTenantStats
}

// netBids converts an agent's market bids to wire form. Only piece-wise
// linear bids have a four-parameter wire encoding (Eqn. 5); others are
// dropped (the wire protocol is exactly the paper's).
func netBids(topo *power.Topology, bids []core.Bid) []proto.RackBid {
	out := make([]proto.RackBid, 0, len(bids))
	for _, b := range bids {
		lb, ok := b.Fn.(core.LinearBid)
		if !ok {
			continue
		}
		out = append(out, proto.RackBid{
			Rack: topo.Racks[b.Rack].ID,
			DMax: lb.DMax, DMin: lb.DMin, QMin: lb.QMin, QMax: lb.QMax,
		})
	}
	return out
}

// NetRun executes the scenario's market over real TCP connections with the
// given fault schedule. The operator side is a node.Node (proto.MarketLoop
// with its degradation semantics); each agent runs a tenant goroutine that
// bids per slot and awaits the price broadcast, pacing itself by the shared
// slot clock so a missed broadcast costs exactly one slot. Agents' Execute
// feedback is not replayed into the readings — racks are referenced at 75%
// of their guarantee, as in the spotdc-operator demo — because the harness
// exists to stress the transport, not the workload models.
func NetRun(sc Scenario, opts NetRunOptions) (*NetResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	res, _, err := runLifetime(sc, opts, lifetime{to: sc.Slots})
	return res, err
}

// bidBarrierTimeout bounds the wait for a slot's expected bids on a
// fault-free lifetime. It is deliberately not tied to the slot clock: a
// slow host delays the slot instead of silently draining a partial bid
// set, and only a tenant that is truly gone fails the run.
const bidBarrierTimeout = 20 * time.Second

// faultFree reports whether a run injects no protocol faults in either
// direction — the precondition for the bid-arrival barrier.
func faultFree(opts NetRunOptions) bool {
	return opts.BidFaults == (proto.FaultPlan{}) && opts.BroadcastFaults == (proto.FaultPlan{})
}

// lifetime is one operator process of a networked run: slots [from, to),
// recovered from the crash plan's state dir when crash is set (nil: an
// in-memory NetRun). restart numbers recovered lifetimes from 1; kill, if
// non-nil, ends the lifetime in a simulated process death.
type lifetime struct {
	from, to int
	crash    *CrashRunOptions
	restart  int
	kill     *CrashKill
}

// runLifetime builds one market node, runs the agents against it as
// networked tenants for the lifetime's slots, and ends the node. The
// returned node is already closed or killed; its operator holds the books.
func runLifetime(sc Scenario, opts NetRunOptions, lt lifetime) (*NetResult, *node.Node, error) {
	topo := sc.Topo
	var aud *core.Auditor
	if opts.Audit {
		aud = &core.Auditor{}
		sc.MarketOptions.Audit = aud
	}
	bidInj, err := proto.NewFaultInjector(opts.BidFaults)
	if err != nil {
		return nil, nil, err
	}
	bcastInj, err := proto.NewFaultInjector(opts.BroadcastFaults)
	if err != nil {
		return nil, nil, err
	}
	cfg := node.Config{
		Operator: operator.Config{
			Topology:      topo,
			MarketOptions: sc.MarketOptions,
			Pricing:       sc.Pricing,
			Predict:       sc.Predict,
		},
		Listen: "127.0.0.1:0",
		// Logf stays nil: faults are expected here, the server is quiet by
		// default, and the metrics carry the signal.
		Server: proto.ServerOptions{
			SessionTTL: opts.SessionTTL,
			BidWindow:  opts.BidWindow,
			WrapConn:   bcastInj.Wrap,
		},
		OtherLoad:              sc.OtherLoad,
		SlotLen:                opts.SlotLen,
		MaxConsecutiveFailures: opts.MaxConsecutiveFailures,
		BreakerCooldownSlots:   opts.BreakerCooldownSlots,
		Durable:                opts.Durable,
		Journal:                opts.Journal,
		Registry:               opts.Registry,
		Tracer:                 opts.Tracer,
	}
	if em := opts.Emergency; em != nil {
		if em.OverloadPDU < 0 || em.OverloadPDU >= len(topo.PDUs) {
			return nil, nil, fmt.Errorf("sim: emergency OverloadPDU %d of %d", em.OverloadPDU, len(topo.PDUs))
		}
		cfg.Operator.Emergency = &operator.ResponderConfig{
			EscalationSeverity: em.EscalationSeverity,
			RecoverySlots:      em.RecoverySlots,
		}
		cfg.BreakerTolerance = em.BreakerTolerance
		if cfg.BreakerTolerance == 0 {
			cfg.BreakerTolerance = sc.BreakerTolerance
		}
		cfg.ResetDelay = em.ResetDelay
		surgeSlot := make(map[int]bool, len(em.OverloadSlots))
		for _, s := range em.OverloadSlots {
			surgeSlot[s] = true
		}
		cfg.Surge = func(slot, rack int) float64 {
			if surgeSlot[slot] && topo.Racks[rack].PDU == em.OverloadPDU {
				return em.OverloadRackWatts
			}
			return 0
		}
	}
	if c := lt.crash; c != nil {
		cfg.WAL = wal.Options{Dir: c.StateDir, Policy: c.Policy, SegmentBytes: c.SegmentBytes}
		cfg.SnapshotEvery = c.SnapshotEvery
		cfg.OnCommit, cfg.ExtraSlot, cfg.ExtraSnapshot = c.OnCommit, c.ExtraSlot, c.ExtraSnapshot
		cfg.RestoreSnapshot, cfg.ReplaySlot = c.RestoreSnapshot, c.ReplaySlot
		cfg.JournalPath, cfg.JournalSyncEvery = c.JournalPath, c.JournalSyncEvery
	}
	n, err := node.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if next := n.NextSlot(); next != lt.from {
		n.Close()
		return nil, nil, fmt.Errorf("recovered to slot %d, harness expected %d", next, lt.from)
	}
	if lt.restart > 0 && lt.crash.OnRestart != nil {
		lt.crash.OnRestart(lt.restart, n.Recovered)
	}
	bidInj.SetMetrics(n.ProtoMetrics)
	bcastInj.SetMetrics(n.ProtoMetrics)

	res := &NetResult{
		Slots:   sc.Slots,
		Tenants: make(map[string]*NetTenantStats, len(sc.Agents)),
	}
	loop := n.Loop
	loop.FaultCounts = func() (drops, delays, severs int64) {
		b, c := bidInj.Stats(), bcastInj.Stats()
		return b.Drops + c.Drops, b.Delays + c.Delays, b.Severs + c.Severs
	}
	loop.OnSlot = func(slot int, out operator.SlotOutcome, bids int) {
		if err := n.Operator.VerifyFeasible(out.Result.Allocations); err != nil {
			res.InfeasibleSlots++
		}
	}
	if len(opts.ErrorSlots) > 0 {
		// ErrorSlots poison the reading with NaN so RunSlot fails and the
		// loop must degrade.
		errorSlot := make(map[int]bool, len(opts.ErrorSlots))
		for _, s := range opts.ErrorSlots {
			errorSlot[s] = true
		}
		reference := loop.Reading
		poisoned := power.Reading{RackWatts: []float64{math.NaN()}, OtherPDUWatts: make([]float64, len(topo.PDUs))}
		loop.Reading = func(slot int) power.Reading {
			if errorSlot[slot] {
				return poisoned
			}
			return reference(slot)
		}
	}
	var barrierErr error
	if faultFree(opts) {
		// Bid-arrival barrier: every run of the seed, interrupted or not,
		// drains the same bid set per slot, however slow the host.
		expect := expectedBids(sc)
		stop := make(chan struct{})
		loop.Stop = stop
		loop.BeforeBids = func(slot int) {
			deadline := time.Now().Add(bidBarrierTimeout)
			for n.Server.BufferedBids(slot) < expect[slot] {
				if time.Now().After(deadline) {
					barrierErr = fmt.Errorf("slot %d: %d of %d expected bids arrived within %v",
						slot, n.Server.BufferedBids(slot), expect[slot], bidBarrierTimeout)
					close(stop)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	for idx, a := range sc.Agents {
		wg.Add(1)
		go func(idx int, a tenant.Agent) {
			defer wg.Done()
			st := runNetTenant(a, topo, n.Server.Addr(), loop.Clock, lt.from, lt.to, bidInj, n.ProtoMetrics, opts, int64(idx))
			mu.Lock()
			res.Tenants[st.Name] = st
			mu.Unlock()
		}(idx, a)
	}
	cleared, runErr := n.Run(lt.to - lt.from)
	wg.Wait()
	if runErr == nil {
		runErr = barrierErr
	}
	if runErr != nil {
		n.Close()
		return nil, nil, runErr
	}
	if lt.kill != nil {
		n.Kill()
	} else if err := n.Close(); err != nil {
		return nil, nil, err
	}
	res.Cleared = cleared
	res.SlotErrors = loop.SlotErrors()
	res.BreakerTripped = loop.BreakerTripped()
	res.BidFaults = bidInj.Stats()
	res.BroadcastFaults = bcastInj.Stats()
	res.ReapedSessions = n.Server.ReapedSessions()
	op := n.Operator
	res.SpotRevenue = op.SpotRevenue()
	if opts.Emergency != nil {
		res.EmergencySlots = op.EmergencySlots()
		res.EmergenciesActed = op.EmergenciesActed()
		res.ReclaimedWatts = op.ReclaimedWatts()
		res.GuaranteedCutWatts = op.GuaranteedCutWatts()
		res.InvoluntaryCuts = op.InvoluntaryCuts()
		for _, u := range n.Units {
			res.BudgetResets += u.Resets()
		}
	}
	if opts.Audit {
		if k := aud.Violations(); k > 0 {
			return nil, nil, fmt.Errorf("sim: audit found %d clearing violation(s): %w", k, aud.Err())
		}
		if err := op.ReconcileAccounts(); err != nil {
			return nil, nil, fmt.Errorf("sim: audit: %w", err)
		}
	}
	return res, n, nil
}

// runNetTenant is one tenant's bidding loop over the wire for slots
// [from, to): submit during the preceding slot, await the price just after
// the boundary, and treat every failure as "no spot capacity this slot".
// A non-zero from is the restart path — a tenant reconnecting to an
// operator that recovered mid-horizon picks up bidding at the recovered
// market position (the server rejects anything earlier as stale).
func runNetTenant(a tenant.Agent, topo *power.Topology, addr string, clock *proto.SlotClock,
	from, to int, inj *proto.FaultInjector, pm *proto.Metrics, opts NetRunOptions, seed int64) *NetTenantStats {
	st := &NetTenantStats{Name: a.Name()}
	rackIDs := make([]string, 0, len(a.Racks()))
	for _, r := range a.Racks() {
		rackIDs = append(rackIDs, topo.Racks[r].ID)
	}
	wire := opts.Wire
	if opts.WireFor != nil {
		// seed is the agent index (see the NetRun fan-out), so WireFor can
		// mix encodings per tenant within one market.
		wire = opts.WireFor(int(seed))
	}
	copts := proto.ClientOptions{
		Reconnect:        opts.Reconnect,
		BackoffBase:      opts.SlotLen / 8,
		BackoffMax:       opts.SlotLen,
		MaxAttempts:      12,
		Seed:             seed,
		HandshakeTimeout: 2 * opts.SlotLen,
		Dialer:           inj.Dial,
		Wire:             wire,
		Metrics:          pm,
		Tracer:           opts.TenantTracer,
	}
	if opts.Emergency != nil {
		// Count delivered emergency budget resets; the callback runs on this
		// goroutine (inside AwaitPrice), so no locking is needed.
		copts.OnBudgetReset = func(slot int, budgets []proto.Grant) {
			st.BudgetResets++
		}
	}
	// The initial dial itself may be hit by injected faults; retry a few
	// times before conceding the tenant never joins the market.
	var client *proto.Client
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		client, err = proto.DialOpts(addr, a.Name(), rackIDs, copts)
		if err == nil {
			break
		}
		time.Sleep(opts.SlotLen / 4)
	}
	if err != nil {
		st.DialFailed = true
		return st
	}
	defer client.Close()

	slotLen := clock.SlotLen()
	for slot := from; slot < to; slot++ {
		// Bid midway through the preceding slot (Fig. 6 discipline).
		if wait := time.Until(clock.StartOf(slot).Add(-slotLen / 2)); wait > 0 {
			time.Sleep(wait)
		}
		bd := opts.TenantTracer.StartChild("bid_decision", client.SlotSpan(slot))
		bids := netBids(topo, a.PlanBids(slot, tenant.MarketHint{}))
		if bd != nil {
			bd.SetInt("bids", int64(len(bids)))
			bd.End()
		}
		if len(bids) > 0 {
			st.BidSlots++
			if err := client.SubmitBids(slot, bids); err != nil {
				// Lost bid: the Section III-C default applies — the
				// tenant simply has no spot capacity this slot.
				st.SubmitFailures++
			}
		} else {
			// Idle slots still heartbeat (Fig. 5) so the server's
			// half-open reaper doesn't expire a quiet-but-live tenant.
			_ = client.HeartBeat(slot)
		}
		// Await the broadcast fired at the slot boundary, but never past
		// 3/4 of the slot: the tenant paces itself by the clock, so one
		// missed broadcast costs one slot, not the rest of the run.
		timeout := time.Until(clock.StartOf(slot).Add(3 * slotLen / 4))
		if timeout <= 0 {
			st.NoSpotSlots++
			continue
		}
		_, grants, err := client.AwaitPrice(slot, timeout)
		total := 0.0
		for _, g := range grants {
			total += g.Watts
		}
		switch {
		case err != nil, total <= 0:
			st.NoSpotSlots++
		default:
			st.GrantSlots++
		}
	}
	st.Reconnects = client.Reconnects()
	return st
}

// String summarizes a networked run.
func (r *NetResult) String() string {
	return fmt.Sprintf("net: %d/%d slots cleared (%d degraded, breaker=%v), %d infeasible, revenue $%.6f, faults bid=%+v bcast=%+v",
		r.Cleared, r.Slots, r.SlotErrors, r.BreakerTripped, r.InfeasibleSlots, r.SpotRevenue, r.BidFaults, r.BroadcastFaults)
}
