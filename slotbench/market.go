package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/rackpdu"
	"spotdc/internal/sim"
	"spotdc/internal/tenant"
	"spotdc/internal/wal"
)

// marketSpec sizes one market workload.
type marketSpec struct {
	racks int
	// slotLen is the market's nominal slot, used for energy accounting
	// only: the loop is closed, so slots follow each other as fast as the
	// tenants answer.
	slotLen time.Duration
	// period is the number of generated input slots; slot s uses input
	// s mod period. A multiple of the overload schedule's period. The
	// measured phase runs whole periods, so that every window of it
	// carries the same inputs. One period, untimed, warms the market up.
	period int
	// tracedPeriods caps each half of a traced invocation, so that the
	// journal audit after it stays short.
	tracedPeriods int
	setups        int
	emergency     bool
}

// walSync is the markets' WAL fsync policy: the WAL's background timer
// (the operator's -fsync timer). With an fsync on every slot's price path
// the shared disk's fsync latency (3–80 ms in busy phases) set the
// markets' tails (NOTES.md).
const walSync = wal.SyncTimer

// journalCap bounds the journal file of an untraced run: once it would
// grow past this, the file is truncated and written from the start again,
// so a run's disk use stays bounded while every slot still pays for its
// write. Traced runs keep the whole journal for the offline audit.
const journalCap = 64 << 20

// marketSpecFor sizes market-15k, or its toy version for the debug
// profile.
func marketSpecFor(debug bool) marketSpec {
	if debug {
		return marketSpec{racks: 600, slotLen: time.Second, period: 60, tracedPeriods: 2, setups: 2, emergency: true}
	}
	return marketSpec{racks: 15000, slotLen: time.Second, period: 60, tracedPeriods: 3, setups: 41, emergency: true}
}

// The emergency schedule of the repository's ext-emergency experiment: in
// the last overloadSlots slots of every overloadEvery-slot period, each
// rack under one PDU (seeded per period) draws overloadWatts more.
const (
	overloadEvery = 60
	overloadSlots = 5
	overloadWatts = 70.0
)

// The fleet has two wire tenants sharing every PDU: one speaks JSON, one
// binary.
var (
	tenantNames = [2]string{"tenant-json", "tenant-binary"}
	tenantWire  = [2]proto.Encoding{proto.WireJSON, proto.WireBinary}
)

// fleet is a generated data center: the paper's Table I cluster replicated
// by sim.Scaled (the Fig. 18 construction), its racks split between the
// two wire tenants, the bids the Table I agents place for those racks, and
// the reading the operator predicts each slot from, for one period of
// input slots.
type fleet struct {
	topo     *power.Topology
	market   core.Options
	pricing  operator.Pricing
	predict  power.PredictOptions
	agents   [2]int
	ids      [2][]string
	bids     [2][][]proto.RackBid // by tenant, then input slot
	readings []power.Reading      // by input slot
	surge    []int                // by input slot: the overloaded PDU, or -1
}

// buildFleet builds the scenario for input slots [0, period). Rack r
// belongs to wire tenant r%2, so each wire tenant holds half of every
// PDU's racks. In each slot every agent plans its bids and then executes,
// as in sim.Run; the reading for slot s is the draw the agents realize in
// slot s-1 with the "Other" tenants' traced load (slot 0 reads every rack
// at its guarantee). The agents execute without spot grants: like
// sim.NetRun, the benchmark does not feed the market's outcome back into
// the workload models, so the inputs do not depend on timing.
func buildFleet(seed int64, racks, period int, emergency bool) (*fleet, error) {
	sc, err := sim.Scaled(sim.ScaledOptions{
		Testbed:    sim.TestbedOptions{Seed: seed, Slots: period, Algorithm: core.AlgorithmExact},
		Tenants:    racks,
		JitterFrac: 0.2,
	})
	if err != nil {
		return nil, err
	}
	rs := append([]power.Rack(nil), sc.Topo.Racks...)
	for i := range rs {
		rs[i].Tenant = tenantNames[i%2]
	}
	topo, err := power.NewTopology(sc.Topo.UPSCapacity, sc.Topo.PDUs, rs)
	if err != nil {
		return nil, err
	}
	f := &fleet{topo: topo, market: sc.MarketOptions, pricing: sc.Pricing, predict: sc.Predict}
	for i, r := range rs {
		f.ids[i%2] = append(f.ids[i%2], r.ID)
	}
	for _, a := range sc.Agents {
		f.agents[a.Racks()[0]%2]++ // Table I agents hold one rack each
	}
	prev := power.Reading{RackWatts: make([]float64, len(rs)), OtherPDUWatts: make([]float64, len(topo.PDUs))}
	for i, r := range rs {
		prev.RackWatts[i] = r.Guaranteed
	}
	for m := range topo.PDUs {
		prev.OtherPDUWatts[m] = sc.OtherLoad[m].At(0)
	}
	rng := rand.New(rand.NewSource(seed))
	pdu := -1
	for s := 0; s < period; s++ {
		var bids [2][]proto.RackBid
		for _, a := range sc.Agents {
			t := a.Racks()[0] % 2
			bids[t] = wireBids(topo, bids[t], a.PlanBids(s, tenant.MarketHint{}))
		}
		for t := range bids {
			f.bids[t] = append(f.bids[t], bids[t])
		}
		f.readings = append(f.readings, prev)
		next := power.Reading{RackWatts: append([]float64(nil), prev.RackWatts...), OtherPDUWatts: make([]float64, len(topo.PDUs))}
		for m := range topo.PDUs {
			next.OtherPDUWatts[m] = sc.OtherLoad[m].At(s)
		}
		for _, a := range sc.Agents {
			for rack, w := range a.Execute(s, nil).PowerByRack {
				next.RackWatts[rack] = w
			}
		}
		prev = next
		if s%overloadEvery == 0 {
			pdu = rng.Intn(len(topo.PDUs))
		}
		if emergency && s%overloadEvery >= overloadEvery-overloadSlots {
			f.surge = append(f.surge, pdu)
		} else {
			f.surge = append(f.surge, -1)
		}
	}
	return f, nil
}

// wireBids converts agents' bids to wire form, as sim.NetRun does: only
// piece-wise linear bids (the elastic policy's) have a wire encoding.
func wireBids(topo *power.Topology, dst []proto.RackBid, bids []core.Bid) []proto.RackBid {
	for _, b := range bids {
		if lb, ok := b.Fn.(core.LinearBid); ok {
			dst = append(dst, proto.RackBid{Rack: topo.Racks[b.Rack].ID, DMax: lb.DMax, DMin: lb.DMin, QMin: lb.QMin, QMax: lb.QMax})
		}
	}
	return dst
}

// digest folds one tenant's grants, in broadcast order, into a hash: the
// tenant and the operator compute it independently and must agree.
func digest(h uint64, id string, watts float64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	w := math.Float64bits(watts)
	for i := 0; i < 8; i++ {
		h = (h ^ (w >> (8 * i) & 0xff)) * 1099511628211
	}
	return h
}

// outcomeKey is what one tenant heard (or should have heard) for a slot.
type outcomeKey struct {
	price  uint64
	digest uint64
	grants int
}

// countConn counts the bytes a tenant's connection moves in both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// countWriter counts the journal's bytes and times its last write (the
// journal encodes each slot event straight into one Write). With a cap it
// starts the file over whenever the next write would pass it.
type countWriter struct {
	f       *os.File
	cap     int64 // 0: unbounded
	size    int64 // bytes in the file
	n       atomic.Int64
	last    atomic.Int64 // end of the last write, µs since the Unix epoch
	lastDur atomic.Int64 // its duration, ns
}

func (w *countWriter) Write(p []byte) (int, error) {
	start := time.Now()
	if w.cap > 0 && w.size+int64(len(p)) > w.cap {
		if err := w.f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		w.size = 0
	}
	k, err := w.f.Write(p)
	end := time.Now()
	w.size += int64(k)
	w.n.Add(int64(k))
	w.lastDur.Store(int64(end.Sub(start)))
	w.last.Store(end.UnixMicro())
	return k, err
}

// syncBuffer collects the tracer's span journal in memory.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	return len(p), nil
}

// awaitTimeout is how long a tenant waits for a price. The loop is
// closed, so no price is late: a wait this long is a failure.
const awaitTimeout = 60 * time.Second

// tenantClient is one load-generating tenant. Its fields other than the
// atomics are written by its own goroutine. The loop reads heard and
// heardSlot once the tenant has announced its next slot through planned
// (the atomic store orders them), and everything else only after the
// goroutine has finished.
type tenantClient struct {
	idx     int
	c       *proto.Client
	bids    [][]proto.RackBid // by input slot
	n       *node
	wire    atomic.Int64
	planned atomic.Int64 // slot<<32 | bids placed for it

	heard      outcomeKey // the price and grants of heardSlot
	heardSlot  int
	lat        []float64     // ms, measured slots in order
	recvMicros map[int]int64 // traced: when AwaitPrice returned, µs since the Unix epoch
	submitMs   []float64
	err        error
}

// closedLoop bids for each slot of [from, to) and waits for its price
// before bidding for the next, as a tenant whose next bid depends on the
// last price does. A slot with no bids sends a heartbeat (as sim.NetRun's
// tenants do). With measured set it records each price's latency: from
// the moment the loop had the slot's last bid to AwaitPrice returning.
func (t *tenantClient) closedLoop(from, to int, measured bool) {
	for s := from; s < to; s++ {
		bids := t.bids[s%len(t.bids)]
		t.planned.Store(int64(s)<<32 | int64(len(bids))) // publishes heard
		start := time.Now()
		var err error
		if len(bids) == 0 {
			err = t.c.HeartBeat(s)
		} else {
			err = t.c.SubmitBids(s, bids)
		}
		if err != nil {
			t.err = fmt.Errorf("%s: submit slot %d: %w", tenantNames[t.idx], s, err)
			t.n.halt()
			return
		}
		if measured {
			t.submitMs = append(t.submitMs, ms(time.Since(start)))
		}
		price, grants, err := t.c.AwaitPrice(s, awaitTimeout)
		if err != nil {
			t.err = fmt.Errorf("%s: price for slot %d: %w", tenantNames[t.idx], s, err)
			t.n.halt()
			return
		}
		if measured {
			now := time.Now()
			t.lat = append(t.lat, ms(now.Sub(t.n.base)-time.Duration(t.n.release.Load())))
			if t.recvMicros != nil {
				t.recvMicros[s] = now.UnixMicro()
			}
		}
		var h uint64
		for _, g := range grants {
			h = digest(h, g.Rack, g.Watts)
		}
		t.heard, t.heardSlot = outcomeKey{price: math.Float64bits(price), digest: h, grants: len(grants)}, s
	}
}

// node is one assembled market: operator, server, WAL, journal, loop and
// the two tenants.
type node struct {
	spec    marketSpec
	f       *fleet
	aud     *core.Auditor
	op      *operator.Operator
	srv     *proto.Server
	wlog    *wal.Log
	jw      *countWriter
	journal *metrics.Journal
	loop    *proto.MarketLoop
	units   []*rackpdu.PDU
	ten     [2]*tenantClient
	tracer  *otrace.Tracer
	spans   *syncBuffer
	reg     *metrics.Registry
	rd      power.Reading
	tmark   map[int]hookTimes // traced: per-slot hook timestamps

	// base is the origin of release: the current slot's last bid was in
	// at base+release (the loop writes it, the tenants read it).
	base    time.Time
	release atomic.Int64

	// stop, once closed, ends the loop at the next slot boundary: a
	// failed tenant or a missing bid ends the run.
	stop     chan struct{}
	stopOnce sync.Once

	// Written on the loop goroutine, read after RunSlots returns.
	expect     [2]outcomeKey // what each tenant must hear for expectSlot
	expectSlot int
	chunkFrom  int
	measuring  bool
	busyMs     []float64
	waitMs     []float64
	evals      []float64 // traced only, as are bids and granted
	bids       []float64
	granted    []float64
	mismatches int
	slotErrs   []string
	closedWait error
}

// hookTimes brackets the parts of a traced slot the loop's spans do not
// name (µs since the Unix epoch): the wait for bids inside BeforeBids,
// the benchmark's Reading hook, the journal's last write, and the
// benchmark's OnSlot hook.
type hookTimes struct {
	waitMicros, readingMicros          int64
	journalEnd, onSlotStart, onSlotEnd int64
	journalWriteMs                     float64
}

// newNode assembles a market on a fleet: the timed part of set-up.
func newNode(f *fleet, spec marketSpec, seed int64, dir string, traced bool) (*node, error) {
	n := &node{spec: spec, f: f, aud: &core.Auditor{}, base: time.Now(), expectSlot: -1, stop: make(chan struct{})}
	n.rd = power.Reading{RackWatts: make([]float64, len(f.topo.Racks)), OtherPDUWatts: make([]float64, len(f.topo.PDUs))}
	var pm *proto.Metrics
	var wm *wal.Metrics
	if traced {
		n.spans = &syncBuffer{}
		n.tracer = otrace.NewTracer(otrace.Options{SampleEvery: 1, Journal: n.spans, Seed: seed, SlowPercentile: -1})
		n.reg = metrics.NewRegistry()
		n.tmark = make(map[int]hookTimes)
		pm = proto.NewMetrics(n.reg)
		wm = wal.NewMetrics(n.reg)
	}
	cfg := f.operatorConfig(spec.emergency)
	cfg.MarketOptions.Audit, cfg.Tracer = n.aud, n.tracer
	var err error
	if spec.emergency {
		// Each rack's PDU allows its physical peak, overload included (as
		// the simulator's capping controllers start out).
		n.units = make([]*rackpdu.PDU, len(f.topo.Racks))
		for i, r := range f.topo.Racks {
			if n.units[i], err = rackpdu.New(rackpdu.Config{ID: r.ID, BudgetWatts: r.Guaranteed + r.SpotHeadroom + overloadWatts}); err != nil {
				return nil, err
			}
		}
		cfg.Emergency.SetBudget = func(rack int, w float64) error { return n.units[rack].SetBudget(w) }
	}
	if n.op, err = operator.New(cfg); err != nil {
		return nil, err
	}
	topo := f.topo
	n.srv, err = proto.NewServerOpts("127.0.0.1:0", topo.RackByID, proto.ServerOptions{
		SessionTTL: 10 * time.Minute,
		OwnerOf:    func(i int) string { return topo.Racks[i].Tenant },
		Metrics:    pm,
		Tracer:     n.tracer,
	})
	if err != nil {
		return nil, err
	}
	walDir := filepath.Join(dir, "wal")
	wlog, rec, err := wal.Open(wal.Options{Dir: walDir, Policy: walSync, Metrics: wm})
	if err != nil {
		n.close()
		return nil, err
	}
	n.wlog = wlog
	if !rec.Empty() {
		n.close()
		return nil, fmt.Errorf("state dir %s is not fresh", walDir)
	}
	jf, err := os.Create(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		n.close()
		return nil, err
	}
	n.jw = &countWriter{f: jf}
	if !traced {
		n.jw.cap = journalCap
	}
	n.journal = metrics.NewJournal(n.jw)
	clock, err := proto.NewSlotClock(time.Unix(0, 0), spec.slotLen) // every slot is due: the loop never sleeps
	if err != nil {
		n.close()
		return nil, err
	}
	n.loop = &proto.MarketLoop{
		Server:     n.srv,
		Operator:   n.op,
		Clock:      clock,
		Reading:    n.reading,
		RackID:     func(i int) string { return topo.Racks[i].ID },
		BeforeBids: n.awaitBids,
		OnSlot:     n.onSlot,
		OnSlotError: func(slot int, err error) {
			n.slotErrs = append(n.slotErrs, fmt.Sprintf("slot %d degraded: %v", slot, err))
		},
		Journal:          n.journal,
		Durable:          &proto.Durable{Log: wlog},
		Tracer:           n.tracer,
		CheckEmergencies: spec.emergency,
		BreakerTolerance: 0.05,
		Stop:             n.stop,
	}
	for t := range n.ten {
		tc := &tenantClient{idx: t, bids: f.bids[t], n: n, heardSlot: -1}
		if traced {
			tc.recvMicros = make(map[int]int64)
		}
		tc.planned.Store(-1 << 32) // no slot planned yet
		opts := proto.ClientOptions{
			Wire:             tenantWire[t],
			HandshakeTimeout: 10 * time.Second,
			Dialer: func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					return nil, err
				}
				return countConn{Conn: c, n: &tc.wire}, nil
			},
		}
		if tc.c, err = proto.DialOpts(n.srv.Addr(), tenantNames[t], f.ids[t], opts); err != nil {
			n.close()
			return nil, fmt.Errorf("dial %s: %w", tenantNames[t], err)
		}
		n.ten[t] = tc
	}
	return n, nil
}

// operatorConfig is the simulator's operator set-up for the scenario, with
// the ext-emergency experiment's responder when armed.
func (f *fleet) operatorConfig(emergency bool) operator.Config {
	cfg := operator.Config{Topology: f.topo, MarketOptions: f.market, Pricing: f.pricing, Predict: f.predict}
	if emergency {
		cfg.Emergency = &operator.ResponderConfig{RecoverySlots: 2}
	}
	return cfg
}

// reading serves the slot's generated reading. With the emergency loop
// armed, an overload slot adds overloadWatts to every rack under the
// scheduled PDU, and every rack's draw is capped by its rack-PDU budget.
func (n *node) reading(slot int) power.Reading {
	if n.tmark != nil {
		start := time.Now()
		defer func() {
			m := n.tmark[slot]
			m.readingMicros = time.Since(start).Microseconds()
			n.tmark[slot] = m
		}()
	}
	in := slot % len(n.f.readings)
	src := n.f.readings[in]
	copy(n.rd.RackWatts, src.RackWatts)
	copy(n.rd.OtherPDUWatts, src.OtherPDUWatts)
	if n.spec.emergency {
		surge := n.f.surge[in]
		for i, r := range n.f.topo.Racks {
			if r.PDU == surge {
				n.rd.RackWatts[i] += overloadWatts
			}
			if b := n.units[i].Budget(); n.rd.RackWatts[i] > b {
				n.rd.RackWatts[i] = b
			}
		}
	}
	return n.rd
}

// onSlot records what each tenant must hear for the slot and the
// operator-side timings.
func (n *node) onSlot(slot int, out operator.SlotOutcome, bids int) {
	now := time.Now()
	if n.tmark != nil {
		m := n.tmark[slot]
		m.journalEnd, m.onSlotStart, m.journalWriteMs = n.jw.last.Load(), now.UnixMicro(), float64(n.jw.lastDur.Load())/1e6
		defer func() {
			m.onSlotEnd = time.Now().UnixMicro()
			n.tmark[slot] = m
		}()
	}
	var exp [2]outcomeKey
	price := math.Float64bits(out.Result.Price)
	granted := 0
	for _, a := range out.Result.Allocations {
		t := a.Rack % 2
		exp[t].digest = digest(exp[t].digest, n.f.topo.Racks[a.Rack].ID, a.Watts)
		exp[t].grants++
		if a.Watts > 0 {
			granted++
		}
	}
	exp[0].price, exp[1].price = price, price
	n.expect, n.expectSlot = exp, slot
	if !n.measuring {
		return
	}
	n.busyMs = append(n.busyMs, ms(now.Sub(n.base)-time.Duration(n.release.Load())))
	if n.tmark != nil {
		n.evals = append(n.evals, float64(out.Result.Evaluations))
		n.bids = append(n.bids, float64(bids))
		n.granted = append(n.granted, float64(granted)/float64(max1(bids)))
	}
}

// halt ends the loop at the next slot boundary.
func (n *node) halt() { n.stopOnce.Do(func() { close(n.stop) }) }

// verify checks that each tenant heard the price and grants the operator
// cleared for slot: every tenant has heard it by the time it bids for the
// next slot, and the operator's OnSlot for it has run before the loop
// waits for those bids.
func (n *node) verify(slot int) {
	for _, t := range n.ten {
		if t.heardSlot == slot && n.expectSlot == slot && t.heard == n.expect[t.idx] {
			continue
		}
		if n.mismatches++; n.mismatches <= 3 {
			n.slotErrs = append(n.slotErrs, fmt.Sprintf("%s heard price/grants %+v for slot %d, operator cleared %+v for slot %d",
				tenantNames[t.idx], t.heard, t.heardSlot, n.expect[t.idx], n.expectSlot))
		}
	}
}

// awaitBids is the BeforeBids hook: the slot clears only once both
// tenants' bids for it have landed. The slot's price latency starts when
// they have.
func (n *node) awaitBids(slot int) {
	start := time.Now()
	deadline := start.Add(awaitTimeout)
	for {
		want, known := 0, true
		for _, t := range n.ten {
			p := t.planned.Load()
			known = known && int(p>>32) == slot
			want += int(p & 0xffffffff)
		}
		if known && n.srv.BufferedBids(slot) >= want {
			if slot > n.chunkFrom {
				n.verify(slot - 1)
			}
			break
		}
		if time.Now().After(deadline) {
			n.closedWait = fmt.Errorf("slot %d: bids did not arrive within %v", slot, awaitTimeout)
			n.halt()
		}
		select {
		case <-n.stop:
			return
		default:
		}
		time.Sleep(50 * time.Microsecond)
	}
	if !n.measuring {
		return
	}
	now := time.Now()
	n.release.Store(int64(now.Sub(n.base)))
	n.waitMs = append(n.waitMs, ms(now.Sub(start)))
	if n.tmark != nil {
		m := n.tmark[slot]
		m.waitMicros = now.Sub(start).Microseconds()
		n.tmark[slot] = m
	}
}

// runClosed clears slots [from, from+count) as fast as the tenants bid.
func (n *node) runClosed(from, count int, measured bool) error {
	n.measuring, n.chunkFrom = measured, from
	var wg sync.WaitGroup
	for _, t := range n.ten {
		wg.Add(1)
		go func(t *tenantClient) {
			defer wg.Done()
			t.closedLoop(from, from+count, measured)
		}(t)
	}
	_, err := n.loop.RunSlots(from, count)
	select {
	case <-n.stop:
		// A tenant may still wait for a price that will not come.
		for _, t := range n.ten {
			t.c.Close()
		}
	default:
	}
	wg.Wait()
	for _, t := range n.ten {
		if t.err != nil {
			return t.err
		}
	}
	n.verify(from + count - 1)
	if err == nil {
		err = n.closedWait
	}
	if err == nil {
		select {
		case <-n.stop:
			err = errors.New("market loop halted")
		default:
		}
	}
	return err
}

// check compares every price and grant set a tenant heard with the
// operator's outcome for that slot, and the books and audit state.
func (n *node) check(o *outcome) {
	if n.mismatches > 3 {
		o.problemf("%d tenant-slots disagree with the operator in all", n.mismatches)
	}
	if v := n.aud.Violations(); v > 0 {
		o.problemf("inline auditor: %d violations: %v", v, n.aud.Err())
	}
	if err := n.op.ReconcileAccounts(); err != nil {
		o.problemf("reconcile accounts: %v", err)
	}
	for _, s := range n.slotErrs {
		o.problemf("%s", s)
	}
	if err := n.journal.Err(); err != nil {
		o.problemf("journal: %v", err)
	}
	if err := n.wlog.Err(); err != nil {
		o.problemf("wal: %v", err)
	}
}

// close stops the tenants, server, WAL and journal.
func (n *node) close() error {
	var errs []error
	for _, t := range n.ten {
		if t != nil {
			errs = append(errs, t.c.Close())
		}
	}
	if n.srv != nil {
		errs = append(errs, n.srv.Close())
	}
	if n.wlog != nil {
		errs = append(errs, n.wlog.Close())
	}
	if n.jw != nil {
		errs = append(errs, n.jw.f.Close())
	}
	return errors.Join(errs...)
}

// setupMarket assembles a node, timing it: operator, server, WAL open,
// journal, rack-PDU emulators, and both tenants' dial and hello. It starts
// on a collected heap, as a freshly started operator does, so that no
// set-up pays for collecting the garbage of the one before it.
func setupMarket(f *fleet, spec marketSpec, seed int64, dir string, traced bool) (*node, float64, error) {
	runtime.GC()
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	n, err := newNode(f, spec, seed, dir, traced)
	if err != nil {
		return nil, 0, err
	}
	return n, time.Since(start).Seconds(), nil
}

// marketPhase is what one measured phase observed.
type marketPhase struct {
	n        *node
	from     int
	slots    int
	lat      []float64 // ms, tenant-slots in slot order
	windows  []window
	cpuAt    []float64 // process CPU ms at the end of each period
	mem      memSample
	wire     [2]int64
	journal  int64
	walBytes float64
	fsync    [2]float64 // histogram sum (s) and count
	read     readSide
}

// measureMarket sets a node up, warms it up (untimed), and runs measured
// periods of input slots until the time is spent or maxPeriods (if > 0)
// have run.
func measureMarket(f *fleet, spec marketSpec, seed int64, dir string, traced bool, seconds float64, maxPeriods int, o *outcome, log io.Writer) (*marketPhase, error) {
	n, setupS, err := setupMarket(f, spec, seed, dir, traced)
	if err != nil {
		return nil, err
	}
	o.setup = append(o.setup, setupS)
	if err := n.runClosed(0, spec.period, false); err != nil {
		n.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p := &marketPhase{n: n, from: spec.period}
	for t := range n.ten {
		p.wire[t] = n.ten[t].wire.Load()
	}
	p.journal = n.jw.n.Load()
	p.walBytes = regValue(n.reg, "spotdc_wal_append_bytes_total")
	p.fsync = regHist(n.reg, "spotdc_wal_fsync_seconds")
	p.mem = readMem()
	user0, sys0 := cpuSplitMs()
	cpu0 := user0 + sys0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for periods := 0; periods < minPeriods || (time.Now().Before(deadline) && (maxPeriods <= 0 || periods < maxPeriods)); periods++ {
		if err := n.runClosed(p.from+p.slots, spec.period, true); err != nil {
			n.close()
			return nil, err
		}
		p.cpuAt = append(p.cpuAt, cpuMs())
		p.slots += spec.period
	}
	o.rssMB = maxRSSMB() // before the recovery check below raises it
	user1, sys1 := cpuSplitMs()
	fmt.Fprintf(log, "# CPU per slot: user %.3f ms, system %.3f ms\n", (user1-user0)/float64(p.slots), (sys1-sys0)/float64(p.slots))
	if traced {
		p.mem.perOp(o.layer, p.slots, user1+sys1-cpu0)
	}
	for t := range n.ten {
		p.wire[t] = n.ten[t].wire.Load() - p.wire[t]
	}
	p.journal = n.jw.n.Load() - p.journal
	p.walBytes = regValue(n.reg, "spotdc_wal_append_bytes_total") - p.walBytes
	fs := regHist(n.reg, "spotdc_wal_fsync_seconds")
	p.fsync = [2]float64{fs[0] - p.fsync[0], fs[1] - p.fsync[1]}
	p.lat, p.windows = n.windowed(p.cpuAt, spec.period, cpu0)
	n.check(o)
	want, slots := booksOf(n.op), p.from+p.slots
	if err := n.close(); err != nil {
		o.problemf("shutdown: %v", err)
	}
	// The read side: restart from the closed state dir, and (traced) audit
	// the journal offline.
	if p.read, err = recoverState(filepath.Join(dir, "wal"), f, spec.emergency, want, slots, o); err != nil {
		return nil, err
	}
	if traced {
		if err := auditJournal(filepath.Join(dir, "journal.jsonl"), slots, &p.read, o); err != nil {
			return nil, err
		}
	}
	o.attempted += 2 * p.slots
	for _, t := range n.ten {
		fmt.Fprintf(log, "# %s: price p50=%.3f ms p90=%.3f ms p99=%.3f ms over %d slots\n", tenantNames[t.idx], median(t.lat), pct(t.lat, 90), pct(t.lat, 99), len(t.lat))
	}
	return p, nil
}

// windowed returns the measured phase's price latencies in slot order
// (both tenants' for each slot) and the phase cut into windows of whole
// periods; cpuAt holds the process CPU time at the end of each period.
func (n *node) windowed(cpuAt []float64, period int, cpu0 float64) ([]float64, []window) {
	var lat []float64
	bounds := windowBounds(len(cpuAt))
	ws := make([]window, len(bounds))
	prevCPU := cpu0
	for w, b := range bounds {
		for i := b[0] * period; i < b[1]*period; i++ {
			for _, t := range n.ten {
				ws[w].lat = append(ws[w].lat, t.lat[i])
				lat = append(lat, t.lat[i])
			}
		}
		ws[w].cpuPerOp = (cpuAt[b[1]-1] - prevCPU) / float64((b[1]-b[0])*period)
		prevCPU = cpuAt[b[1]-1]
	}
	return lat, ws
}

func regValue(r *metrics.Registry, name string) float64 {
	if r == nil {
		return 0
	}
	v, _ := r.Value(name)
	return v
}

func runMarket(e *env) (*outcome, error) {
	spec := marketSpecFor(e.debug)
	o := &outcome{layer: make(map[string]float64)}
	// The inputs: generated once per run, before anything is timed.
	gen := time.Now()
	f, err := buildFleet(e.seed, spec.racks, spec.period, spec.emergency)
	if err != nil {
		return nil, err
	}
	var bidsPerSlot []float64
	for s := range f.readings {
		bidsPerSlot = append(bidsPerSlot, float64(len(f.bids[0][s])+len(f.bids[1][s])))
	}
	fmt.Fprintf(e.log, "# inputs generated in %v: %d input slots, bids per slot p50=%.0f (of %d racks)\n",
		time.Since(gen).Round(time.Millisecond), spec.period, median(bidsPerSlot), spec.racks)
	fmt.Fprintf(e.log, "# market racks=%d pdus=%d tenants=2 (json+binary) agents=%d+%d (Table I, sim.Scaled) loop=closed warm_slots=%d engine=exact wal_fsync=%v emergency=%v\n",
		len(f.topo.Racks), len(f.topo.PDUs), f.agents[0], f.agents[1], spec.period, walSync, spec.emergency)
	if !e.traced {
		// Throw-away set-ups first: set-up time is the median of several.
		for i := 1; i < spec.setups; i++ {
			n, s, err := setupMarket(f, spec, e.seed, filepath.Join(e.dir, fmt.Sprintf("setup%d", i)), false)
			if err != nil {
				return nil, err
			}
			if err := n.close(); err != nil {
				o.problemf("shutdown: %v", err)
			}
			o.setup = append(o.setup, s)
			os.RemoveAll(filepath.Join(e.dir, fmt.Sprintf("setup%d", i)))
		}
		p, err := measureMarket(f, spec, e.seed, filepath.Join(e.dir, "measured"), false, e.seconds, 0, o, e.log)
		if err != nil {
			return nil, err
		}
		o.windows = p.windows
		fmt.Fprintf(e.log, "# %d measured slots; price latency p50=%.3f ms p99=%.3f ms max=%.3f ms over %d tenant-slots; slot busy p50=%.3f ms; bid wait p50=%.3f ms\n",
			p.slots, median(p.lat), pct(p.lat, 99), pct(p.lat, 100), len(p.lat), median(p.n.busyMs), median(p.n.waitMs))
		return o, nil
	}
	// Traced invocation: an untraced half gives the tracing-overhead
	// baseline, the traced half gives every layer metric.
	base, err := measureMarket(f, spec, e.seed, filepath.Join(e.dir, "untraced"), false, e.seconds/2, spec.tracedPeriods, o, e.log)
	if err != nil {
		return nil, err
	}
	p, err := measureMarket(f, spec, e.seed, filepath.Join(e.dir, "traced"), true, e.seconds/2, spec.tracedPeriods, o, e.log)
	if err != nil {
		return nil, err
	}
	marketLayers(o, spec, base, p)
	return o, nil
}

// marketLayers fills the per-layer metrics of a traced market phase.
func marketLayers(o *outcome, spec marketSpec, base, p *marketPhase) {
	n, L := p.n, o.layer
	L["price_latency_p50_ms"] = median(p.lat)
	L["price_latency_p99_ms"] = pct(p.lat, 99)
	L["price_samples"] = float64(len(p.lat))
	L["otrace.overhead_pct"] = 100 * (median(p.lat)/median(base.lat) - 1)
	var submit []float64
	for _, t := range n.ten {
		submit = append(submit, t.submitMs...)
	}
	L["client.submit_ms"] = median(submit)
	L["slot.busy_p50_ms"] = median(base.n.busyMs)
	L["loop.bid_wait_ms"] = median(n.waitMs)
	L["core.evaluations"] = median(n.evals)
	L["core.granted_ratio"] = median(n.granted)
	L["wal.fsync_ms"] = 1000 * p.fsync[0] / math.Max(p.fsync[1], 1)
	slots := float64(p.slots)
	L["wal.bytes_per_slot"] = p.walBytes / slots
	L["journal.bytes_per_slot"] = float64(p.journal) / slots
	L["proto.wire_bytes_per_slot.json"] = float64(p.wire[0]) / slots
	L["proto.wire_bytes_per_slot.binary"] = float64(p.wire[1]) / slots
	L["proto.bid_rejects"] = regFamilyTotal(n.reg, "spotdc_proto_bid_rejects_total")
	L["proto.outbound_drops"] = regFamilyTotal(n.reg, "spotdc_proto_outbound_drops_total")
	if spec.emergency {
		L["operator.reclaims"] = float64(n.op.EmergenciesActed())
		total := 0
		for _, u := range n.units {
			total += u.Resets()
		}
		L["rackpdu.budget_resets"] = float64(total)
	}
	L["wal.open_ms"] = p.read.openMs
	L["proto.recover_apply_ms"] = p.read.applyMs
	L["wal.records_replayed"] = float64(p.read.replayed)
	L["journal.read_ms_per_slot"] = p.read.readMs
	L["audit.check_ms_per_slot"] = p.read.checkMs
	slotSpans(o, n, p.from)
}

// regHist returns a histogram's sum and count.
func regHist(r *metrics.Registry, name string) [2]float64 {
	if r == nil {
		return [2]float64{}
	}
	for _, fam := range r.Snapshot() {
		if fam.Name == name && len(fam.Samples) == 1 {
			return [2]float64{fam.Samples[0].Sum, float64(fam.Samples[0].Count)}
		}
	}
	return [2]float64{}
}

// regFamilyTotal sums every child of a counter family.
func regFamilyTotal(r *metrics.Registry, name string) float64 {
	total := 0.0
	for _, fam := range r.Snapshot() {
		if fam.Name == name {
			for _, s := range fam.Samples {
				total += s.Value
			}
		}
	}
	return total
}
