package proto

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/wal"
)

func durableReading(slot int) power.Reading {
	return power.Reading{
		RackWatts:     []float64{120 + float64(slot%4), 100},
		OtherPDUWatts: []float64{180},
	}
}

// durableLoop builds a market loop over the fixture that starts at slot
// from 20 ms from now and commits every slot through d.
func durableLoop(t *testing.T, srv *Server, op *operator.Operator, topo *power.Topology, from int, d *Durable) *MarketLoop {
	t.Helper()
	clock, err := NewSlotClock(time.Now().Add(20*time.Millisecond).Add(-time.Duration(from)*5*time.Millisecond), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading:  durableReading,
		RackID:   func(r int) string { return topo.Racks[r].ID },
		Durable:  d,
	}
}

// runDurableSlots recovers the log in opts.Dir into op and srv, then drives
// the loop over [from, from+n), returning the open log.
func runDurableSlots(t *testing.T, opts wal.Options, op *operator.Operator, srv *Server, topo *power.Topology, from, n int) *wal.Log {
	t.Helper()
	opts.Policy = wal.SyncEverySlot
	log, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverDurable(rec, op, srv); err != nil {
		t.Fatal(err)
	}
	if _, err := durableLoop(t, srv, op, topo, from, &Durable{Log: log}).RunSlots(from, n); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestDurableRecoveryResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference run: 30 slots in one process.
	srvA, opA, topo := loopFixture(t)
	logA := runDurableSlots(t, wal.Options{Dir: t.TempDir()}, opA, srvA, topo, 0, 30)
	logA.Close()

	// Interrupted run: 12 slots, abrupt kill, recover, 18 more.
	srvB, opB, _ := loopFixture(t)
	logB := runDurableSlots(t, wal.Options{Dir: dir}, opB, srvB, topo, 0, 12)
	logB.Kill()

	srvC, opC, _ := loopFixture(t)
	logC, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverDurable(rec, opC, srvC)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.NextSlot != 12 {
		t.Fatalf("NextSlot = %d, want 12", recovered.NextSlot)
	}
	if opC.Slots() != 12 || opC.SpotRevenue() != opB.SpotRevenue() {
		t.Fatalf("recovered books differ: slots=%d revenue %v vs %v", opC.Slots(), opC.SpotRevenue(), opB.SpotRevenue())
	}
	if pos, ok := srvC.MarketPosition(); !ok || pos != 11 {
		t.Fatalf("server position = %d/%v, want 11/true", pos, ok)
	}
	logC.Close()

	srvD, opD, _ := loopFixture(t)
	logD := runDurableSlots(t, wal.Options{Dir: dir}, opD, srvD, topo, 12, 18)
	logD.Close()

	if !reflect.DeepEqual(opA.Checkpoint(), opD.Checkpoint()) {
		t.Fatal("restarted run's final checkpoint differs from uninterrupted run")
	}
	if opA.SpotRevenue() != opD.SpotRevenue() || opA.SpotEnergyKWh() != opD.SpotEnergyKWh() {
		t.Fatal("restarted books not bit-identical")
	}
}

// recoverInto opens the log in dir and recovers it into a fresh operator
// on topo.
func recoverInto(t *testing.T, dir string, topo *power.Topology, mo core.Options) (*operator.Operator, *Recovered, error) {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	op, err := operator.New(operator.Config{Topology: topo, MarketOptions: mo})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverDurable(rec, op, nil)
	return op, recovered, err
}

func TestDurableRetentionBoundsRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, op, topo := loopFixture(t)
	log := runDurableSlots(t, wal.Options{Dir: dir, SegmentBytes: 1 << 11}, op, srv, topo, 0, 40)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) > 2 {
		t.Fatalf("state dir holds segments %v (%v), want at most 2", segs, err)
	}
	op2, recovered, err := recoverInto(t, dir, topo, op.MarketOptions())
	if err != nil {
		t.Fatal(err)
	}
	if recovered.NextSlot != 40 || recovered.SlotsReplayed == 0 || recovered.SlotsReplayed >= 40 {
		t.Fatalf("recovered = %+v, want NextSlot 40 from a bounded tail of records", recovered)
	}
	if !reflect.DeepEqual(op2.Checkpoint(), op.Checkpoint()) {
		t.Fatal("recovered books differ from live run")
	}
}

func TestDurableExtrasRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, op, topo := loopFixture(t)
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	d := &Durable{
		Log:       log,
		OnCommit:  func(slot int, _ operator.SlotOutcome) { last = slot },
		SaveState: func() ([]byte, error) { return json.Marshal(last * 10) },
	}
	if _, err := durableLoop(t, srv, op, topo, 0, d).RunSlots(0, 10); err != nil {
		t.Fatal(err)
	}
	log.Close()

	_, recovered, err := recoverInto(t, dir, topo, op.MarketOptions())
	if err != nil {
		t.Fatal(err)
	}
	var v int
	if err := json.Unmarshal(recovered.Extra, &v); err != nil || v != 90 || recovered.NextSlot != 10 {
		t.Fatalf("recovered extra %s (%v) at NextSlot %d, want 90 at 10", recovered.Extra, err, recovered.NextSlot)
	}
}

// TestDurableSaveFailureSkipsCommit: a slot whose caller state cannot be
// saved commits nothing — books and caller state recover together to the
// slot before — the failure is kept for shutdown, and the market keeps
// clearing.
func TestDurableSaveFailureSkipsCommit(t *testing.T) {
	dir := t.TempDir()
	srv, op, topo := loopFixture(t)
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	d := &Durable{
		Log:      log,
		OnCommit: func(slot int, _ operator.SlotOutcome) { last = slot },
		SaveState: func() ([]byte, error) {
			if last == 5 {
				return nil, errors.New("ledger unavailable")
			}
			return json.Marshal(last)
		},
	}
	cleared, err := durableLoop(t, srv, op, topo, 0, d).RunSlots(0, 6)
	if err != nil || cleared != 6 {
		t.Fatalf("cleared %d (%v), want all 6 slots", cleared, err)
	}
	log.Kill()
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "slot 5") {
		t.Fatalf("Durable.Err() = %v, want the skipped slot 5", err)
	}
	if err := log.Err(); err != nil {
		t.Fatalf("log.Err() = %v: the skip must not poison the log", err)
	}

	op2, recovered, err := recoverInto(t, dir, topo, op.MarketOptions())
	if err != nil {
		t.Fatal(err)
	}
	var saved int
	if err := json.Unmarshal(recovered.Extra, &saved); err != nil {
		t.Fatal(err)
	}
	if recovered.NextSlot != 5 || op2.Slots() != 5 || saved != 4 {
		t.Fatalf("recovered NextSlot %d, books through %d slots, caller state of slot %d; want 5, 5, 4",
			recovered.NextSlot, op2.Slots(), saved)
	}
}

func TestDurableRefusesDeltaFormat(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(walTypeDelta, []byte(`{"slot":0,"commit":{"slots":1}}`)); err != nil {
		t.Fatal(err)
	}
	log.Close()
	_, _, topo := loopFixture(t)
	if _, _, err := recoverInto(t, dir, topo, core.Options{PriceStep: 0.001}); !errors.Is(err, wal.ErrOldFormat) {
		t.Fatalf("recovering a delta record: %v, want wal.ErrOldFormat", err)
	}
}

func TestStopChannelEndsAtBoundary(t *testing.T) {
	srv, op, topo := loopFixture(t)
	clock, err := NewSlotClock(time.Now().Add(20*time.Millisecond), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	loop := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading:  durableReading,
		RackID:   func(r int) string { return topo.Racks[r].ID },
		Stop:     stop,
		OnSlot: func(slot int, _ operator.SlotOutcome, _ int) {
			if slot == 2 {
				close(stop)
			}
		},
	}
	cleared, err := loop.RunSlots(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cleared != 3 {
		t.Fatalf("cleared %d slots, want 3 (stop after slot 2)", cleared)
	}
	if op.Slots() != 3 {
		t.Fatalf("operator ran %d slots after stop", op.Slots())
	}
}
