package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"time"

	"spotdc/internal/audit"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/proto"
	"spotdc/internal/wal"
)

// books is the state recovery must rebuild bit for bit.
type books struct {
	revenue, energy uint64
	slots           int
	payments        [2]uint64
}

func booksOf(op *operator.Operator) books {
	b := books{revenue: math.Float64bits(op.SpotRevenue()), energy: math.Float64bits(op.SpotEnergyKWh()), slots: op.Slots()}
	for t, name := range tenantNames {
		b.payments[t] = math.Float64bits(op.PaymentOf(name))
	}
	return b
}

// readSide is what recovering a closed market's state dir and auditing its
// journal measured.
type readSide struct {
	openMs, applyMs float64
	replayed        int
	readMs, checkMs float64 // per journaled slot; audited runs only
}

// recoverState reopens a closed market's WAL into a new operator and
// server, as a restarted operator would, and checks that the books come
// back bit-identical and the market resumes at slot next.
func recoverState(walDir string, f *fleet, emergency bool, want books, next int, o *outcome) (readSide, error) {
	var rs readSide
	// The writer's responder state is in the log; budget resets are not
	// re-issued on recovery, so no SetBudget hook is needed.
	op, err := operator.New(f.operatorConfig(emergency))
	if err != nil {
		return rs, err
	}
	srv, err := proto.NewServer("127.0.0.1:0", f.topo.RackByID)
	if err != nil {
		return rs, err
	}
	defer srv.Close()
	t0 := time.Now()
	log, rec, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncEverySlot})
	if err != nil {
		return rs, fmt.Errorf("recovery: %w", err)
	}
	t1 := time.Now()
	r, err := proto.RecoverDurable(rec, op, srv)
	t2 := time.Now()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rs, fmt.Errorf("recovery: %w", err)
	}
	switch {
	case r.NextSlot != next:
		o.problemf("recovery resumes at slot %d, want %d", r.NextSlot, next)
	case booksOf(op) != want:
		o.problemf("recovered books %+v differ from the writer's %+v", booksOf(op), want)
	}
	rs.openMs, rs.applyMs, rs.replayed = ms(t1.Sub(t0)), ms(t2.Sub(t1)), r.SlotsReplayed
	return rs, nil
}

// auditJournal replays a v2 journal through the offline auditor, timing
// the read and the check per journaled slot.
func auditJournal(path string, slots int, rs *readSide, o *outcome) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	hdr, events, torn, err := metrics.ReadJournalInfo(bufio.NewReaderSize(f, 1<<20))
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("read journal: %w", err)
	}
	rep, err := audit.CheckJournal(hdr, events, audit.Options{})
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("check journal: %w", err)
	}
	switch {
	case !rep.OK():
		o.problemf("journal audit: %v", rep.Err())
	case torn || rep.Slots != slots || rep.Replayed != slots:
		o.problemf("journal audit: %d slots, %d replayed, torn=%v; want %d replayed", rep.Slots, rep.Replayed, torn, slots)
	}
	rs.readMs, rs.checkMs = ms(t1.Sub(t0))/float64(slots), ms(t2.Sub(t1))/float64(slots)
	return nil
}
