package main

import (
	"bytes"

	"spotdc/internal/otrace"
	"spotdc/internal/proto"
)

// stageMetric maps each child span of a slot root to its layer metric.
var stageMetric = map[string]string{
	"bid_drain":   "proto.bid_drain_ms",
	"predict":     "operator.predict_ms",
	"clear":       "core.clear_ms",
	"audit":       "operator.audit_ms",
	"emergencies": "operator.emergencies_ms",
	"wal_commit":  "wal.commit_ms",
	"broadcast":   "proto.broadcast_ms",
}

// slotTrace is one slot's root span with its direct children.
type slotTrace struct {
	root     otrace.SpanRecord
	stageMs  map[string]float64
	bcastEnd int64 // µs; 0 without a broadcast span
	evals    float64
}

func endMicros(r otrace.SpanRecord) int64 { return r.StartMicros + r.DurMicros }

// parseSlotTraces reads a span journal and groups the "slot" roots of
// slots ≥ from with their children. byID indexes every span.
func parseSlotTraces(journal []byte, from int) (map[string]*slotTrace, map[string]otrace.SpanRecord, []otrace.SpanRecord, error) {
	recs, err := otrace.ReadSpans(bytes.NewReader(journal))
	if err != nil {
		return nil, nil, nil, err
	}
	byID := make(map[string]otrace.SpanRecord, len(recs))
	roots := make(map[string]*slotTrace)
	for _, r := range recs {
		byID[r.Span] = r
		if r.Root() && r.Name == "slot" && r.Slot >= from {
			roots[r.Span] = &slotTrace{root: r, stageMs: make(map[string]float64)}
		}
	}
	for _, r := range recs {
		st := roots[r.Parent]
		if st == nil {
			continue
		}
		st.stageMs[r.Name] += float64(r.DurMicros) / 1000
		switch r.Name {
		case "broadcast":
			st.bcastEnd = endMicros(r)
		case "clear":
			if v, ok := r.Attrs["evaluations"].(float64); ok {
				st.evals = v
			}
		}
	}
	return roots, byID, recs, nil
}

// stageP50s fills each stage's p50 (over slots that ran the stage).
func stageP50s(layer map[string]float64, roots map[string]*slotTrace) {
	per := make(map[string][]float64)
	for _, st := range roots {
		for name, v := range st.stageMs {
			per[name] = append(per[name], v)
		}
	}
	for name, vals := range per {
		if m, ok := stageMetric[name]; ok {
			layer[m] = median(vals)
		}
	}
}

// Stage-sum tolerance: per slot, the part of the root that no stage span,
// the journal append or the benchmark's OnSlot hook covers must stay within
// 0.5 ms + 5% of the root, on at least 90% of measured slots.
const (
	unaccountedAbsMs = 0.5
	unaccountedRel   = 0.05
	unaccountedShare = 0.9
)

// slotSpans derives the market's stage breakdown, send and delivery times
// from the traced phase, and checks that the stages add up to the root.
func slotSpans(o *outcome, n *node, from int) {
	roots, byID, recs, err := parseSlotTraces(n.spans.buf, from)
	if err != nil {
		o.problemf("span journal: %v", err)
		return
	}
	if len(roots) == 0 {
		o.problemf("span journal: no slot roots")
		return
	}
	L := o.layer
	// The root and the bid drain both contain the loop's wait for the
	// tenants' bids (BeforeBids); that is the load generator's time, so it
	// is taken out of both.
	for _, st := range roots {
		wait := n.tmark[st.root.Slot].waitMicros
		st.root.DurMicros -= wait
		st.stageMs["bid_drain"] -= float64(wait) / 1000
	}
	stageP50s(L, roots)
	var rootMs, unacc, journal, write, hook, reading []float64
	within := 0
	for _, st := range roots {
		total := float64(st.root.DurMicros) / 1000
		covered := 0.0
		for _, v := range st.stageMs {
			covered += v
		}
		// Before predicting, the loop calls the benchmark's Reading hook.
		// After the broadcast it appends the journal event (capture,
		// encode, one write) and then calls OnSlot. All three are measured
		// from their own timestamps; whatever else runs in the root is
		// left unaccounted.
		m := n.tmark[st.root.Slot]
		appendMs, hookMs, readMs := 0.0, float64(m.onSlotEnd-m.onSlotStart)/1000, float64(m.readingMicros)/1000
		if st.bcastEnd > 0 && m.journalEnd > st.bcastEnd {
			appendMs = float64(m.journalEnd-st.bcastEnd) / 1000
		}
		u := total - covered - appendMs - hookMs - readMs
		rootMs = append(rootMs, total)
		unacc = append(unacc, u)
		journal = append(journal, appendMs)
		write = append(write, m.journalWriteMs)
		hook = append(hook, hookMs)
		reading = append(reading, readMs)
		if u >= -unaccountedAbsMs && u <= unaccountedAbsMs+unaccountedRel*total {
			within++
		}
	}
	L["slot.root_ms"] = median(rootMs)
	L["slot.unaccounted_ms"] = median(unacc)
	L["journal.append_ms"] = median(journal)
	L["journal.write_ms"] = median(write)
	L["bench.on_slot_ms"] = median(hook)
	L["bench.reading_ms"] = median(reading)
	if share := float64(within) / float64(len(roots)); share < unaccountedShare {
		o.problemf("stage sum: only %.0f%% of %d slots have stages + journal + OnSlot within %.1f ms + %.0f%% of the root",
			100*share, len(roots), unaccountedAbsMs, 100*unaccountedRel)
	}
	// Per-session send spans hang off the broadcast span; delivery is the
	// tenant's AwaitPrice return minus the end of its session's send.
	var sends [2][]float64
	var delivery []float64
	for _, r := range recs {
		if r.Name != "send" || r.Slot < from || r.Attrs["type"] != "price" || byID[r.Parent].Name != "broadcast" {
			continue
		}
		for t, name := range tenantNames {
			if r.Attrs["tenant"] != name {
				continue
			}
			sends[t] = append(sends[t], float64(r.DurMicros)/1000)
			if at, ok := n.ten[t].recvMicros[r.Slot]; ok {
				delivery = append(delivery, float64(at-endMicros(r))/1000)
			}
		}
	}
	for t, enc := range tenantWire {
		if enc == proto.WireJSON {
			L["proto.send_ms.json"] = median(sends[t])
		} else {
			L["proto.send_ms.binary"] = median(sends[t])
		}
	}
	L["proto.delivery_ms"] = median(delivery)
}
