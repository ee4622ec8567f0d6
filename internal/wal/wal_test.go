package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spotdc/internal/metrics"
)

func openT(t *testing.T, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, Options{Dir: dir, Policy: SyncEveryRecord})
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	for i := 0; i < 10; i++ {
		seq, err := l.Append(1, []byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	if len(rec2.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i) || r.Type != 1 || string(r.Data) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if got := l2.NextSeq(); got != 10 {
		t.Fatalf("NextSeq = %d, want 10", got)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(2, []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-write: a frame header claiming more payload than
	// was ever written.
	seg := l.segPath(0)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameMagic, frameVersion, 2, 0, 1, 0, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Truncations != 1 || rec.TruncatedBytes != 8 {
		t.Fatalf("truncations=%d bytes=%d, want 1/8", rec.Truncations, rec.TruncatedBytes)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	// The torn tail is physically gone: appends continue cleanly from seq 5.
	seq, err := l2.Append(2, []byte("after"))
	if err != nil || seq != 5 {
		t.Fatalf("Append after truncation: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openT(t, Options{Dir: dir})
	defer l3.Close()
	if len(rec3.Records) != 6 || rec3.Truncations != 0 {
		t.Fatalf("re-recovered %d records (%d truncations), want 6/0", len(rec3.Records), rec3.Truncations)
	}
}

func TestRecoveryTruncatesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEveryRecord})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip one payload byte of the third record: CRC fails there, so
	// recovery keeps records 0-1 and truncates from record 2 on.
	seg := l.segPath(0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := headerSize + 32 + crcSize
	data[2*recLen+headerSize] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	if rec.Truncations != 1 || rec.TruncatedBytes != int64(2*recLen) {
		t.Fatalf("truncations=%d bytes=%d, want 1/%d", rec.Truncations, rec.TruncatedBytes, 2*recLen)
	}
}

// segFiles lists the segment bases on disk, ascending.
func segFiles(t *testing.T, dir string) []uint64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bases []uint64
	for _, e := range ents {
		if base, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			bases = append(bases, base)
		}
	}
	return bases
}

// appendN appends records from..to-1, each a 20-byte payload of its
// sequence number; with SegmentBytes 64 a segment seals after 3 records.
func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRotationKeepsSealedAndActiveSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		appendN(t, l, i, i+1)
		if segs := segFiles(t, dir); len(segs) > 2 {
			t.Fatalf("after record %d: %d segments on disk %v, want at most 2", i, len(segs), segs)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Records 0..17 sealed six segments; 18 and 19 sit in the active one.
	if segs := segFiles(t, dir); !reflect.DeepEqual(segs, []uint64{15, 18}) {
		t.Fatalf("segments %v, want [15 18]", segs)
	}
	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if n := len(rec.Records); n != 5 || rec.Records[0].Seq != 15 || rec.Records[n-1].Data[0] != 19 {
		t.Fatalf("recovered %+v, want seqs 15..19", rec.Records)
	}
	if seq, err := l2.Append(1, nil); err != nil || seq != 20 {
		t.Fatalf("Append after recovery: seq=%d err=%v", seq, err)
	}
}

// corruptRecord flips a payload byte of record seq inside segment base.
func corruptRecord(t *testing.T, l *Log, base, seq uint64) {
	t.Helper()
	path := l.segPath(base)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[int(seq-base)*(headerSize+20+crcSize)+headerSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptNewestRecordFallsBack(t *testing.T) {
	// Newest record in the active segment: the sealed one stays behind it.
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot, SegmentBytes: 64})
	appendN(t, l, 0, 7) // [3 4 5] sealed, [6] active
	l.Close()
	corruptRecord(t, l, 6, 6)
	l2, rec := openT(t, Options{Dir: dir})
	if n := len(rec.Records); n != 3 || rec.Records[n-1].Seq != 5 || rec.Truncations != 1 {
		t.Fatalf("recovered %+v (%d truncations), want seqs 3..5 after 1 truncation", rec.Records, rec.Truncations)
	}
	l2.Close()

	// Newest record ends the sealed segment and the active one is empty:
	// recovery falls back inside the sealed segment and appends there.
	dir = t.TempDir()
	l, _ = openT(t, Options{Dir: dir, Policy: SyncEverySlot, SegmentBytes: 64})
	appendN(t, l, 0, 6) // [3 4 5] sealed, [] active
	l.Close()
	corruptRecord(t, l, 3, 5)
	l3, rec := openT(t, Options{Dir: dir})
	defer l3.Close()
	if n := len(rec.Records); n != 2 || rec.Records[n-1].Seq != 4 || rec.DroppedSegments != 1 {
		t.Fatalf("recovered %+v (%d dropped), want seqs 3..4 with the empty segment dropped", rec.Records, rec.DroppedSegments)
	}
	if seq, err := l3.Append(1, nil); err != nil || seq != 5 {
		t.Fatalf("Append after fallback: seq=%d err=%v", seq, err)
	}
}

func TestStaleSegmentNeverDropsNewerOnes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot, SegmentBytes: 64})
	appendN(t, l, 0, 3) // seals [0 1 2]
	stale, err := os.ReadFile(l.segPath(0))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 10) // seals [3 4 5] and [6 7 8], deleting 0 and 3
	l.Close()
	// A deletion that never reached disk brings segment 0 back, with the
	// gap of the deleted segment 3 behind it.
	if err := os.WriteFile(l.segPath(0), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if n := len(rec.Records); n != 4 || rec.Records[n-1].Seq != 9 || rec.DroppedSegments != 1 {
		t.Fatalf("recovered %+v (%d dropped), want seqs 6..9 with the stale segment dropped", rec.Records, rec.DroppedSegments)
	}
	if segs := segFiles(t, dir); !reflect.DeepEqual(segs, []uint64{6, 9}) {
		t.Fatalf("segments %v, want [6 9]", segs)
	}
}

func TestSnapshotFileRefusesDir(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 2)
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000002.snap"), []byte{frameMagic}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("Open over a snapshot file: %v, want ErrOldFormat", err)
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("refusal touched the segments: %v", segs)
	}
}

func TestKillLosesOnlyUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	// Timer policy with a long interval: nothing fsyncs between appends.
	l, _ := openT(t, Options{Dir: dir, Policy: SyncTimer, TimerInterval: time.Hour})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 7; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Kill()
	// The first three records were synced; the rest may or may not have
	// reached the file (os.File writes are unbuffered in Go, so in-process
	// they land in the page cache — the invariant recovery must provide is
	// only "a valid prefix, at least through the last sync").
	_, rec := openT(t, Options{Dir: dir})
	if len(rec.Records) < 3 {
		t.Fatalf("recovered %d records, want >= 3", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i) || r.Data[0] != byte(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestAppendAfterCloseAndReservedType(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	if _, err := l.Append(snapFrameType, nil); err == nil {
		t.Fatal("reserved type accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("Append after close: %v, want ErrClosed", err)
	}
}

func TestMetricsFamilies(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEveryRecord, Metrics: NewMetrics(reg)})
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for name, want := range map[string]float64{
		"spotdc_wal_appends_total":      1,
		"spotdc_wal_append_bytes_total": headerSize + 1 + crcSize,
		"spotdc_wal_fsyncs_total":       1, // record-policy append; Close finds nothing dirty
		"spotdc_wal_segments":           1,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// A torn tail bumps the recovery truncation counter on reopen.
	seg := l.segPath(1)
	if err := os.WriteFile(seg, []byte{frameMagic}, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, _ := openT(t, Options{Dir: dir, Metrics: NewMetrics(reg)})
	defer l2.Close()
	if got, _ := reg.Value("spotdc_wal_recovery_truncations_total"); got != 1 {
		t.Errorf("truncations = %v, want 1", got)
	}
}
