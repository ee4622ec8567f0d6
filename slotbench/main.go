// Command slotbench is SpotDC's end-to-end slot benchmark. It drives the
// real slot pipeline in one process over loopback TCP — tenant bid →
// proto bid drain → operator/power predict → core clear → audit →
// emergencies → wal commit → broadcast → tenant receives the price — and
// the read side (wal recovery, journal audit) and the in-process simulator.
// Every input is generated from --seed.
//
//	slotbench --workload market-15k --seed 1 --seconds 55 --trace 0
//	slotbench compare --bounds BENCHMARK.json before.jsonl after.jsonl
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// NOTES.md says why each workload exists and how to read the numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"spotdc/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the market sees. Every workload
// reports every one of them; "op" is the workload's unit of work (see
// NOTES.md): a tenant-slot's price wait on market-15k, one simulated slot
// on sim-15k. The latency figures are medians over the windows of the
// measured phase (windowFigure). CPU per op is per-layer (NOTES.md says
// why).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_latency_p50_ms", "ms"},
	{"op_latency_p90_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the traced run's layer metrics. A metric whose layer is
// not on a workload's path reads 0 there (NOTES.md maps layers to
// workloads). Durations are p50 over measured slots unless named otherwise.
var perLayer = []metricDef{
	{"price_latency_p50_ms", "ms"},
	{"price_latency_p99_ms", "ms"},
	{"price_samples", "count"},
	{"client.submit_ms", "ms"},
	{"loop.bid_wait_ms", "ms"},
	{"slot.busy_p50_ms", "ms"},
	{"slot.root_ms", "ms"},
	{"slot.unaccounted_ms", "ms"},
	{"proto.bid_drain_ms", "ms"},
	{"operator.predict_ms", "ms"},
	{"core.clear_ms", "ms"},
	{"core.evaluations", "count"},
	{"core.granted_ratio", "ratio"},
	{"operator.audit_ms", "ms"},
	{"operator.emergencies_ms", "ms"},
	{"wal.commit_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_slot", "bytes"},
	{"proto.broadcast_ms", "ms"},
	{"proto.send_ms.json", "ms"},
	{"proto.send_ms.binary", "ms"},
	{"proto.delivery_ms", "ms"},
	{"proto.wire_bytes_per_slot.json", "bytes"},
	{"proto.wire_bytes_per_slot.binary", "bytes"},
	{"proto.bid_rejects", "count"},
	{"proto.outbound_drops", "count"},
	{"journal.append_ms", "ms"},
	{"journal.write_ms", "ms"},
	{"journal.bytes_per_slot", "bytes"},
	{"bench.on_slot_ms", "ms"},
	{"bench.reading_ms", "ms"},
	{"operator.reclaims", "count"},
	{"rackpdu.budget_resets", "count"},
	{"otrace.overhead_pct", "%"},
	{"wal.open_ms", "ms"},
	{"proto.recover_apply_ms", "ms"},
	{"wal.records_replayed", "count"},
	{"journal.read_ms_per_slot", "ms"},
	{"audit.check_ms_per_slot", "ms"},
	{"tenant.plan_bids_ms_per_slot", "ms"},
	{"tenant.execute_ms_per_slot", "ms"},
	{"sim.market_ms_per_slot", "ms"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
}

// env carries one invocation's settings to a workload.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	debug   bool
	dir     string    // this run's private state directory
	log     io.Writer // human-readable report lines
}

// A measured phase runs whole periods of its inputs and is cut into at
// most `windows` consecutive stretches of whole periods (see
// windowFigure); it runs at least minPeriods periods.
const (
	windows    = 10
	minPeriods = 2
)

// windowBounds cuts n periods into at most `windows` consecutive stretches
// of whole periods, as [lo, hi) period indices.
func windowBounds(n int) [][2]int {
	k := n
	if k > windows {
		k = windows
	}
	out := make([][2]int, k)
	for w := range out {
		out[w] = [2]int{w * n / k, (w + 1) * n / k}
	}
	return out
}

// window is one stretch of a measured phase.
type window struct {
	lat      []float64 // ms, one per latency sample
	cpuPerOp float64   // process CPU ms per op
}

// outcome is what a workload measured.
type outcome struct {
	setup     []float64 // seconds, one per set-up
	windows   []window
	rssMB     float64 // peak RSS through the measured phase
	attempted int
	failed    int
	layer     map[string]float64
	problems  []string
}

func (o *outcome) problemf(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*env) (*outcome, error){
	"market-15k": runMarket,
	"sim-15k":    runSim,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("slotbench", flag.ContinueOnError)
	name := fs.String("workload", "", "market-15k or sim-15k")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	profile := fs.String("profile", "full", "full (paper scale) or debug (toy sizes)")
	stateRoot := fs.String("state", ".bench_build", "parent of the run's state directory")
	record := fs.String("record", "", "append the result, tagged with workload and seed, to this JSONL file (compare input)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run := workloads[*name]
	if run == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*profile != "full" && *profile != "debug") {
		fmt.Fprintf(os.Stderr, "slotbench: bad arguments (workload %q, seconds %v, trace %d, profile %q)\n", *name, *seconds, *trace, *profile)
		return 2
	}
	if err := os.MkdirAll(*stateRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*stateRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, debug: *profile == "debug", dir: dir, log: stdout}
	fmt.Fprintf(stdout, "# slotbench workload=%s seed=%d seconds=%v trace=%d profile=%s\n", *name, *seed, *seconds, *trace, *profile)
	fmt.Fprintf(stdout, "# env %s\n", envStamp(dir))
	out, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		return 1
	}
	res := buildResult(e, out)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if *record != "" {
		if err := appendRecord(*record, *name, *seed, *trace, res); err != nil {
			fmt.Fprintln(os.Stderr, "slotbench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult turns an outcome into the reported metric set.
func buildResult(e *env, out *outcome) result {
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	if e.traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: out.layer[d.name], Unit: d.unit}
		}
		return res
	}
	var p50, p90, cpu []float64
	for _, w := range out.windows {
		p50 = append(p50, pct(w.lat, 50))
		p90 = append(p90, pct(w.lat, 90))
		cpu = append(cpu, w.cpuPerOp)
	}
	vals := map[string]float64{
		"setup_s":           median(out.setup),
		"op_latency_p50_ms": windowFigure(p50),
		"op_latency_p90_ms": windowFigure(p90),
		"max_rss_mb":        out.rssMB,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Fprintf(e.log, "# windows p50 %s\n# windows p90 %s\n# windows cpu %s\n", fmtList(p50), fmtList(p90), fmtList(cpu))
	fmt.Fprintf(e.log, "# set-ups (s) min/p25/p50/p75/max %s over %d\n", fmtList([]float64{pct(out.setup, 0), pct(out.setup, 25), pct(out.setup, 50), pct(out.setup, 75), pct(out.setup, 100)}), len(out.setup))
	if len(out.windows) == 0 || len(out.windows[0].lat) == 0 {
		res.Correct = false
		out.problemf("no operation completed")
	}
	return res
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4f", x)
	}
	return b.String()
}

func appendRecord(path, workload string, seed int64, trace int, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    int    `json:"trace"`
		result
	}{workload, seed, trace, res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envStamp records what the numbers depend on: scheduler width, CPU,
// toolchain, and the state directory's filesystem (WAL fsync cost).
func envStamp(dir string) string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s os=%s/%s cpu=%q statefs=%s transport=loopback-tcp",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), fsType(dir))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := known[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuMs returns the process's user+system CPU time so far.
func cpuMs() float64 {
	user, sys := cpuSplitMs()
	return user + sys
}

// cpuSplitMs returns the process's user and system CPU time so far.
func cpuSplitMs() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return float64(ru.Utime.Nano()) / 1e6, float64(ru.Stime.Nano()) / 1e6
}

// maxRSSMB returns the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSample brackets a measured phase for the allocation and GC metrics.
type memSample struct{ alloc, gcs uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, uint64(ms.NumGC)}
}

// perOp fills the runtime.* layer metrics for a phase of ops operations
// that used cpuMs of process CPU time.
func (m memSample) perOp(layer map[string]float64, ops int, cpuMs float64) {
	now := readMem()
	layer["runtime.cpu_ms_per_op"] = cpuMs / float64(max1(ops))
	layer["runtime.alloc_mb_per_op"] = float64(now.alloc-m.alloc) / (1 << 20) / float64(max1(ops))
	layer["runtime.gc_cycles_per_op"] = float64(now.gcs-m.gcs) / float64(max1(ops))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// pct is stats.Percentile with 0 for an empty sample.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }

// windowFigure is the figure a metric reports from its per-window values:
// their median. A burst of contention from elsewhere on a shared machine
// that covers fewer than half of a run's windows leaves it alone; a cost
// the program adds throughout the run moves it.
func windowFigure(xs []float64) float64 {
	return median(xs)
}
