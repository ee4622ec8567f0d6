package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDebugProfile runs every workload at toy size, untraced and traced,
// and checks the result line: correct, nothing failed, and exactly the
// declared metrics with their units.
func TestDebugProfile(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			name, trace := name, trace
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := benchMain([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--profile", "debug", "--state", t.TempDir()}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line not a result: %v\n%s", code, err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct=%v attempted=%d failed=%d\n%s", code, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark reports, with the same units, and its workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %s (%s)", i, c.got[i], d.name, d.unit)
			}
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
	}
}

// TestBadArguments exits non-zero without a result line.
func TestBadArguments(t *testing.T) {
	var out bytes.Buffer
	if code := benchMain([]string{"--workload", "nope"}, &out); code == 0 || strings.Contains(out.String(), "{") {
		t.Fatalf("exit %d, output %q", code, out.String())
	}
}

// TestCompare checks the verdicts on synthetic records.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals []float64, failed int) string {
		var b bytes.Buffer
		for i, v := range vals {
			r := record{Workload: "w", result: result{Correct: true, Attempted: 10,
				Metrics: map[string]metric{"op_latency_p50_ms": {Value: v, Unit: "ms"}}}}
			if i < failed {
				r.Failed = 1
			}
			line, _ := json.Marshal(r)
			b.Write(append(line, '\n'))
		}
		// An incorrect run is left out, whatever it measured.
		line, _ := json.Marshal(record{Workload: "w", result: result{Correct: false, Attempted: 10,
			Metrics: map[string]metric{"op_latency_p50_ms": {Value: 1, Unit: "ms"}}}})
		b.Write(append(line, '\n'))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"op_latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	cases := []struct {
		after   []float64
		failed  int
		verdict string
		code    int
	}{
		{faster, 0, "improved", 0},
		{faster, 2, "unresolved (more failures than before)", 0},
		{[]float64{100, 100, 101, 99, 100, 101, 99, 100, 100, 100}, 0, "unchanged", 0},
		{[]float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, 0, "regressed", 1},
		{[]float64{80, 81}, 0, "unresolved", 0},
	}
	for i, c := range cases {
		var out bytes.Buffer
		code := compareMain([]string{"--bounds", bounds, write("b.jsonl", base, 0), write("a.jsonl", c.after, c.failed)}, &out)
		if code != c.code || !strings.Contains(out.String(), c.verdict) || !strings.Contains(out.String(), "left out an incorrect w run") {
			t.Errorf("case %d: exit %d, output:\n%s\nwant %q, exit %d", i, code, out.String(), c.verdict, c.code)
		}
	}
}

// TestWindowBounds checks that a phase's periods are cut into at most ten
// consecutive stretches that cover every period once.
func TestWindowBounds(t *testing.T) {
	for _, n := range []int{1, 2, 9, 10, 11, 37, 100} {
		b := windowBounds(n)
		want := n
		if want > windows {
			want = windows
		}
		if len(b) != want || b[0][0] != 0 || b[len(b)-1][1] != n {
			t.Fatalf("n=%d: %v", n, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i][0] != b[i-1][1] || b[i][1] <= b[i][0] {
				t.Fatalf("n=%d: %v", n, b)
			}
		}
	}
}

// TestTenantFailureEndsRun checks that a tenant whose connection fails
// ends the closed loop with an error, instead of leaving the loop waiting
// for bids.
func TestTenantFailureEndsRun(t *testing.T) {
	spec := marketSpecFor(true)
	f, err := buildFleet(7, spec.racks, spec.period, spec.emergency)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := setupMarket(f, spec, 7, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	if err := n.runClosed(0, 5, false); err != nil {
		t.Fatalf("healthy slots: %v", err)
	}
	n.ten[1].c.Close()
	start := time.Now()
	if err := n.runClosed(5, spec.period, false); err == nil {
		t.Fatal("run with a failed tenant returned no error")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("failed run took %v to end", d)
	}
}
