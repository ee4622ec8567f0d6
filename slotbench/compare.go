package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"spotdc/internal/stats"
)

// benchDef is the part of BENCHMARK.json the comparer needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// record is one --record line.
type record struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	result
}

// compareMain compares two sets of untraced runs (--record files) metric by
// metric and workload by workload. Pairs are formed in file order, so run
// the two sides alternately. Runs whose correctness checks failed are left
// out. Misses (failed ops) do not enter the latency figures, so each
// workload also gets a failed/attempted row, and no metric counts as
// improved on a workload where the change fails more often than the
// parent. Exit status 1 means some metric regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("slotbench compare", flag.ContinueOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: slotbench compare [--bounds BENCHMARK.json] before.jsonl after.jsonl")
		return 2
	}
	var def benchDef
	data, err := os.ReadFile(*boundsPath)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench compare:", err)
		return 2
	}
	before, err := readRecords(fs.Arg(0), w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench compare:", err)
		return 2
	}
	after, err := readRecords(fs.Arg(1), w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench compare:", err)
		return 2
	}
	var names []string
	for wl := range before {
		if len(after[wl]) > 0 {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-12s %-18s %-30s %-30s %8s %7s  %s\n", "workload", "metric", "before median [q1, q3]", "after median [q1, q3]", "delta", "won", "verdict")
	for _, wl := range names {
		fb, fa := failRatio(before[wl]), failRatio(after[wl])
		moreFailures := fa > fb
		verdict := "no more failures"
		if moreFailures {
			verdict = "more failures: no gain counts"
		}
		fmt.Fprintf(w, "%-12s %-18s %-30.4g %-30.4g %8s %7s  %s\n", wl, "failed/attempted", fb, fa, "", "", verdict)
		for _, m := range def.EndToEnd {
			b, a := values(before[wl], m.Name), values(after[wl], m.Name)
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			c := judge(b, a, m.Better == "higher", m.Bound)
			if c.verdict == "regressed" {
				regressed = true
			}
			if c.verdict == "improved" && moreFailures {
				c.verdict = "unresolved (more failures than before)"
			}
			fmt.Fprintf(w, "%-12s %-18s %-30s %-30s %+7.1f%% %3d/%-3d  %s\n", wl, m.Name,
				quart(b), quart(a), 100*c.delta, c.won, c.pairs, c.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// failRatio is the share of a workload's attempted ops that failed.
func failRatio(rs []record) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max1(attempted))
}

// readRecords reads the untraced records of a --record file, by workload,
// leaving out (and reporting) runs whose correctness checks failed.
func readRecords(path string, w io.Writer) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case r.Trace != 0:
		case !r.Correct:
			fmt.Fprintf(w, "# %s: left out an incorrect %s run\n", path, r.Workload)
		default:
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	q1, _ = stats.Percentile(xs, 25)
	med, _ = stats.Percentile(xs, 50)
	q3, _ = stats.Percentile(xs, 75)
	return q1, med, q3
}

func quart(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// comparison is one (workload, metric) row.
type comparison struct {
	delta      float64 // after vs before median, as a share; positive is worse
	won, pairs int
	verdict    string
}

// judge applies the measurement rule for a small sandbox: a gain needs at
// least ten pairs, the change winning nine tenths of them (ties count for
// neither) and a median difference larger than the parent's quartile
// spread; a regression is a median worse by more than the bound. When the
// parent's own spread is wider than the bound the metric is unresolved,
// unless every run of one side beats every run of the other.
func judge(before, after []float64, higherBetter bool, bound float64) comparison {
	better := func(x, y float64) bool { return x < y }
	if higherBetter {
		better = func(x, y float64) bool { return x > y }
	}
	c := comparison{pairs: len(before)}
	if len(after) < c.pairs {
		c.pairs = len(after)
	}
	for i := 0; i < c.pairs; i++ {
		if better(after[i], before[i]) {
			c.won++
		}
	}
	q1, medB, q3 := quartiles(before)
	_, medA, _ := quartiles(after)
	c.delta = (medA - medB) / math.Abs(medB)
	if higherBetter {
		c.delta = -c.delta
	}
	spread := (q3 - q1) / math.Abs(medB)
	minB, _ := stats.Min(before)
	maxB, _ := stats.Max(before)
	minA, _ := stats.Min(after)
	maxA, _ := stats.Max(after)
	allBetter, allWorse := better(maxA, minB), better(maxB, minA)
	if higherBetter {
		allBetter, allWorse = better(minA, maxB), better(minB, maxA)
	}
	switch {
	case c.pairs < 10:
		c.verdict = "unresolved (fewer than 10 pairs)"
	case c.delta < 0 && float64(c.won) >= 0.9*float64(c.pairs) && math.Abs(medA-medB) > q3-q1:
		c.verdict = "improved"
	case c.delta > bound && (spread <= bound || allWorse):
		c.verdict = "regressed"
	case spread > bound && !allBetter:
		c.verdict = "unresolved (spread wider than bound)"
	default:
		c.verdict = "unchanged"
	}
	return c
}
