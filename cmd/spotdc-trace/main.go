// Command spotdc-trace generates and inspects the synthetic traces the
// simulator runs on: PDU-level power (the colo trace stand-in), request
// arrivals (Google-trace stand-in), and batch backlog.
//
// Usage:
//
//	spotdc-trace -kind power   [-slots N] [-seed N] [-mean W] [-min W] [-max W]
//	             [-volatility X] [-diurnal X] [-out FILE]
//	spotdc-trace -kind arrivals [-base R] [-peak R] [-burst X] [-out FILE]
//	spotdc-trace -kind backlog  [-active X] [-out FILE]
//	spotdc-trace -inspect FILE
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"spotdc/internal/powertrace"
	"spotdc/internal/stats"
)

func main() {
	kind := flag.String("kind", "power", "power, arrivals or backlog")
	slots := flag.Int("slots", 10000, "number of slots")
	slotSeconds := flag.Int("slot-seconds", 60, "slot length")
	seed := flag.Int64("seed", 42, "generator seed")
	mean := flag.Float64("mean", 250, "power: mean watts")
	minW := flag.Float64("min", 100, "power: minimum watts")
	maxW := flag.Float64("max", 350, "power: maximum watts")
	volatility := flag.Float64("volatility", 0.008, "power: per-slot relative noise")
	diurnal := flag.Float64("diurnal", 0.15, "power: diurnal amplitude")
	base := flag.Float64("base", 40, "arrivals: off-peak rate")
	peak := flag.Float64("peak", 68, "arrivals: diurnal peak rate")
	burst := flag.Float64("burst", 0.15, "arrivals: burst fraction")
	active := flag.Float64("active", 0.3, "backlog: active fraction")
	out := flag.String("out", "", "write CSV to this file (default stdout)")
	inspect := flag.String("inspect", "", "read a CSV trace and print statistics instead of generating")
	flag.Parse()

	if *inspect != "" {
		f, err := os.Open(*inspect)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr, err := powertrace.ReadCSV(f)
		if err != nil {
			log.Fatal(err)
		}
		describe(tr)
		return
	}

	var tr *powertrace.Power
	var err error
	switch *kind {
	case "power":
		tr, err = powertrace.GeneratePower(powertrace.PowerConfig{
			Name: "power", Seed: *seed, Slots: *slots, SlotSeconds: *slotSeconds,
			MeanWatts: *mean, MinWatts: *minW, MaxWatts: *maxW,
			Volatility: *volatility, Diurnal: *diurnal,
		})
	case "arrivals":
		tr, err = powertrace.GenerateArrivals(powertrace.ArrivalConfig{
			Name: "arrivals", Seed: *seed, Slots: *slots, SlotSeconds: *slotSeconds,
			BaseRate: *base, PeakRate: *peak, BurstFraction: *burst,
		})
	case "backlog":
		tr, err = powertrace.GenerateBacklog(powertrace.BacklogConfig{
			Name: "backlog", Seed: *seed, Slots: *slots, SlotSeconds: *slotSeconds,
			ActiveFraction: *active, MeanUnits: 10,
		})
	default:
		log.Fatalf("spotdc-trace: unknown kind %q", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := tr.WriteCSV(w); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d slots to %s\n", tr.Len(), *out)
		describe(tr)
	}
}

func describe(tr *powertrace.Power) {
	sum, err := stats.Summarize(tr.Watts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "name=%s slot=%ds %s\n", tr.Name, tr.SlotSeconds, sum)
	rel := stats.RelDiffs(tr.Watts)
	if len(rel) > 0 {
		within := 0
		for _, r := range rel {
			if r <= 0.025 {
				within++
			}
		}
		fmt.Fprintf(os.Stderr, "slot-to-slot |Δ| ≤ 2.5%%: %.2f%% of slots\n",
			100*float64(within)/float64(len(rel)))
	}
}
