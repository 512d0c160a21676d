// Command experiments regenerates every table and figure of the SafetyPin
// paper's evaluation section (§9) from this repository's implementation.
//
// Usage:
//
//	experiments                 # run everything at default scale
//	experiments -only fig9      # one experiment (table2, table7, fig8,
//	                            # fig9, fig10, fig11, fig12, fig13,
//	                            # table14, bandwidth)
//	experiments -quick          # reduced sizes (seconds instead of minutes)
//	experiments -only load -quick
//	                            # open-loop rate sweep per fleet size and
//	                            # its saturation knee (mixed backup/
//	                            # recover/audit traffic, Poisson arrivals)
//	experiments -only load -rate 100 -duration 5s -out load.json
//	                            # open-loop load at one offered rate,
//	                            # machine-readable report to load.json
//	experiments -only adversary -pin-dist skewed -duration 2s -out adv.json
//	                            # adversarial PIN-guessing sweep: every
//	                            # attack scenario on both storage engines,
//	                            # security invariants machine-checked,
//	                            # JSON report to adv.json; exits nonzero
//	                            # on any invariant violation
//
// Times reported as "SoloKey time" are computed by metering every primitive
// operation the real implementation performs and pricing the counts with
// the paper's Table 2/7 rates; see internal/simtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"safetypin/internal/aggsig"
	"safetypin/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment by name")
	quick := flag.Bool("quick", false, "reduced problem sizes")
	rate := flag.Float64("rate", 0, "load: single open-loop arrival rate (ops/sec); 0 sweeps a rate ladder")
	duration := flag.Duration("duration", 0, "load: open-loop measurement window per rate (default 2s)")
	outPath := flag.String("out", "", "load/setup/adversary: write the machine-readable report as JSON to this file")
	pinDist := flag.String("pin-dist", "", "adversary: PIN distribution — skewed (default), uniform, uniform4, or a JSON file path")
	fleetFlag := flag.String("fleet", "", "load/setup: comma-separated fleet sizes N (e.g. 24,96 or 10000); overrides the experiment defaults (load recovers over a min(8, N/2)-HSM cluster, threshold half of it)")
	users := flag.Int("users", 0, "load: preloaded recover/audit user population (default 32, quick 8)")
	schemeFlag := flag.String("scheme", "", "load: signature scheme — ecdsa (default) or bls; large fleets need bls, whose per-HSM audit cost is O(1)")
	bfeM := flag.Int("bfe-m", 0, "load/setup: BFE filter size M per HSM (0 → load 16384, setup 256; large load fleets want a small explicit filter)")
	bfeK := flag.Int("bfe-k", 4, "load/setup: BFE hash count K (with -bfe-m)")
	flag.Parse()

	fleetOverride, err := parseFleets(*fleetFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-fleet: %v\n", err)
		os.Exit(2)
	}

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	ran := false
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}

	if want("table2") {
		ran = true
		fmt.Println(experiments.Table2())
	}
	if want("table7") {
		ran = true
		fmt.Println(experiments.Table7(experiments.MeasureHostRates()))
	}
	if want("fig8") {
		ran = true
		cfg := experiments.DefaultFig8Config()
		if *quick {
			cfg.BaseLogSize = 1 << 13
			cfg.Inserts = 2048
			cfg.Lambda = 32
			cfg.Sizes = []int{512, 1024, 2048}
		}
		points, err := experiments.Fig8(cfg)
		if err != nil {
			fail("fig8", err)
		}
		fmt.Println(experiments.RenderFig8(points, cfg))
	}
	if want("fig9") {
		ran = true
		budgets := []int{10, 100, 1000, 10000, 100000}
		if *quick {
			budgets = []int{10, 100, 1000}
		}
		points, err := experiments.Fig9(budgets)
		if err != nil {
			fail("fig9", err)
		}
		fmt.Println(experiments.RenderFig9(points))
	}

	// Figures 10–13 and Table 14 share one recovery measurement.
	needLoad := want("fig10") || want("fig11") || want("fig12") || want("fig13") || want("table14")
	if needLoad {
		ran = true
		cfg := experiments.DefaultMeasureConfig()
		if *quick {
			cfg.NumHSMs = 32
			cfg.ClusterSize = 16
		}
		rep, err := experiments.Fig10(cfg)
		if err != nil {
			fail("fig10", err)
		}
		if want("fig10") {
			fmt.Println(rep.Render())
		}
		load := rep.SafetyPin.Load()
		if want("fig11") {
			sizes := []int{40, 50, 60, 70, 80, 90, 100}
			if *quick {
				sizes = []int{16, 24, 32}
			}
			points, err := experiments.Fig11(cfg, sizes)
			if err != nil {
				fail("fig11", err)
			}
			fmt.Println(experiments.RenderFig11(points))
		}
		if want("fig12") {
			fmt.Println(experiments.RenderFig12(experiments.Fig12(load, 5e6, 10)))
		}
		if want("fig13") {
			fmt.Println(experiments.RenderFig13(experiments.Fig13(load, 1.5e9, 6)))
		}
		if want("table14") {
			fmt.Println(experiments.Table14(load))
			fmt.Printf("rotation duty fraction (§9.1): %.0f%% of cycles; %.1f recoveries/HSM/hour\n\n",
				load.RotationDutyFraction()*100, load.RecoveriesPerHSMHour())
		}
	}
	if want("bandwidth") {
		ran = true
		fmt.Println(experiments.BandwidthReport(
			experiments.PaperN, experiments.PaperClusterSize,
			experiments.PaperBFEParams, experiments.PaperBFEParams.MaxPunctures()))
	}
	if want("setup") && *only != "" {
		// Construction-time experiment: only runs when asked for by name
		// (a bare `experiments` regenerates the paper's figures, and fleet
		// provisioning is not one of them).
		ran = true
		cfg := experiments.SetupConfig{Fleets: fleetOverride}
		if len(cfg.Fleets) == 0 && *quick {
			cfg.Fleets = []int{16, 64}
		}
		if *bfeM > 0 {
			cfg.BFE.M, cfg.BFE.K = *bfeM, *bfeK
		}
		rep, err := experiments.FleetSetup(cfg)
		if err != nil {
			fail("setup", err)
		}
		fmt.Println(experiments.RenderSetup(rep))
		if *outPath != "" {
			blob, err := rep.JSON()
			if err != nil {
				fail("setup", err)
			}
			if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
				fail("setup", err)
			}
			fmt.Printf("setup report written to %s\n", *outPath)
		}
	}
	if want("load") {
		ran = true
		// Arrival-rate-controlled mixed traffic with latency histograms,
		// swept to the saturation knee per fleet size.
		fleets := []int{24, 96}
		rates := []float64{25, 50, 100, 200, 400}
		population := 32
		if *quick {
			fleets = []int{16}
			rates = []float64{25, 100}
			population = 8
		}
		if len(fleetOverride) > 0 {
			fleets = fleetOverride
		}
		if *users > 0 {
			population = *users
		}
		if *rate > 0 {
			rates = []float64{*rate}
		}
		var scheme aggsig.Scheme
		switch *schemeFlag {
		case "", "ecdsa":
		case "bls":
			scheme = aggsig.BLS()
		default:
			fail("load", fmt.Errorf("unknown -scheme %q (want ecdsa or bls)", *schemeFlag))
		}
		report := experiments.OpenLoopReport{Mode: "poisson"}
		for _, n := range fleets {
			cfg := experiments.OpenLoopConfig{
				NumHSMs:  n,
				Users:    population,
				Scheme:   scheme,
				Duration: *duration,
				Poisson:  true,
			}
			if *bfeM > 0 {
				cfg.BFE.M, cfg.BFE.K = *bfeM, *bfeK
			}
			results, knee, err := experiments.OpenLoopSweep(cfg, rates)
			if err != nil {
				fail("load", err)
			}
			construct := 0.0
			if len(results) > 0 {
				construct = results[0].ConstructSeconds
			}
			fmt.Printf("Open-loop load, N=%d (Poisson arrivals, mixed backup/recover/audit; fleet constructed in %.2fs)\n",
				n, construct)
			fmt.Println(experiments.RenderOpenLoop(results))
			fmt.Printf("saturation knee: %.0f ops/sec sustained\n\n", knee)
			report.Fleets = append(report.Fleets, experiments.OpenLoopFleetReport{
				NumHSMs: n, SaturationRate: knee, ConstructSeconds: construct, Sweep: results,
			})
		}
		if *outPath != "" {
			blob, err := report.JSON()
			if err != nil {
				fail("load", err)
			}
			if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
				fail("load", err)
			}
			fmt.Printf("open-loop report written to %s\n\n", *outPath)
		}
	}
	if want("adversary") && *only != "" {
		// Security sweep, not a performance figure: only runs when asked
		// for by name, so `experiments` alone still means "regenerate the
		// paper's evaluation".
		ran = true
		report, err := experiments.Adversary(context.Background(), experiments.AdversaryConfig{
			Dist:     *pinDist,
			Rate:     *rate,
			Duration: *duration,
			Quick:    *quick,
		})
		if err != nil {
			fail("adversary", err)
		}
		report.Render(os.Stdout)
		if *outPath != "" {
			blob, err := report.JSON()
			if err != nil {
				fail("adversary", err)
			}
			if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
				fail("adversary", err)
			}
			fmt.Printf("adversary report written to %s\n", *outPath)
		}
		if !report.OK() {
			fmt.Fprintln(os.Stderr, "adversary: invariant violations detected")
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

// parseFleets parses a comma-separated list of fleet sizes.
func parseFleets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
