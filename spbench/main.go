// Command spbench is the SafetyPin benchmark. It runs one workload against
// an in-process safetypin.New deployment, checks every output, and prints
// its metrics; the last line of standard output is one JSON object.
//
//	spbench --workload recover-solo --seed 1 --seconds 40 --trace 0
//
// Workloads:
//
//   - recover-solo: a closed loop with one device over the file WAL
//     engine. Each iteration backs up a fresh user and recovers it, so each
//     recovery sits alone in its epoch.
//   - backup-probe: an open loop of Poisson arrivals at a fixed rate well
//     below saturation: half re-backups by an enrolled population, half
//     read probes (FetchCiphertext + AttemptCount), over the file WAL
//     engine. No HSM and no epoch runs.
//   - recover-wave: a mass restore. Each wave backs up 64 fresh users at
//     once, then recovers all 64 at once, over the file WAL engine. Some
//     of its recoveries fail on stale inclusion proofs, and how many
//     depends on timing, so BENCHMARK.json does not list it; it is run by
//     hand to show that defect.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// runs the workload for half the time untraced, then half traced, and
// reports the per-layer metrics of the traced half; the spans go to
// <out>/trace/<workload>-seed<seed>.jsonl.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"safetypin"
	"safetypin/internal/bfe"
	"safetypin/internal/experiments"
	"safetypin/internal/storage"
)

// config fixes the deployment and the shape of each workload.
type config struct {
	HSMs, Cluster, Threshold int
	// BFE sizes every HSM's puncturable key. One size serves every
	// workload.
	BFE bfe.Params
	// Setups is how many times a run builds the fleet; setup_s is the
	// median. The workload runs on the last one.
	Setups int
	// WaveSize is the number of users per recover-wave wave.
	WaveSize int
	// Population is the number of users backup-probe enrolls in setup.
	Population int
	// Rate is backup-probe's arrival rate per second.
	Rate float64
}

// paperConfig is the paper's 100-HSM testbed: cluster 40, threshold 20,
// BLS multisignatures, one guess, default engine settings (2 ms batch
// window, MaxBatch 256). The paper's BFE filter (M = 2^21) cannot be built
// here; M = 2048, K = 4 keeps each HSM below its rotation point (M/2
// punctured positions) for ~600 recoveries, several times what a run
// performs, and rotation is not measured.
func paperConfig() config {
	return config{
		HSMs: 100, Cluster: 40, Threshold: 20,
		BFE:        bfe.Params{M: 2048, K: 4},
		Setups:     3,
		WaveSize:   64,
		Population: 128,
		Rate:       40,
	}
}

// options are one run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the WAL and the span file
	cfg      config
}

// outcome is the run's last line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists the end-to-end metrics with their units. The
// headline operation ("op") is a recovery on recover-solo and recover-wave
// and a read probe on backup-probe. Tail latencies and the op rate are
// printed in the report but not listed: on a shared 2-vCPU host the tails
// spread from run to run past any bound a regression gate could use, and
// the rate of a closed loop with one device only restates its latencies.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"op_p50_ms", "ms"},
	{"backup_p50_ms", "ms"},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "recover-solo, backup-probe or recover-wave")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the WAL and the span file")
	flag.Parse()
	o.trace = traceFlag == 1
	o.cfg = paperConfig()
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "spbench: need --workload recover-solo|backup-probe|recover-wave, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	out, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// fleet is one built deployment and its journal.
type fleet struct {
	d    *safetypin.Deployment
	file *storage.FileEngine
	eng  *tracedEngine // nil unless traced
	dir  string
}

// discard drops a fleet. It closes the journal without the final snapshot
// a clean shutdown writes, since the journal is deleted next.
func (f *fleet) discard() {
	_ = f.file.Close()
	_ = os.RemoveAll(f.dir)
}

// buildFleet builds a deployment that journals through a file WAL engine in
// dir. Every workload journals: the gated ones must measure the journal, and
// a memory-only provider would be a second configuration to keep steady.
func buildFleet(cfg config, dir string, traced bool) (*fleet, error) {
	opts := []safetypin.Option{
		safetypin.WithFleet(cfg.HSMs),
		safetypin.WithCluster(cfg.Cluster),
		safetypin.WithThreshold(cfg.Threshold),
		safetypin.WithBFE(cfg.BFE),
		safetypin.WithGuessLimit(1),
	}
	fe, err := storage.OpenFile(dir)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, file: fe}
	var eng storage.Engine = fe
	if traced {
		f.eng = &tracedEngine{Engine: fe}
		eng = f.eng
		opts = append(opts, safetypin.WithMetered())
	}
	opts = append(opts, safetypin.WithStorage(eng))
	d, err := safetypin.New(opts...)
	if err != nil {
		_ = fe.Close()
		return nil, err
	}
	f.d = d
	return f, nil
}

func run(ctx context.Context, o options, report io.Writer) (*outcome, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(o.out, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	// Setup: build the fleet cfg.Setups times, keep the last, then
	// preload. setup_s is the median build plus the preload.
	var f *fleet
	builds := make([]time.Duration, 0, o.cfg.Setups)
	for i := 0; i < max(o.cfg.Setups, 1); i++ {
		if f != nil {
			f.discard()
			f = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		nf, err := buildFleet(o.cfg, filepath.Join(dataDir, "fleet"+strconv.Itoa(i)), o.trace)
		if err != nil {
			return nil, fmt.Errorf("building the fleet: %w", err)
		}
		builds = append(builds, time.Since(start))
		f = nf
	}
	defer f.discard()
	r := newRunner(o.cfg, f.d, o.seed)
	preloadStart := time.Now()
	if w.preload != nil {
		if err := w.preload(ctx, r); err != nil {
			return nil, fmt.Errorf("preloading: %w", err)
		}
	}
	setup := median(builds) + time.Since(preloadStart)

	dur := time.Duration(o.seconds * float64(time.Second))
	phase := func(d time.Duration) *results {
		res := newResults()
		cpu := cpuTime()
		w.run(ctx, r, d, res)
		res.cpu = cpuTime() - cpu
		return res
	}

	out := &outcome{Metrics: make(map[string]metric)}
	var all []*results
	if !o.trace {
		res := phase(dur)
		all = append(all, res)
		for k, v := range endToEnd(setup, res) {
			out.Metrics[k] = v
		}
		writeReport(report, o, setup, res)
	} else {
		untraced := phase(dur / 2)
		tr := newTracer()
		for i, h := range f.d.HSMs {
			f.d.Provider.Register(&tracedHSM{h: h, tr: tr})
			h.SwapOracle(&tracedOracle{inner: f.d.Provider.OracleFor(i), tr: tr})
		}
		f.eng.tr.Store(tr)
		f.d.ResetMeters()
		r.tr.Store(tr)
		traced := phase(dur - dur/2)
		r.tr.Store(nil)
		f.eng.tr.Store(nil)
		all = append(all, untraced, traced)
		spans := tr.finish()
		in := phaseInputs{spans: spans, tr: tr, res: traced, untraced: untraced, meters: fleetMeters(f.d), threshold: o.cfg.Threshold}
		for k, v := range perLayer(in) {
			out.Metrics[k] = v
		}
		if err := saveSpans(o, spans); err != nil {
			return nil, err
		}
		writeReport(report, o, setup, traced)
		writeMetrics(report, out.Metrics)
	}

	check := newResults()
	r.finalChecks(ctx, check)
	for _, h := range f.d.HSMs {
		if h.NeedsRotation() {
			fmt.Fprintf(report, "warning: HSM %d reached its key-rotation point; the BFE filter is too small for this run\n", h.ID())
			break
		}
	}
	problems := check.problems
	for _, res := range all {
		out.Attempted += res.attempted
		out.Failed += res.failed
		problems = append(problems, res.problems...)
	}
	for _, p := range problems {
		fmt.Fprintln(report, "CHECK FAILED:", p)
	}
	out.Correct = len(problems) == 0 && out.Attempted > 0
	if out.Attempted == 0 {
		fmt.Fprintln(report, "CHECK FAILED: no operation was attempted")
	}
	return out, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func endToEnd(setup time.Duration, res *results) map[string]metric {
	units := make(map[string]string)
	for _, u := range endToEndUnits {
		units[u.name] = u.unit
	}
	v := map[string]float64{
		"setup_s":       setup.Seconds(),
		"peak_rss_mb":   peakRSSMB(),
		"cpu_ms_per_op": ratio(durMS(res.cpu), float64(res.ops)),
		"op_p50_ms":     durMS(res.op.Quantile(0.5)),
		"backup_p50_ms": durMS(res.backup.Quantile(0.5)),
	}
	out := make(map[string]metric, len(v))
	for k, x := range v {
		out[k] = metric{Value: x, Unit: units[k]}
	}
	return out
}

// writeReport prints the run's figures under the names of the paper's
// operations, with the percentile each tail stands for and the failures
// grouped by error text.
func writeReport(w io.Writer, o options, setup time.Duration, res *results) {
	opName, rateName := "recover", "recoveries_per_s"
	if o.workload == "backup-probe" {
		opName, rateName = "probe", "probes_per_s"
	}
	fmt.Fprintf(w, "workload %s seed %d: %d HSMs, cluster %d, threshold %d, BFE M=%d K=%d, GOMAXPROCS %d\n",
		o.workload, o.seed, o.cfg.HSMs, o.cfg.Cluster, o.cfg.Threshold, o.cfg.BFE.M, o.cfg.BFE.K, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-22s %12.4f s\n", "setup_s", setup.Seconds())
	fmt.Fprintf(w, "%-22s %12.1f MB\n", "peak_rss_mb", peakRSSMB())
	fmt.Fprintf(w, "%-22s %12.3f ms  (%d ops)\n", "cpu_ms_per_op", ratio(durMS(res.cpu), float64(res.ops)), res.ops)
	latency := func(name string, h *experiments.Histogram) {
		d, q, ok := tail(h)
		note := fmt.Sprintf("p%.1f of n=%d", q*100, h.Count())
		if !ok {
			note = fmt.Sprintf("max of n=%d: too few samples for a tail", h.Count())
		}
		fmt.Fprintf(w, "%-22s %12.3f ms\n", name+"_p50_ms", durMS(h.Quantile(0.5)))
		fmt.Fprintf(w, "%-22s %12.3f ms  (%s)\n", name+"_tail_ms", durMS(d), note)
	}
	latency(opName, res.op)
	latency("backup", res.backup)
	fmt.Fprintf(w, "%-22s %12.3f 1/s\n", rateName, ratio(float64(res.okOps), res.wall.Seconds()))
	fmt.Fprintf(w, "%-22s %12.4f     (%d of %d operations)\n", "fail_ratio", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	keys := make([]string, 0, len(res.failures))
	for k := range res.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  failed %5d × %s\n", res.failures[k], k)
	}
	if res.lag.Count() > 0 {
		fmt.Fprintf(w, "%-22s %12.3f ms\n", "gen_lag_p99_ms", durMS(res.lag.Quantile(0.99)))
	}
}

func writeMetrics(w io.Writer, m map[string]metric) {
	for _, u := range perLayerUnits() {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", u.name, m[u.name].Value, u.unit)
	}
}

func saveSpans(o options, spans []span) error {
	dir := filepath.Join(o.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := writeSpans(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fleetMeters sums every HSM's operation counts.
func fleetMeters(d *safetypin.Deployment) map[string]int64 {
	out := make(map[string]int64)
	for i := range d.HSMs {
		for op, n := range d.Meter(i).Snapshot() {
			out[string(op)] += n
		}
	}
	return out
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
