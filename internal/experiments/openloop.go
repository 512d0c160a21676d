package experiments

// openloop.go is the load harness: it measures how many operations per
// second a deployment sustains, the quantity §9 uses to size a fleet.
// The generator schedules arrivals on a fixed or Poisson clock
// independent of completions, timestamps every operation from its
// *scheduled* arrival (so generator lag shows up as queueing delay rather
// than vanishing — a closed loop that waits for each operation before
// issuing the next would hide it: coordinated omission), and records
// latencies into HDR-style histograms (histogram.go). A rate sweep then
// locates the saturation knee: the highest offered rate the deployment
// sustains with its completion rate within tolerance.
//
// Traffic is a weighted mix of the three provider-facing operations:
//   backup  — a fresh virtual user enrolls and stores a ciphertext
//             (write path: log insertion + epoch batching)
//   recover — a preloaded user runs the full recovery protocol
//             (hot path: attempt reservation, log commit wait, share
//             fan-out across its HSM cluster) and then re-enrolls,
//             since recovery punctures the single-shot backup
//   audit   — a read-path probe (FetchCiphertext + AttemptCount), the
//             monitoring traffic a deployment sees between recoveries
//
// The virtual-user pool is unbounded in the open-loop sense: arrivals
// never wait for a free worker. maxInFlight only bounds goroutines to
// keep the harness itself from melting the host; arrivals beyond it are
// counted as drops, which is itself a saturation signal.

import (
	"context"
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"time"

	"safetypin"
	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
)

// OpenLoopConfig parameterizes one open-loop run. Zero fields take the
// defaults in withDefaults.
type OpenLoopConfig struct {
	NumHSMs     int
	ClusterSize int // 0 → min(8, NumHSMs/2)
	Threshold   int // 0 → ClusterSize/2
	BFE         bfe.Params
	// Users is the preloaded recover/audit population.
	Users int
	// Scheme defaults to the cheap ECDSA ablation so the measurement
	// isolates the system layer rather than pairing time.
	Scheme aggsig.Scheme
	// Rate is the offered arrival rate in operations per second.
	Rate float64
	// Duration is how long the generator offers load.
	Duration time.Duration
	// Poisson draws exponential inter-arrival gaps instead of fixed ones.
	Poisson bool
	// Seed fixes the arrival process and target selection.
	Seed int64
}

// maxInFlight bounds concurrently executing operations. Arrivals past
// the bound are counted as drops, not queued.
const maxInFlight = 1024

// Traffic mix: the share of arrivals that back up and that recover; the
// remaining 0.3 are audit probes.
const (
	mixBackup  = 0.2
	mixRecover = 0.5
)

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.NumHSMs == 0 {
		c.NumHSMs = 24
	}
	if c.ClusterSize == 0 {
		c.ClusterSize = min(8, c.NumHSMs/2)
	}
	if c.Threshold == 0 {
		c.Threshold = c.ClusterSize / 2
	}
	if c.BFE.M == 0 {
		// Recover-heavy runs puncture BFE filters fast (MaxPunctures =
		// M/2K); size generously so filter exhaustion doesn't masquerade
		// as saturation. Fleet-scale smokes (N=10000) set a small filter
		// explicitly, or construction alone costs N×M point
		// multiplications.
		c.BFE = bfe.Params{M: 1 << 14, K: 4}
	}
	if c.Users == 0 {
		c.Users = 8
	}
	if c.Scheme == nil {
		c.Scheme = aggsig.ECDSAConcat()
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// OpStats is the per-operation-type slice of a run.
type OpStats struct {
	Issued  uint64         `json:"issued"`
	Errors  uint64         `json:"errors"`
	Latency LatencySummary `json:"latency"`
}

// OpenLoopResult summarizes one open-loop run.
type OpenLoopResult struct {
	NumHSMs     int           `json:"num_hsms"`
	ClusterSize int           `json:"cluster_size"`
	Rate        float64       `json:"offered_rate"`
	Poisson     bool          `json:"poisson"`
	Duration    time.Duration `json:"duration_ns"`
	Elapsed     time.Duration `json:"elapsed_ns"`

	// ConstructSeconds is the wall-clock cost of provisioning this run's
	// fleet (NewDeployment: batch keygen + parallel HSM provisioning),
	// measured before any load is offered.
	ConstructSeconds float64 `json:"construct_seconds"`

	Offered   uint64 `json:"offered"`   // scheduled arrivals
	Issued    uint64 `json:"issued"`    // dispatched (pool had room)
	Dropped   uint64 `json:"dropped"`   // pool exhausted at arrival
	Busy      uint64 `json:"busy"`      // recover target already mid-recovery
	Completed uint64 `json:"completed"` // finished without error
	Errors    uint64 `json:"errors"`

	OfferedRate   float64 `json:"offered_per_sec"`
	CompletedRate float64 `json:"completed_per_sec"`

	Overall LatencySummary `json:"overall"`
	Backup  OpStats        `json:"backup"`
	Recover OpStats        `json:"recover"`
	Audit   OpStats        `json:"audit"`
}

// Sustained reports whether the run kept up with its offered load:
// completions within 10% of arrivals and (nearly) nothing dropped or
// skipped. Busy skips count against sustainability — they mean every
// virtual user was simultaneously mid-recovery, i.e. the recovery
// pipeline could not drain at the offered rate.
func (r OpenLoopResult) Sustained() bool {
	if r.Offered == 0 {
		return false
	}
	good := r.Completed >= r.Offered-r.Offered/10
	return good && r.Dropped+r.Busy <= r.Offered/100
}

func (r OpenLoopResult) String() string {
	return fmt.Sprintf("N=%d rate=%.0f/s: completed %.1f/s (err=%d drop=%d busy=%d) %s",
		r.NumHSMs, r.Rate, r.CompletedRate, r.Errors, r.Dropped, r.Busy, r.Overall)
}

const (
	opBackup = iota
	opRecover
	opAudit
)

// openLoopRun is the mutable state shared by the dispatcher and its
// operation goroutines.
type openLoopRun struct {
	seed    int64
	d       *safetypin.Deployment
	clients []*client.Client
	busy    []sync.Mutex // per preloaded client: recovery in progress

	mu    sync.Mutex
	hists [3]*Histogram
	all   *Histogram
	errs  [3]uint64
	done  [3]uint64
}

func (s *openLoopRun) record(op int, lat time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errs[op]++
		return
	}
	s.done[op]++
	s.hists[op].Record(lat)
	s.all.Record(lat)
}

// pickOp draws an operation type from the weighted mix.
func pickOp(rng *mrand.Rand) int {
	v := rng.Float64()
	switch {
	case v < mixBackup:
		return opBackup
	case v < mixBackup+mixRecover:
		return opRecover
	default:
		return opAudit
	}
}

// OpenLoopRun preloads Users recoverable users, then offers
// Rate arrivals/sec of mixed traffic for Duration, never waiting on
// completions. Latency is measured from each operation's scheduled
// arrival time, so a generator running behind schedule reports the
// backlog as queueing delay instead of omitting it.
func OpenLoopRun(cfg OpenLoopConfig) (OpenLoopResult, error) {
	cfg = cfg.withDefaults()
	buildStart := time.Now()
	d, err := safetypin.NewDeployment(safetypin.Params{
		NumHSMs:       cfg.NumHSMs,
		ClusterSize:   cfg.ClusterSize,
		Threshold:     cfg.Threshold,
		BFE:           cfg.BFE,
		MinSignerFrac: 0.5,
		GuessLimit:    1 << 20,
		Scheme:        cfg.Scheme,
	})
	if err != nil {
		return OpenLoopResult{}, err
	}
	defer d.Close()
	construct := time.Since(buildStart)
	clients := make([]*client.Client, cfg.Users)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("load-user-%d", i), "123456")
		if err != nil {
			return OpenLoopResult{}, err
		}
		if err := c.Backup(context.Background(), []byte(fmt.Sprintf("disk-image-%d", i))); err != nil {
			return OpenLoopResult{}, fmt.Errorf("preloading user %d: %w", i, err)
		}
		clients[i] = c
	}
	run := &openLoopRun{
		seed:    cfg.Seed,
		d:       d,
		clients: clients,
		busy:    make([]sync.Mutex, len(clients)),
		all:     NewHistogram(),
	}
	for i := range run.hists {
		run.hists[i] = NewHistogram()
	}

	rng := mrand.New(mrand.NewSource(cfg.Seed))
	res := OpenLoopResult{
		NumHSMs:          cfg.NumHSMs,
		ClusterSize:      cfg.ClusterSize,
		Rate:             cfg.Rate,
		Poisson:          cfg.Poisson,
		Duration:         cfg.Duration,
		ConstructSeconds: construct.Seconds(),
	}
	inflight := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var busyCount uint64
	var busyMu sync.Mutex

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	backupSeq := 0
	for next.Before(deadline) {
		if gap := time.Until(next); gap > 0 {
			time.Sleep(gap)
		}
		res.Offered++
		op := pickOp(rng)
		target := rng.Intn(len(clients))
		seq := backupSeq
		backupSeq++
		arrival := next
		select {
		case inflight <- struct{}{}:
			res.Issued++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-inflight }()
				err := run.execute(op, target, seq)
				if err == errTargetBusy {
					busyMu.Lock()
					busyCount++
					busyMu.Unlock()
					return
				}
				run.record(op, time.Since(arrival), err)
			}()
		default:
			res.Dropped++
		}
		if cfg.Poisson {
			next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		} else {
			next = next.Add(time.Duration(float64(time.Second) / cfg.Rate))
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Busy = busyCount

	run.mu.Lock()
	res.Overall = run.all.Summary()
	res.Backup = OpStats{Issued: run.done[opBackup] + run.errs[opBackup], Errors: run.errs[opBackup], Latency: run.hists[opBackup].Summary()}
	res.Recover = OpStats{Issued: run.done[opRecover] + run.errs[opRecover], Errors: run.errs[opRecover], Latency: run.hists[opRecover].Summary()}
	res.Audit = OpStats{Issued: run.done[opAudit] + run.errs[opAudit], Errors: run.errs[opAudit], Latency: run.hists[opAudit].Summary()}
	res.Completed = run.done[opBackup] + run.done[opRecover] + run.done[opAudit]
	res.Errors = run.errs[opBackup] + run.errs[opRecover] + run.errs[opAudit]
	run.mu.Unlock()

	res.OfferedRate = float64(res.Offered) / res.Elapsed.Seconds()
	res.CompletedRate = float64(res.Completed) / res.Elapsed.Seconds()
	return res, nil
}

// errTargetBusy marks a recover arrival that found every preloaded user
// already mid-recovery: the virtual-user pool is exhausted, which is a
// saturation signal, not an error.
var errTargetBusy = fmt.Errorf("experiments: open-loop recover pool exhausted")

func (s *openLoopRun) execute(op, target, seq int) error {
	ctx := context.Background()
	switch op {
	case opBackup:
		c, err := s.d.NewClient(fmt.Sprintf("ol-user-%d-%d", s.seed, seq), "123456")
		if err != nil {
			return err
		}
		return c.Backup(ctx, []byte("open-loop-backup"))
	case opRecover:
		// Find a user not already mid-recovery, scanning from the random
		// start: two concurrent recoveries of one user contend on the
		// attempt counter by design, so each virtual user is one device.
		// Only a fully busy pool — every preloaded user in recovery at
		// once, a genuine saturation signal — skips the arrival.
		locked := -1
		for i := 0; i < len(s.clients); i++ {
			t := (target + i) % len(s.clients)
			if s.busy[t].TryLock() {
				locked = t
				break
			}
		}
		if locked < 0 {
			return errTargetBusy
		}
		target = locked
		defer s.busy[target].Unlock()
		if _, err := s.clients[target].Recover(ctx, ""); err != nil {
			return err
		}
		// Recovery punctures the backup's BFE ciphertext — SafetyPin
		// backups are single-recovery by design — so the cycle re-enrolls
		// the user to keep the population recoverable. The re-backup is
		// part of the measured operation: it is what a real device does
		// immediately after a successful recovery.
		return s.clients[target].Backup(ctx, []byte("open-loop-reenroll"))
	default: // opAudit
		user := s.clients[target].User()
		if _, err := s.d.Provider.FetchCiphertext(ctx, user); err != nil {
			return err
		}
		_, err := s.d.Provider.AttemptCount(ctx, user)
		return err
	}
}

// OpenLoopSweep runs the same deployment shape at each offered rate and
// returns the per-rate results plus the saturation knee: the highest
// swept rate the deployment sustained. A knee of 0 means even the
// lowest rate overloaded it; a knee equal to the highest rate means the
// sweep never found saturation.
func OpenLoopSweep(cfg OpenLoopConfig, rates []float64) ([]OpenLoopResult, float64, error) {
	var results []OpenLoopResult
	knee := 0.0
	for _, r := range rates {
		c := cfg
		c.Rate = r
		res, err := OpenLoopRun(c)
		if err != nil {
			return nil, 0, fmt.Errorf("open-loop rate %.0f/s: %w", r, err)
		}
		results = append(results, res)
		if res.Sustained() && r > knee {
			knee = r
		}
	}
	return results, knee, nil
}

// OpenLoopFleetReport is the machine-readable record of one fleet's
// sweep — what cmd/experiments -out writes and BENCH_7.json embeds.
type OpenLoopFleetReport struct {
	NumHSMs        int     `json:"num_hsms"`
	SaturationRate float64 `json:"saturation_rate_per_sec"`
	// ConstructSeconds is the fleet's provisioning time (first sweep
	// point's deployment construction).
	ConstructSeconds float64          `json:"construct_seconds"`
	Sweep            []OpenLoopResult `json:"sweep"`
}

// OpenLoopReport is the top-level JSON document for a multi-fleet run.
type OpenLoopReport struct {
	Mode   string                `json:"mode"` // "fixed" or "poisson"
	Fleets []OpenLoopFleetReport `json:"fleets"`
}

// JSON renders the report indented.
func (r OpenLoopReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RenderOpenLoop renders sweep results as a human-readable table.
func RenderOpenLoop(results []OpenLoopResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %10s %10s %6s %6s %10s %10s %10s %10s\n",
		"N", "rate/s", "done/s", "err", "drop", "busy", "p50", "p95", "p99", "p99.9")
	for _, r := range results {
		fmt.Fprintf(&b, "%6d %8.0f %10.1f %10d %6d %6d %10v %10v %10v %10v\n",
			r.NumHSMs, r.Rate, r.CompletedRate, r.Errors, r.Dropped, r.Busy,
			r.Overall.P50.Round(time.Microsecond), r.Overall.P95.Round(time.Microsecond),
			r.Overall.P99.Round(time.Microsecond), r.Overall.P999.Round(time.Microsecond))
	}
	return b.String()
}
