package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safetypin"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/experiments"
)

// results collects one phase's outcomes. Latencies of successful operations
// go to the histograms; failures are counted by error text.
type results struct {
	mu sync.Mutex
	// op is the headline operation's latency: a recovery on recover-solo
	// and recover-wave, a probe on backup-probe.
	op     *experiments.Histogram
	backup *experiments.Histogram
	lag    *experiments.Histogram // open-loop generator lateness

	attempted, failed int // every operation
	ops, okOps        int // headline operations
	failures          map[string]int
	problems          []string // correctness violations

	wall time.Duration // measured wall time
	cpu  time.Duration // process user+sys CPU over the measured wall time
}

func newResults() *results {
	return &results{
		op:       experiments.NewHistogram(),
		backup:   experiments.NewHistogram(),
		lag:      experiments.NewHistogram(),
		failures: make(map[string]int),
	}
}

var digits = regexp.MustCompile(`[0-9]+`)

// done records one finished operation.
func (r *results) done(headline bool, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if headline {
		r.ops++
	}
	if err != nil {
		r.failed++
		// Group by error text with numbers (HSM IDs, counts) masked.
		r.failures[digits.ReplaceAllString(err.Error(), "N")]++
		return
	}
	if headline {
		r.okOps++
		r.op.Record(d)
	} else {
		r.backup.Record(d)
	}
}

func (r *results) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *results) lagged(d time.Duration) {
	r.mu.Lock()
	r.lag.Record(d)
	r.mu.Unlock()
}

func hashBlob(b []byte) [32]byte { return sha256.Sum256(b) }

// runner drives one deployment.
type runner struct {
	cfg  config
	d    *safetypin.Deployment
	prov *clientProvider
	enc  *clientFleet
	tr   atomic.Pointer[tracer]
	gen  *generator

	mu       sync.Mutex
	attempts map[string]int // recoveries attempted per user

	enrolled []*enrolledUser // backup-probe population
}

type enrolledUser struct {
	mu sync.Mutex // serializes this user's operations
	c  *client.Client
}

func newRunner(cfg config, d *safetypin.Deployment, seed int64) *runner {
	r := &runner{cfg: cfg, d: d, gen: newGenerator(seed), attempts: make(map[string]int)}
	r.prov = &clientProvider{inner: d.Provider, tr: &r.tr, latest: make(map[string][32]byte)}
	r.enc = &clientFleet{inner: d.Fleet(), tr: &r.tr}
	return r
}

func (r *runner) newClient(u userInput) (*client.Client, error) {
	return client.New(u.Name, u.PIN, r.d.LHEParams(), r.enc, r.prov)
}

func (r *runner) backup(ctx context.Context, c *client.Client, payload []byte) error {
	ctx, end := r.tr.Load().root(ctx, "backup")
	err := c.Backup(ctx, payload)
	end(err)
	return err
}

// recover runs one recovery and checks it returns the bytes backed up. A
// failed recovery is never retried or resumed.
func (r *runner) recover(ctx context.Context, c *client.Client, u userInput, res *results, start time.Time) {
	r.mu.Lock()
	r.attempts[u.Name]++
	r.mu.Unlock()
	ctx, end := r.tr.Load().root(ctx, "recover")
	msg, err := c.Recover(ctx, u.PIN)
	end(err)
	res.done(true, time.Since(start), err)
	if err == nil && !bytes.Equal(msg, u.Payload) {
		res.problem("recovery of %s returned %d bytes that differ from the %d backed up", u.Name, len(msg), len(u.Payload))
	}
}

// workload is one input set the benchmark runs.
type workload struct {
	// gated workloads are the ones BENCHMARK.json lists. A workload whose
	// failure count depends on timing is left out: two runs of the same
	// code would not agree on it.
	gated bool
	// preload runs once after the fleet is built, inside setup.
	preload func(ctx context.Context, r *runner) error
	// run measures for d, adding to res.
	run func(ctx context.Context, r *runner, d time.Duration, res *results)
}

var workloads = map[string]workload{
	"recover-solo": {gated: true, run: runSolo},
	"backup-probe": {gated: true, preload: enroll, run: runProbe},
	"recover-wave": {run: runWave},
}

// runSolo is a closed loop with one device: back up a fresh user, then
// recover it. Each recovery sits alone in its epoch, so no share request
// can overlap another epoch's commit and every recovery should succeed.
func runSolo(ctx context.Context, r *runner, d time.Duration, res *results) {
	start := time.Now()
	for time.Since(start) < d {
		u := r.gen.user()
		c, err := r.newClient(u)
		if err != nil {
			res.done(false, 0, err)
			continue
		}
		t := time.Now()
		err = r.backup(ctx, c, u.Payload)
		res.done(false, time.Since(t), err)
		if err != nil {
			continue
		}
		r.recover(ctx, c, u, res, time.Now())
	}
	res.wall += time.Since(start)
}

// runWave is a mass restore: each wave backs up WaveSize fresh users at
// once, then recovers all of them at once. Latencies run from the moment
// the wave's phase is released. Waves are never shrunk or spaced out:
// back-to-back epochs are what exposes stale inclusion proofs.
func runWave(ctx context.Context, r *runner, d time.Duration, res *results) {
	start := time.Now()
	waves := 0
	// Start another wave while that brings the measured time nearer to d:
	// a wave lasts seconds, so the run ends at the wave boundary closest
	// to d rather than always past it.
	for waves == 0 || time.Since(start)+time.Since(start)/time.Duration(2*waves) < d {
		waves++
		users := make([]userInput, r.cfg.WaveSize)
		clients := make([]*client.Client, len(users))
		for i := range users {
			users[i] = r.gen.user()
			c, err := r.newClient(users[i])
			if err != nil {
				res.done(false, 0, err)
				continue
			}
			clients[i] = c
		}
		ok := make([]bool, len(users))
		var wg sync.WaitGroup
		phase := time.Now()
		for i, c := range clients {
			if c == nil {
				continue
			}
			wg.Add(1)
			go func(i int, c *client.Client) {
				defer wg.Done()
				err := r.backup(ctx, c, users[i].Payload)
				res.done(false, time.Since(phase), err)
				ok[i] = err == nil
			}(i, c)
		}
		wg.Wait()
		phase = time.Now()
		for i, c := range clients {
			if !ok[i] {
				continue
			}
			wg.Add(1)
			go func(i int, c *client.Client) {
				defer wg.Done()
				r.recover(ctx, c, users[i], res, phase)
			}(i, c)
		}
		wg.Wait()
	}
	res.wall += time.Since(start)
}

// enroll backs up the backup-probe population once, GOMAXPROCS at a time.
func enroll(ctx context.Context, r *runner) error {
	users := make([]userInput, r.cfg.Population)
	r.enrolled = make([]*enrolledUser, len(users))
	for i := range users {
		users[i] = r.gen.user()
		c, err := r.newClient(users[i])
		if err != nil {
			return err
		}
		r.enrolled[i] = &enrolledUser{c: c}
	}
	var next atomic.Int64
	errs := make(chan error, runtime.GOMAXPROCS(0))
	for w := 0; w < cap(errs); w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(users) {
					errs <- nil
					return
				}
				if err := r.enrolled[i].c.Backup(ctx, users[i].Payload); err != nil {
					errs <- fmt.Errorf("enrolling %s: %w", users[i].Name, err)
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < cap(errs); w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			next.Store(int64(len(users))) // stop the other workers
		}
	}
	return first
}

// runProbe is an open loop at cfg.Rate arrivals per second: half re-backups
// by the enrolled population, half read probes. Latency runs from each
// arrival's scheduled time, so a stall counts against the arrivals behind
// it.
func runProbe(ctx context.Context, r *runner, d time.Duration, res *results) {
	n := int(math.Round(r.cfg.Rate * d.Seconds()))
	sched := r.gen.schedule(max(n, 1), len(r.enrolled), d)
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range sched {
		due := start.Add(a.At)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		res.lagged(time.Since(due))
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			r.arrive(ctx, a, due, res)
		}(a, due)
	}
	wg.Wait()
	res.wall += time.Since(start)
}

func (r *runner) arrive(ctx context.Context, a arrival, due time.Time, res *results) {
	u := r.enrolled[a.User]
	u.mu.Lock()
	defer u.mu.Unlock()
	if !a.Probe {
		err := r.backup(ctx, u.c, a.Payload)
		res.done(false, time.Since(due), err)
		return
	}
	name := u.c.User()
	ctx, end := r.tr.Load().root(ctx, "probe")
	blob, err := r.prov.FetchCiphertext(ctx, name)
	var n int
	if err == nil {
		n, err = r.prov.AttemptCount(ctx, name)
	}
	end(err)
	res.done(true, time.Since(due), err)
	if err != nil {
		return
	}
	if want, ok := r.prov.stored(name); !ok || hashBlob(blob) != want {
		res.problem("probe of %s returned a ciphertext other than the latest stored", name)
	}
	if n != 0 {
		res.problem("probe of %s: attempt count %d, but no recovery was attempted", name, n)
	}
}

// finalChecks verifies the deployment's end state: every HSM holds the
// provider's log digest, the published log replays to that digest, and
// each user's attempt counter equals the recoveries attempted.
func (r *runner) finalChecks(ctx context.Context, res *results) {
	want := r.d.Provider.LogDigest()
	for _, h := range r.d.HSMs {
		got, err := h.LogDigest()
		if err != nil || got != want {
			res.problem("HSM %d log digest %x differs from the provider's %x (err %v)", h.ID(), got, want, err)
		}
	}
	if err := dlog.Replay(r.d.Provider.LogEntries(), want); err != nil {
		res.problem("log replay: %v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for user, n := range r.attempts {
		got, err := r.d.Provider.AttemptCount(ctx, user)
		if err != nil || got != n {
			res.problem("user %s: attempt counter %d, %d recoveries attempted (err %v)", user, got, n, err)
		}
	}
}
