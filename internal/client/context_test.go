package client

// context_test.go pins the context semantics of the redesigned service
// API: laggard share requests are cancelled (and their goroutines reaped)
// the moment the threshold is met, a hung HSM cannot outlive a caller's
// deadline, and a crashed recovery resumes from its session token without
// consuming a second attempt. Run with -race.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"safetypin/internal/protocol"
)

// relayGate wraps a Provider, interposing on RelayRecover: per-position
// delays that honour the caller's context (as a network round trip would)
// and an in-flight counter so tests can observe laggards being reaped.
type relayGate struct {
	Provider
	inflight atomic.Int64
	// delayFor decides how long a given share position stalls; nil → no
	// delay. A delay of -1 hangs until the context is cancelled.
	delayFor func(pos int) time.Duration
}

func (g *relayGate) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	if g.delayFor != nil {
		if d := g.delayFor(req.SharePos); d != 0 {
			var timer <-chan time.Time
			if d > 0 {
				tm := time.NewTimer(d)
				defer tm.Stop()
				timer = tm.C
			}
			select {
			case <-timer: // nil channel when hung: blocks forever
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return g.Provider.RelayRecover(ctx, req)
}

// waitNoInflight polls until the gate has no in-flight relays.
func waitNoInflight(t *testing.T, g *relayGate, within time.Duration) {
	t.Helper()
	deadline := time.After(within)
	for g.inflight.Load() != 0 {
		select {
		case <-deadline:
			t.Fatalf("%d relays still in flight after %v", g.inflight.Load(), within)
		case <-time.After(time.Millisecond):
		}
	}
}

// waitGoroutines polls until the process goroutine count returns to (or
// below) the baseline.
func waitGoroutines(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.After(within)
	for runtime.NumGoroutine() > baseline {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func gatedClient(t *testing.T, r *rig, user string, delayFor func(int) time.Duration) (*Client, *relayGate) {
	t.Helper()
	gate := &relayGate{Provider: r.prov, delayFor: delayFor}
	c, err := New(user, "123456", r.params, r.fleet, gate)
	if err != nil {
		t.Fatal(err)
	}
	return c, gate
}

// TestRequestSharesCancelsLaggards: with half the cluster fast and half
// deliberately slow, the early-exit fan-out must return as soon as t fast
// shares arrive AND cancel the slow requests — nothing keeps running in
// the background, no goroutine outlives the call.
func TestRequestSharesCancelsLaggards(t *testing.T) {
	r := newRig(t, 8) // cluster 4, threshold 2
	const slow = 10 * time.Second
	c, gate := gatedClient(t, r, "laggard-user", func(pos int) time.Duration {
		if pos >= 2 {
			return slow // positions 2,3 lag far beyond the test's patience
		}
		return 0
	})
	if err := c.Backup(tctx, []byte("fast enough")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	start := time.Now()
	s.RequestShares(tctx)
	if elapsed := time.Since(start); elapsed > slow/2 {
		t.Fatalf("early exit took %v; waited for the laggards", elapsed)
	}
	if s.SharesHeld() < r.params.Threshold() {
		t.Fatalf("held %d shares, need %d", s.SharesHeld(), r.params.Threshold())
	}
	// The laggard requests were cancelled, not abandoned: their contexts
	// fired, so the in-flight count drains and the fan-out goroutines die
	// long before the 10s stall would have elapsed.
	waitNoInflight(t, gate, 2*time.Second)
	waitGoroutines(t, baseline, 2*time.Second)
	got, err := s.Finish(tctx)
	if err != nil || string(got) != "fast enough" {
		t.Fatalf("finish after early exit: %q %v", got, err)
	}
}

// TestRequestAllSharesOverlapsHSMLatency: recovery in the paper's
// deployment is HSM-latency-bound (a SoloKey spends ~0.85s per recovery
// op), so the full-drain fan-out Recover uses must wait on the cluster's
// stalls concurrently, not one after another. Every member stalls, and
// the fan-out must finish well under the summed stall time, even on a
// single-core host: the sleeps overlap, the crypto does not.
func TestRequestAllSharesOverlapsHSMLatency(t *testing.T) {
	r := newRig(t, 8) // cluster 4, threshold 2
	const stall = 200 * time.Millisecond
	c, _ := gatedClient(t, r, "stalled-user", func(int) time.Duration { return stall })
	if err := c.Backup(tctx, []byte("worth the wait")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	cluster := len(s.Cluster())
	start := time.Now()
	if errs := s.RequestAllShares(tctx); len(errs) > 0 {
		t.Fatalf("fan-out errors: %v", errs)
	}
	elapsed := time.Since(start)
	if bound := time.Duration(cluster) * stall / 2; elapsed >= bound {
		t.Fatalf("fan-out over %d stalled HSMs took %v, want < %v (stalls ran serially)", cluster, elapsed, bound)
	}
	if s.SharesHeld() != cluster {
		t.Fatalf("held %d shares after full drain, want %d", s.SharesHeld(), cluster)
	}
	got, err := s.Finish(tctx)
	if err != nil || string(got) != "worth the wait" {
		t.Fatalf("finish: %q %v", got, err)
	}
}

// TestRecoverDeadlineWithHungHSM is the acceptance test for the context
// redesign: every HSM hangs, and a deadline-bounded Recover must return
// promptly with the deadline error, leaking zero goroutines.
func TestRecoverDeadlineWithHungHSM(t *testing.T) {
	r := newRig(t, 8)
	c, gate := gatedClient(t, r, "hung-user", func(int) time.Duration {
		return -1 // hang until cancelled
	})
	if err := c.Backup(tctx, []byte("unreachable")); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Recover(ctx, "")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("recovery against a hung fleet succeeded")
	}
	if !errors.Is(err, ErrTooFewShares) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error class: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded recovery took %v", elapsed)
	}
	waitNoInflight(t, gate, 2*time.Second)
	waitGoroutines(t, baseline, 2*time.Second)
}

// TestBeginHonoursCancelledContext: an already-cancelled context stops the
// flow at the first provider exchange.
func TestBeginHonoursCancelledContext(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "cancelled-user", "123456")
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Begin(ctx, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Begin with cancelled ctx returned %v", err)
	}
}

// TestResumeRecoveryAfterCrash: the §8 crash flow through the session
// API. A device begins a recovery, saves its token, collects a partial
// share set, and dies. The replacement resumes from the token: escrowed
// shares replay, only missing positions are re-fetched, the data comes
// back — and the log shows the SAME attempt, not a second one.
func TestResumeRecoveryAfterCrash(t *testing.T) {
	r := newRig(t, 8) // cluster 4, threshold 2
	c := r.client(t, "crasher", "123456")
	msg := []byte("phone died mid-recovery")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	s, err := c.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	// Partial progress: one share collected (and punctured at that HSM),
	// then crash — the Session is simply dropped.
	if err := s.RequestShare(tctx, 0); err != nil {
		t.Fatal(err)
	}
	attempt := s.Attempt()
	attemptsBefore, err := r.prov.AttemptCount(tctx, "crasher")
	if err != nil {
		t.Fatal(err)
	}

	// Replacement device: same user, fresh client, only the token.
	c2 := r.client(t, "crasher", "123456")
	s2, err := c2.ResumeRecovery(tctx, token)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Attempt() != attempt {
		t.Fatalf("resume switched attempts: %d → %d", attempt, s2.Attempt())
	}
	if s2.SharesHeld() < 1 {
		t.Fatal("escrowed share not replayed on resume")
	}
	// Only the missing positions are re-fetched (position 0 is punctured —
	// a blind re-request would fail there).
	if errs := s2.RequestAllShares(tctx); len(errs) > 0 {
		t.Fatalf("resumed fan-out failed: %v", errs)
	}
	got, err := s2.Finish(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("resumed recovery returned wrong data")
	}
	attemptsAfter, err := r.prov.AttemptCount(tctx, "crasher")
	if err != nil {
		t.Fatal(err)
	}
	if attemptsAfter != attemptsBefore {
		t.Fatalf("resume consumed an attempt: %d → %d", attemptsBefore, attemptsAfter)
	}
}

// TestResumeRecoveryFullEscrow: if the crashed device had already
// contacted the whole cluster, resume needs no live HSM at all — every
// share comes from escrow (the ciphertext is fully punctured by then).
func TestResumeRecoveryFullEscrow(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "full-escrow", "123456")
	msg := []byte("all shares escrowed")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	s, err := c.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.RequestAllShares(tctx); len(errs) > 0 {
		t.Fatalf("fan-out: %v", errs)
	}
	// Crash before Finish. The replacement reconstructs purely from
	// escrow.
	c2 := r.client(t, "full-escrow", "123456")
	s2, err := c2.ResumeRecovery(tctx, token)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SharesHeld() < r.params.Threshold() {
		t.Fatalf("escrow replay yielded %d shares, need %d", s2.SharesHeld(), r.params.Threshold())
	}
	got, err := s2.Finish(tctx)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("full-escrow resume: %q %v", got, err)
	}
}

// TestRequestSharesNoopWhenThresholdAlreadyMet: a resumed session whose
// escrow already satisfies the threshold must not contact the remaining
// cluster members at all — even against a fleet that would hang.
func TestRequestSharesNoopWhenThresholdAlreadyMet(t *testing.T) {
	r := newRig(t, 8) // cluster 4, threshold 2
	c := r.client(t, "replete", "123456")
	msg := []byte("already have enough")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	s, err := c.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < r.params.Threshold(); j++ {
		if err := s.RequestShare(tctx, j); err != nil {
			t.Fatal(err)
		}
	}
	// Resume through a gate where every relay hangs: if the fan-out
	// dispatched anything, it would stall (and puncture) pointlessly.
	gate := &relayGate{Provider: r.prov, delayFor: func(int) time.Duration { return -1 }}
	c2, err := New("replete", "123456", r.params, r.fleet, gate)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.ResumeRecovery(tctx, token)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SharesHeld() < r.params.Threshold() {
		t.Fatalf("escrow replay yielded %d shares", s2.SharesHeld())
	}
	start := time.Now()
	if errs := s2.RequestShares(tctx); len(errs) > 0 {
		t.Fatalf("no-op fan-out reported errors: %v", errs)
	}
	if time.Since(start) > time.Second {
		t.Fatal("threshold-met fan-out still waited on the fleet")
	}
	if n := gate.inflight.Load(); n != 0 {
		t.Fatalf("%d relays dispatched despite threshold met", n)
	}
	got, err := s2.Finish(tctx)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("finish: %q %v", got, err)
	}
}

// failingClearEscrow injects an escrow-cleanup failure.
type failingClearEscrow struct {
	Provider
}

func (f failingClearEscrow) ClearEscrow(context.Context, string) error {
	return errors.New("injected escrow outage")
}

// TestFinishSurvivesClearEscrowFailure: once reconstruction succeeds, a
// failing ClearEscrow RPC must not fail the recovery — the ciphertext is
// already punctured everywhere, so dropping the plaintext here would lose
// the backup forever.
func TestFinishSurvivesClearEscrowFailure(t *testing.T) {
	r := newRig(t, 8)
	c, err := New("outage", "123456", r.params, r.fleet, failingClearEscrow{Provider: r.prov})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("survives the cleanup outage")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatalf("recovery failed on escrow cleanup: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext")
	}
}

// TestSessionTokenValidation: malformed or misdirected tokens are
// rejected before any provider interaction that could burn state.
func TestSessionTokenValidation(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "tokens", "123456")
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	s, err := c.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trips through the parser.
	if _, err := parseSessionToken(token); err != nil {
		t.Fatal(err)
	}
	// Wrong user.
	other := r.client(t, "somebody-else", "123456")
	if _, err := other.ResumeRecovery(tctx, token); err == nil {
		t.Fatal("token for another user accepted")
	}
	// Unknown version byte.
	bad := append([]byte(nil), token...)
	bad[0] = 99
	if _, err := c.ResumeRecovery(tctx, bad); err == nil {
		t.Fatal("unknown token version accepted")
	}
	// Truncated.
	if _, err := c.ResumeRecovery(tctx, token[:len(token)/2]); err == nil {
		t.Fatal("truncated token accepted")
	}
	// Trailing garbage.
	if _, err := c.ResumeRecovery(tctx, append(append([]byte(nil), token...), 0xff)); err == nil {
		t.Fatal("token with trailing bytes accepted")
	}
	// Empty.
	if _, err := c.ResumeRecovery(tctx, nil); err == nil {
		t.Fatal("empty token accepted")
	}
}

// TestResumeDetectsSwappedCiphertext: a provider that swaps the stored
// backup after the session began cannot trick the resume path — the
// token's ciphertext hash pins the exact blob the attempt committed to.
func TestResumeDetectsSwappedCiphertext(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "swapped", "123456")
	if err := c.Backup(tctx, []byte("original")); err != nil {
		t.Fatal(err)
	}
	s, err := c.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	// The provider (or the user's own second device) stores a new backup;
	// the session's attempt was committed against the old blob.
	if err := c.Backup(tctx, []byte("replacement backup")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResumeRecovery(tctx, token); err == nil {
		t.Fatal("resume accepted a ciphertext the session never committed to")
	}
}
