package main

// trace.go times each layer from outside, by wrapping the public boundaries
// the deployment already exposes: the client's provider and encryptor
// (client.New), every HSM handle (provider.Provider.Register replaces a
// handle by ID), every HSM's secure-store oracle (hsm.HSM.SwapOracle) and
// the provider's journal (safetypin.WithStorage). No program code changes.
//
// Each backup, recovery or probe is a root span with a request ID; the
// client's provider calls are its children, and an HSM's HandleRecover
// finds its parent through the context the provider passes on from
// RelayRecover. Epoch calls run on the scheduler's own context, so they are
// grouped under one synthetic span per epoch, keyed by the epoch header.
// Oracle and journal calls are only counted and timed. Spans stay in memory
// until the run ends.

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/experiments"
	"safetypin/internal/hsm"
	"safetypin/internal/lhe"
	"safetypin/internal/logtree"
	"safetypin/internal/meter"
	"safetypin/internal/protocol"
	"safetypin/internal/provider"
	"safetypin/internal/securestore"
	"safetypin/internal/simtime"
	"safetypin/internal/storage"
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	// HSM is the fleet index of an HSM call, -1 for other spans.
	HSM int `json:"hsm"`
	// Epoch is the log epoch of an epoch call or epoch span.
	Epoch uint64 `json:"epoch,omitempty"`
	// Entries is the number of log insertions an epoch committed.
	Entries int    `json:"entries,omitempty"`
	Err     string `json:"err,omitempty"`
	// SoloKeyS is the metered work of an HSM call priced on the paper's
	// SoloKey, in seconds.
	SoloKeyS float64 `json:"solokey_s,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// counter accumulates calls, busy time and bytes at one boundary.
type counter struct {
	n, ns, bytes atomic.Int64
}

func (c *counter) add(d time.Duration, bytes int) {
	c.n.Add(1)
	c.ns.Add(int64(d))
	c.bytes.Add(int64(bytes))
}

func (c *counter) busyMS() float64 { return float64(c.ns.Load()) / 1e6 }

// recordKinds names the journal record kinds the provider writes on these
// workloads; anything else is counted as "other".
var recordKinds = []string{"attempt", "ciphertext", "log_insert", "epoch_commit", "escrow", "escrow_clear", "oracle_put", "other"}

func recordKind(rec storage.Record) int {
	switch rec.(type) {
	case *storage.AttemptRecord:
		return 0
	case *storage.CiphertextRecord:
		return 1
	case *storage.LogInsertRecord:
		return 2
	case *storage.EpochCommitRecord:
		return 3
	case *storage.EscrowRecord:
		return 4
	case *storage.EscrowClearRecord:
		return 5
	case *storage.OraclePutRecord:
		return 6
	default:
		return 7
	}
}

// tracer collects spans and boundary counters for one traced phase. A nil
// *tracer records nothing.
type tracer struct {
	t0   time.Time
	ids  atomic.Uint64
	reqs atomic.Uint64

	mu      sync.Mutex
	spans   []span
	epochs  map[uint64]uint64 // epoch number → epoch span ID
	entries map[uint64]int    // epoch number → log insertions
	syncs   *experiments.Histogram

	encrypt              counter
	oracleGet, oraclePut counter
	appends              []counter // indexed like recordKinds
	snapshots            counter
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		epochs:  make(map[uint64]uint64),
		entries: make(map[uint64]int),
		syncs:   experiments.NewHistogram(),
		appends: make([]counter, len(recordKinds)),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanCtx is the span a context carries.
type spanCtx struct{ id, req uint64 }

type spanKey struct{}

func parentOf(ctx context.Context) spanCtx {
	p, _ := ctx.Value(spanKey{}).(spanCtx)
	return p
}

func noEnd(error) {}

// root starts the top span of a new request.
func (t *tracer) root(ctx context.Context, name string) (context.Context, func(error)) {
	if t == nil {
		return ctx, noEnd
	}
	return t.begin(ctx, name, spanCtx{req: t.reqs.Add(1)})
}

// child starts a span under the span ctx carries, if any.
func (t *tracer) child(ctx context.Context, name string) (context.Context, func(error)) {
	if t == nil {
		return ctx, noEnd
	}
	return t.begin(ctx, name, parentOf(ctx))
}

func (t *tracer) begin(ctx context.Context, name string, parent spanCtx) (context.Context, func(error)) {
	s := span{Name: name, ID: t.ids.Add(1), Parent: parent.id, Req: parent.req, HSM: -1, Start: t.now()}
	ctx = context.WithValue(ctx, spanKey{}, spanCtx{id: s.ID, req: s.Req})
	return ctx, func(err error) {
		s.End = t.now()
		if err != nil {
			s.Err = err.Error()
		}
		t.record(s)
	}
}

// epochSpan returns the ID of the span grouping an epoch's HSM calls.
func (t *tracer) epochSpan(hdr dlog.EpochHeader) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.epochs[hdr.Epoch]
	if !ok {
		id = t.ids.Add(1)
		t.epochs[hdr.Epoch] = id
		t.entries[hdr.Epoch] = hdr.NumEntry
	}
	return id
}

// finish closes the epoch spans (each covers its calls) and returns every
// span of the phase.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := make(map[uint64]*span, len(t.epochs))
	for _, s := range t.spans {
		if s.HSM < 0 || s.Name == "hsm.recover" {
			continue
		}
		e := ep[s.Epoch]
		if e == nil {
			e = &span{Name: "epoch", ID: t.epochs[s.Epoch], HSM: -1, Epoch: s.Epoch, Entries: t.entries[s.Epoch], Start: s.Start, End: s.End}
			ep[s.Epoch] = e
		}
		e.Start = min(e.Start, s.Start)
		e.End = max(e.End, s.End)
	}
	out := append([]span(nil), t.spans...)
	for _, e := range ep {
		out = append(out, *e)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// --- client side ---

// clientProvider is the clients' view of the provider. It remembers a hash
// of the newest ciphertext each user stored, for the probe check, and in a
// traced phase records a child span per call.
type clientProvider struct {
	inner client.Provider
	tr    *atomic.Pointer[tracer]

	mu     sync.Mutex
	latest map[string][32]byte
}

var _ client.Provider = (*clientProvider)(nil)

func (p *clientProvider) span(ctx context.Context, name string) (context.Context, func(error)) {
	return p.tr.Load().child(ctx, name)
}

// stored returns the hash of the newest ciphertext a user stored.
func (p *clientProvider) stored(user string) ([32]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.latest[user]
	return h, ok
}

func (p *clientProvider) StoreCiphertext(ctx context.Context, user string, ct []byte) error {
	ctx, end := p.span(ctx, "provider.store_ciphertext")
	err := p.inner.StoreCiphertext(ctx, user, ct)
	end(err)
	if err == nil {
		// Ops on one user are serialized by the workloads, so the last
		// store to return is the newest.
		h := hashBlob(ct)
		p.mu.Lock()
		p.latest[user] = h
		p.mu.Unlock()
	}
	return err
}

func (p *clientProvider) FetchCiphertext(ctx context.Context, user string) ([]byte, error) {
	ctx, end := p.span(ctx, "provider.fetch_ciphertext")
	out, err := p.inner.FetchCiphertext(ctx, user)
	end(err)
	return out, err
}

func (p *clientProvider) AttemptCount(ctx context.Context, user string) (int, error) {
	ctx, end := p.span(ctx, "provider.attempt_count")
	n, err := p.inner.AttemptCount(ctx, user)
	end(err)
	return n, err
}

func (p *clientProvider) ReserveAttempt(ctx context.Context, user string) (int, error) {
	ctx, end := p.span(ctx, "provider.reserve_attempt")
	n, err := p.inner.ReserveAttempt(ctx, user)
	end(err)
	return n, err
}

func (p *clientProvider) LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error {
	ctx, end := p.span(ctx, "provider.log_recovery_attempt")
	err := p.inner.LogRecoveryAttempt(ctx, user, attempt, commitment)
	end(err)
	return err
}

func (p *clientProvider) WaitForCommit(ctx context.Context) error {
	ctx, end := p.span(ctx, "provider.wait_for_commit")
	err := p.inner.WaitForCommit(ctx)
	end(err)
	return err
}

func (p *clientProvider) FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error) {
	ctx, end := p.span(ctx, "provider.fetch_inclusion_proof")
	out, err := p.inner.FetchInclusionProof(ctx, user, attempt, commitment)
	end(err)
	return out, err
}

func (p *clientProvider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	ctx, end := p.span(ctx, "provider.relay_recover")
	out, err := p.inner.RelayRecover(ctx, req)
	end(err)
	return out, err
}

func (p *clientProvider) FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error) {
	ctx, end := p.span(ctx, "provider.fetch_escrowed_replies")
	out, err := p.inner.FetchEscrowedReplies(ctx, user)
	end(err)
	return out, err
}

func (p *clientProvider) ClearEscrow(ctx context.Context, user string) error {
	ctx, end := p.span(ctx, "provider.clear_escrow")
	err := p.inner.ClearEscrow(ctx, user)
	end(err)
	return err
}

// providerMethods lists the client.Provider methods by span name suffix.
var providerMethods = []string{
	"store_ciphertext", "fetch_ciphertext", "attempt_count", "reserve_attempt",
	"log_recovery_attempt", "wait_for_commit", "fetch_inclusion_proof",
	"relay_recover", "fetch_escrowed_replies", "clear_escrow",
}

// clientFleet counts and times the client's share encryptions. EncryptTo
// takes no context, so these are not spans.
type clientFleet struct {
	inner lhe.Encryptor
	tr    *atomic.Pointer[tracer]
}

func (f *clientFleet) EncryptTo(index int, msg, ad []byte, rng io.Reader) ([]byte, error) {
	t := f.tr.Load()
	if t == nil {
		return f.inner.EncryptTo(index, msg, ad, rng)
	}
	start := time.Now()
	out, err := f.inner.EncryptTo(index, msg, ad, rng)
	t.encrypt.add(time.Since(start), 0)
	return out, err
}

// --- HSM side ---

// tracedHSM records a span per HSM exchange and prices the exchange's
// metered work on the SoloKey. Concurrent exchanges at one HSM share its
// meter, so their counts may mix; the counts are reported, never gated.
type tracedHSM struct {
	h  *hsm.HSM
	tr *tracer
}

var _ provider.HSMHandle = (*tracedHSM)(nil)

func (h *tracedHSM) ID() int { return h.h.ID() }

func (h *tracedHSM) call(s span, fn func() error) error {
	before := h.h.Meter().Snapshot()
	s.HSM = h.h.ID()
	s.ID = h.tr.ids.Add(1)
	s.Start = h.tr.now()
	err := fn()
	s.End = h.tr.now()
	if err != nil {
		s.Err = err.Error()
	}
	after := h.h.Meter().Snapshot()
	for op, n := range before {
		after[op] -= n
	}
	s.SoloKeyS = simtime.CostOf(after, simtime.SoloKey()).Total()
	h.tr.record(s)
	return err
}

func (h *tracedHSM) epochCall(name string, hdr dlog.EpochHeader, fn func() error) error {
	return h.call(span{Name: name, Parent: h.tr.epochSpan(hdr), Epoch: hdr.Epoch}, fn)
}

func (h *tracedHSM) LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error) {
	var out []int
	err := h.epochCall("hsm.choose", hdr, func() (err error) {
		out, err = h.h.LogChooseChunks(ctx, hdr)
		return err
	})
	return out, err
}

func (h *tracedHSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	var out []byte
	err := h.epochCall("hsm.audit", pkg.Header, func() (err error) {
		out, err = h.h.LogHandleAudit(ctx, pkg)
		return err
	})
	return out, err
}

func (h *tracedHSM) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	return h.epochCall("hsm.commit", cm.Header, func() error {
		return h.h.LogHandleCommit(ctx, cm)
	})
}

func (h *tracedHSM) HandleRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	p := parentOf(ctx)
	var out *protocol.RecoveryReply
	err := h.call(span{Name: "hsm.recover", Parent: p.id, Req: p.req}, func() (err error) {
		out, err = h.h.HandleRecover(ctx, req)
		return err
	})
	return out, err
}

// tracedOracle counts and times one HSM's secure-store block traffic.
type tracedOracle struct {
	inner securestore.Oracle
	tr    *tracer
}

func (o *tracedOracle) Get(addr uint64) ([]byte, error) {
	start := time.Now()
	b, err := o.inner.Get(addr)
	o.tr.oracleGet.add(time.Since(start), len(b))
	return b, err
}

func (o *tracedOracle) Put(addr uint64, block []byte) error {
	start := time.Now()
	err := o.inner.Put(addr, block)
	o.tr.oraclePut.add(time.Since(start), len(block))
	return err
}

// --- journal ---

// tracedEngine counts and times the provider's journal traffic while a
// tracer is set; otherwise it passes calls straight through. The journal
// is fixed at construction, so a traced run wraps it from the start.
type tracedEngine struct {
	storage.Engine
	tr atomic.Pointer[tracer]
}

func (e *tracedEngine) Append(rec storage.Record) (uint64, error) {
	t := e.tr.Load()
	if t == nil {
		return e.Engine.Append(rec)
	}
	start := time.Now()
	seq, err := e.Engine.Append(rec)
	d := time.Since(start)
	t.appends[recordKind(rec)].add(d, len(storage.EncodeRecord(rec)))
	return seq, err
}

func (e *tracedEngine) Sync() error {
	t := e.tr.Load()
	if t == nil {
		return e.Engine.Sync()
	}
	start := time.Now()
	err := e.Engine.Sync()
	d := time.Since(start)
	t.mu.Lock()
	t.syncs.Record(d)
	t.mu.Unlock()
	return err
}

func (e *tracedEngine) WriteSnapshot(snap *storage.Snapshot) error {
	t := e.tr.Load()
	if t == nil {
		return e.Engine.WriteSnapshot(snap)
	}
	start := time.Now()
	err := e.Engine.WriteSnapshot(snap)
	t.snapshots.add(time.Since(start), 0)
	return err
}

// meterOps are the metered operations reported per recovery.
var meterOps = []meter.Op{
	meter.OpPairing, meter.OpMillerLoop, meter.OpFinalExp, meter.OpBLSSign,
	meter.OpECMul, meter.OpAES32, meter.OpIOByte,
}
