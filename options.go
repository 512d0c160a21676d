package safetypin

// options.go is the functional-options construction path: safetypin.New
// replaces zero-value-sentinel Params fields with explicit options, so a
// caller states exactly what deviates from the paper's defaults —
//
//	d, err := safetypin.New(
//		safetypin.WithFleet(96),
//		safetypin.WithGuessLimit(5),
//		safetypin.WithEngine(provider.EngineConfig{EpochInterval: 10 * time.Minute}),
//	)
//
// The Params struct remains the documented escape hatch (NewDeployment)
// for callers that build configuration programmatically, and WithParams
// lets the two styles mix.

import (
	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/provider"
	"safetypin/internal/storage"
)

// Option configures a Deployment under construction.
type Option func(*Params)

// New provisions a fleet from functional options. Unset values follow the
// paper's rules (cluster min(40, N), threshold n/2, one guess, BLS
// multisignatures); the fleet size itself has no default — set it with
// WithFleet or WithParams.
func New(opts ...Option) (*Deployment, error) {
	var p Params
	for _, o := range opts {
		o(&p)
	}
	return NewDeployment(p)
}

// WithParams seeds the configuration from a full Params value; later
// options override individual fields. This is the bridge for callers
// migrating from the struct style.
func WithParams(base Params) Option {
	return func(p *Params) { *p = base }
}

// WithFleet sets N, the data-center fleet size.
func WithFleet(n int) Option {
	return func(p *Params) { p.NumHSMs = n }
}

// WithCluster sets n, the hidden recovery cluster size (paper rule when
// unset: min(40, N)).
func WithCluster(n int) Option {
	return func(p *Params) { p.ClusterSize = n }
}

// WithThreshold sets t, the shares needed to recover (default n/2).
func WithThreshold(t int) Option {
	return func(p *Params) { p.Threshold = t }
}

// WithBFE sizes each HSM's puncturable Bloom-filter key.
func WithBFE(b bfe.Params) Option {
	return func(p *Params) { p.BFE = b }
}

// WithLogChunks sets the number of audit chunks per log epoch (default N).
func WithLogChunks(chunks int) Option {
	return func(p *Params) { p.LogChunks = chunks }
}

// WithAuditsPerHSM sets C, the chunks each HSM audits per epoch.
func WithAuditsPerHSM(c int) Option {
	return func(p *Params) { p.AuditsPerHSM = c }
}

// WithQuorum sets the fraction of the fleet that must co-sign an epoch
// (default 0.75).
func WithQuorum(frac float64) Option {
	return func(p *Params) { p.MinSignerFrac = frac }
}

// WithGuessLimit sets the per-user recovery-attempt budget (default 1).
func WithGuessLimit(n int) Option {
	return func(p *Params) { p.GuessLimit = n }
}

// WithScheme selects the aggregate-signature scheme (default BLS
// multisignatures; aggsig.ECDSAConcat() is the linear-cost ablation).
func WithScheme(s aggsig.Scheme) Option {
	return func(p *Params) { p.Scheme = s }
}

// WithDeterministicAudit selects Appendix B.3 chunk assignment.
func WithDeterministicAudit() Option {
	return func(p *Params) { p.DeterministicAudit = true }
}

// WithMetered attaches per-HSM operation meters for the evaluation
// harness.
func WithMetered() Option {
	return func(p *Params) { p.Metered = true }
}

// WithEngine tunes the provider's concurrency machinery: epoch batching
// window, batch-size trigger, standing epoch timer, audit fan-out pool
// width, lock striping.
func WithEngine(e provider.EngineConfig) Option {
	return func(p *Params) { p.Engine = e }
}

// WithStorage journals all provider-side state — the distributed log,
// attempt counters, ciphertexts, escrow, hosted oracle blocks — through
// eng, so the (untrusted, crashable) provider recovers its state on
// reopen. storage.NewMem is the test engine; storage.OpenFile the
// WAL+snapshot production engine. Composes with WithEngine when the
// engine option is applied first.
func WithStorage(eng storage.Engine) Option {
	return func(p *Params) { p.Engine.Storage = eng }
}

// WithSnapshotEvery sets the journal compaction cadence in epoch commits
// (default 8; negative disables periodic compaction — a snapshot is
// still written on Close).
func WithSnapshotEvery(n int) Option {
	return func(p *Params) { p.Engine.SnapshotEvery = n }
}
