package safetypin

// options.go is the functional-options construction path: safetypin.New
// replaces zero-value-sentinel Params fields with explicit options, so a
// caller states exactly what deviates from the paper's defaults —
//
//	d, err := safetypin.New(
//		safetypin.WithFleet(96),
//		safetypin.WithGuessLimit(5),
//		safetypin.WithStorage(eng),
//	)
//
// The Params struct remains the documented escape hatch (NewDeployment)
// for callers that build configuration programmatically; it sets every
// field, including those no option covers (log chunking, quorum, the
// provider's EngineConfig).

import (
	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/storage"
)

// Option configures a Deployment under construction.
type Option func(*Params)

// New provisions a fleet from functional options. Unset values follow the
// paper's rules (cluster min(40, N), threshold n/2, one guess, BLS
// multisignatures); the fleet size itself has no default — set it with
// WithFleet.
func New(opts ...Option) (*Deployment, error) {
	var p Params
	for _, o := range opts {
		o(&p)
	}
	return NewDeployment(p)
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

// WithGuessLimit sets the per-user recovery-attempt budget (default 1).
func WithGuessLimit(n int) Option {
	return func(p *Params) { p.GuessLimit = n }
}

// WithScheme selects the aggregate-signature scheme (default BLS
// multisignatures; aggsig.ECDSAConcat() is the linear-cost ablation).
func WithScheme(s aggsig.Scheme) Option {
	return func(p *Params) { p.Scheme = s }
}

// WithMetered attaches per-HSM operation meters for the evaluation
// harness.
func WithMetered() Option {
	return func(p *Params) { p.Metered = true }
}

// WithStorage journals all provider-side state — the distributed log,
// attempt counters, ciphertexts, escrow, hosted oracle blocks — through
// eng, so the (untrusted, crashable) provider recovers its state on
// reopen. storage.NewMem is the test engine; storage.OpenFile the
// WAL+snapshot production engine.
func WithStorage(eng storage.Engine) Option {
	return func(p *Params) { p.Engine.Storage = eng }
}
