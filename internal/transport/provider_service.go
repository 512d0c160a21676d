package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
	"safetypin/internal/provider"
	"safetypin/internal/storage"
)

// ProviderDaemon hosts the untrusted data-center side as a network service.
type ProviderDaemon struct {
	mu       sync.Mutex
	cfg      FleetConfig
	scheme   aggsig.Scheme
	p        *provider.Provider
	fleetPKs [][]byte // BFE public keys by HSM id
	aggPKs   [][]byte
	hsmAddrs map[int]string
	remotes  map[int]*RemoteHSM
	rosterOK bool
}

// DaemonOption configures daemon-local machinery that is not part of the
// wire-negotiated FleetConfig — durable storage above all. Keeping these
// out of FleetConfig matters: FleetConfig rides the wire to HSM daemons
// and clients, and a provider's storage layout is nobody's business but
// its own.
type DaemonOption func(*daemonConfig)

type daemonConfig struct {
	storage       storage.Engine
	snapshotEvery int
	attemptLimit  int
}

// WithStorageEngine journals all provider state through eng, so the
// daemon survives a crash or restart with its log, attempt counters,
// escrow, hosted oracle blocks, and fleet roster intact.
func WithStorageEngine(eng storage.Engine) DaemonOption {
	return func(c *daemonConfig) { c.storage = eng }
}

// WithSnapshotEvery sets the journal compaction cadence in epoch commits
// (0 → provider default; negative disables periodic compaction).
func WithSnapshotEvery(n int) DaemonOption {
	return func(c *daemonConfig) { c.snapshotEvery = n }
}

// WithAttemptLimit makes the provider reject ReserveAttempt calls once a
// user has burned n guesses (provider.ErrAttemptLimit), mirroring the
// HSM-side guess limit at the front door. 0 → unlimited, the daemon's
// historical behavior.
func WithAttemptLimit(n int) DaemonOption {
	return func(c *daemonConfig) { c.attemptLimit = n }
}

// NewProviderDaemon builds the daemon state for a fleet of cfg.NumHSMs.
// With WithStorageEngine the provider state is first recovered from the
// journal, journaled HSM registrations are re-dialed (best effort — an
// HSM daemon that is still down re-registers on its own later), and the
// last committed epoch is re-delivered to HSMs that missed its fan-out.
func NewProviderDaemon(cfg FleetConfig, opts ...DaemonOption) (*ProviderDaemon, error) {
	var dc daemonConfig
	for _, o := range opts {
		o(&dc)
	}
	scheme, err := schemeByName(cfg.SchemeName)
	if err != nil {
		return nil, err
	}
	logCfg := dlog.Config{
		NumChunks:     cfg.LogChunks,
		AuditsPerHSM:  cfg.AuditsPerHSM,
		MinSignerFrac: cfg.MinSignerFrac,
		Deterministic: cfg.Deterministic,
		Scheme:        scheme,
	}
	engine := provider.EngineConfig{
		BatchWindow:   time.Duration(cfg.EpochBatchMS) * time.Millisecond,
		MaxBatch:      cfg.EpochMaxBatch,
		EpochWorkers:  cfg.EpochWorkers,
		EpochInterval: time.Duration(cfg.EpochIntervalMS) * time.Millisecond,
		Storage:       dc.storage,
		SnapshotEvery: dc.snapshotEvery,
		AttemptLimit:  dc.attemptLimit,
	}
	p, err := provider.Open(logCfg, engine)
	if err != nil {
		return nil, err
	}
	d := &ProviderDaemon{
		cfg:      cfg,
		scheme:   scheme,
		p:        p,
		fleetPKs: make([][]byte, cfg.NumHSMs),
		aggPKs:   make([][]byte, cfg.NumHSMs),
		hsmAddrs: make(map[int]string),
		remotes:  make(map[int]*RemoteHSM),
	}
	if dc.storage != nil {
		d.restoreRoster()
		// Catch up any HSM that missed the last epoch's commit fan-out
		// before the crash; HSMs already at the digest reject the
		// duplicate harmlessly.
		p.ResendLastCommit(context.Background())
	}
	return d, nil
}

// restoreRoster re-dials every journaled HSM registration. Failures are
// tolerated: an HSM daemon that is down re-registers itself when it
// comes back, through the same path as at first provisioning.
func (d *ProviderDaemon) restoreRoster() {
	for _, e := range d.p.RecoveredRoster() {
		if e.ID < 0 || e.ID >= d.cfg.NumHSMs {
			continue
		}
		remote, err := NewRemoteHSM(e.ID, e.Addr)
		if err != nil {
			continue
		}
		d.mu.Lock()
		d.fleetPKs[e.ID] = e.BFEPub
		d.aggPKs[e.ID] = e.AggPub
		d.hsmAddrs[e.ID] = e.Addr
		d.remotes[e.ID] = remote
		d.mu.Unlock()
		d.p.Register(remote)
	}
}

// Close stops the daemon's provider engine (standing epoch timer) and,
// with durable storage attached, snapshots and closes the engine.
func (d *ProviderDaemon) Close() error { return d.p.Close() }

// Shutdown is the graceful stop: commit whatever log insertions are
// still pending (so no client's acknowledged-but-uncommitted attempt is
// stranded), then Close. ctx bounds the final epoch; on expiry the
// pending batch is abandoned to the journal's pending-drop recovery path
// and Close proceeds anyway.
func (d *ProviderDaemon) Shutdown(ctx context.Context) error {
	if d.p.PendingLogLen() > 0 {
		// Best effort: a failed or timed-out flush falls through to Close,
		// whose journal recovery drops the never-acknowledged batch.
		_ = d.p.RunEpoch(ctx)
	}
	return d.Close()
}

// Provider exposes the daemon's provider for in-process administrative
// tooling and tests.
func (d *ProviderDaemon) Provider() *provider.Provider { return d.p }

// schemeByName builds the fleet's aggregate-signature scheme from its
// wire-negotiated name.
func schemeByName(name string) (aggsig.Scheme, error) {
	switch name {
	case "", "bls12381-multisig":
		return aggsig.BLS(), nil
	case "ecdsa-concat":
		return aggsig.ECDSAConcat(), nil
	default:
		return nil, fmt.Errorf("transport: unknown signature scheme %q", name)
	}
}

// --- daemon-side service logic ---

func (d *ProviderDaemon) register(args *RegisterArgs) error {
	if args.ID < 0 || args.ID >= d.cfg.NumHSMs {
		return fmt.Errorf("transport: HSM id %d outside fleet of %d", args.ID, d.cfg.NumHSMs)
	}
	remote, err := NewRemoteHSM(args.ID, args.Addr)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.fleetPKs[args.ID] = args.BFEPub
	d.aggPKs[args.ID] = args.AggSigPub
	d.hsmAddrs[args.ID] = args.Addr
	d.remotes[args.ID] = remote
	d.mu.Unlock()
	d.p.Register(remote)
	// Durable before the HSM's registration is acknowledged: a restarted
	// provider re-dials its fleet from the journaled roster.
	return d.p.JournalRoster(provider.RosterEntry{
		ID:     args.ID,
		Addr:   args.Addr,
		BFEPub: args.BFEPub,
		AggPub: args.AggSigPub,
	})
}

func (d *ProviderDaemon) status() FleetStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := FleetStatus{Expected: d.cfg.NumHSMs, RosterSent: d.rosterOK}
	for id := range d.remotes {
		st.Registered = append(st.Registered, id)
	}
	return st
}

func (d *ProviderDaemon) installRosters(ctx context.Context) error {
	d.mu.Lock()
	if len(d.remotes) != d.cfg.NumHSMs {
		n := len(d.remotes)
		d.mu.Unlock()
		return fmt.Errorf("transport: only %d of %d HSMs registered", n, d.cfg.NumHSMs)
	}
	roster := make([][]byte, d.cfg.NumHSMs)
	copy(roster, d.aggPKs)
	remotes := make([]*RemoteHSM, 0, len(d.remotes))
	for _, r := range d.remotes {
		remotes = append(remotes, r)
	}
	d.mu.Unlock()
	for _, r := range remotes {
		if err := r.InstallRoster(ctx, roster); err != nil {
			return err
		}
	}
	d.mu.Lock()
	d.rosterOK = true
	d.mu.Unlock()
	return nil
}

func (d *ProviderDaemon) fleetKeys() ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, pk := range d.fleetPKs {
		if pk == nil {
			return nil, fmt.Errorf("transport: HSM %d not yet registered", id)
		}
	}
	return append([][]byte(nil), d.fleetPKs...), nil
}

// --- v2 wire registry ---

// WireRegistry builds the daemon's v2 dispatch table. Handlers receive the
// per-call context: cancellation (a cancel frame, or the client
// disconnecting) aborts the underlying provider operation, including a
// blocked WaitForCommit and in-flight RelayRecover HSM exchanges.
func (d *ProviderDaemon) WireRegistry() *Registry {
	reg := NewRegistry()
	handleWire(reg, MsgProviderConfig, func(ctx context.Context, _ *Nothing) (*FleetConfig, error) {
		cfg := d.cfg
		return &cfg, nil
	})
	handleWire(reg, MsgOracleGet, func(ctx context.Context, a *OracleArgs) (*BytesReply, error) {
		b, err := d.p.OracleFor(a.HSMID).Get(a.Addr)
		if err != nil {
			return nil, err
		}
		return &BytesReply{B: b}, nil
	})
	handleWire(reg, MsgOraclePut, func(ctx context.Context, a *OracleArgs) (*Nothing, error) {
		return &Nothing{}, d.p.OracleFor(a.HSMID).Put(a.Addr, a.Block)
	})
	handleWire(reg, MsgRegister, func(ctx context.Context, a *RegisterArgs) (*Nothing, error) {
		return &Nothing{}, d.register(a)
	})
	handleWire(reg, MsgStatus, func(ctx context.Context, _ *Nothing) (*FleetStatus, error) {
		st := d.status()
		return &st, nil
	})
	handleWire(reg, MsgInstallRosters, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return &Nothing{}, d.installRosters(ctx)
	})
	handleWire(reg, MsgFetchFleet, func(ctx context.Context, _ *Nothing) (*FleetMsg, error) {
		keys, err := d.fleetKeys()
		if err != nil {
			return nil, err
		}
		return &FleetMsg{Keys: keys}, nil
	})
	handleWire(reg, MsgStoreCiphertext, func(ctx context.Context, a *StoreCiphertextArgs) (*Nothing, error) {
		return &Nothing{}, d.p.StoreCiphertext(ctx, a.User, a.CT)
	})
	handleWire(reg, MsgFetchCiphertext, func(ctx context.Context, a *UserArg) (*BytesReply, error) {
		b, err := d.p.FetchCiphertext(ctx, a.User)
		if err != nil {
			return nil, err
		}
		return &BytesReply{B: b}, nil
	})
	handleWire(reg, MsgAttemptCount, func(ctx context.Context, a *UserArg) (*IntReply, error) {
		n, err := d.p.AttemptCount(ctx, a.User)
		if err != nil {
			return nil, err
		}
		return &IntReply{N: n}, nil
	})
	handleWire(reg, MsgReserveAttempt, func(ctx context.Context, a *UserArg) (*IntReply, error) {
		n, err := d.p.ReserveAttempt(ctx, a.User)
		if err != nil {
			return nil, err
		}
		return &IntReply{N: n}, nil
	})
	handleWire(reg, MsgLogRecoveryAttempt, func(ctx context.Context, a *LogAttemptArgs) (*Nothing, error) {
		return &Nothing{}, d.p.LogRecoveryAttempt(ctx, a.User, a.Attempt, a.Commitment)
	})
	handleWire(reg, MsgRunEpoch, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return &Nothing{}, d.p.RunEpoch(ctx)
	})
	handleWire(reg, MsgWaitForCommit, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return &Nothing{}, d.p.WaitForCommit(ctx)
	})
	handleWire(reg, MsgFetchInclusionProof, func(ctx context.Context, a *InclusionArgs) (*TraceMsg, error) {
		tr, err := d.p.FetchInclusionProof(ctx, a.User, a.Attempt, a.Commitment)
		if err != nil {
			return nil, err
		}
		return &TraceMsg{Trace: *tr}, nil
	})
	handleWire(reg, MsgRelayRecover, func(ctx context.Context, req *protocol.RecoveryRequest) (*RecoverReplyMsg, error) {
		reply, err := d.p.RelayRecover(ctx, req)
		if err != nil {
			return nil, err
		}
		return &RecoverReplyMsg{Reply: *reply}, nil
	})
	handleWire(reg, MsgFetchEscrow, func(ctx context.Context, a *UserArg) (*EscrowMsg, error) {
		replies, err := d.p.FetchEscrowedReplies(ctx, a.User)
		if err != nil {
			return nil, err
		}
		out := &EscrowMsg{}
		for _, r := range replies {
			out.Replies = append(out.Replies, *r)
		}
		return out, nil
	})
	handleWire(reg, MsgClearEscrow, func(ctx context.Context, a *UserArg) (*Nothing, error) {
		return &Nothing{}, d.p.ClearEscrow(ctx, a.User)
	})
	handleWire(reg, MsgLogEntries, func(ctx context.Context, _ *Nothing) (*EntriesMsg, error) {
		return &EntriesMsg{Entries: d.p.LogEntries()}, nil
	})
	handleWire(reg, MsgLogDigest, func(ctx context.Context, _ *Nothing) (*DigestMsg, error) {
		return &DigestMsg{Digest: d.p.LogDigest()}, nil
	})
	return reg
}

// --- client-side proxy (wire v2) ---

// RemoteProvider implements the role-scoped client.Provider interface over
// the v2 wire protocol: every call carries its context, so client-side
// deadlines cancel the matching server-side handler.
type RemoteProvider struct {
	c *Conn
}

var _ client.Provider = (*RemoteProvider)(nil)

// DialProvider connects a client to a provider daemon (wire v2).
func DialProvider(addr string) (*RemoteProvider, error) {
	c, err := DialWire(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteProvider{c: c}, nil
}

// Fleet downloads and parses the fleet's BFE public keys.
func (r *RemoteProvider) Fleet(ctx context.Context) (*bfe.Fleet, error) {
	var raw FleetMsg
	if err := r.c.Call(ctx, MsgFetchFleet, Nothing{}, &raw); err != nil {
		return nil, err
	}
	keys := make([]*bfe.PublicKey, len(raw.Keys))
	for i, b := range raw.Keys {
		pk, err := bfe.PublicKeyFromBytes(b)
		if err != nil {
			return nil, fmt.Errorf("transport: fleet key %d: %w", i, err)
		}
		keys[i] = pk
	}
	return bfe.NewFleet(keys), nil
}

// Config fetches the fleet configuration.
func (r *RemoteProvider) Config(ctx context.Context) (FleetConfig, error) {
	var cfg FleetConfig
	err := r.c.Call(ctx, MsgProviderConfig, Nothing{}, &cfg)
	return cfg, err
}

// StoreCiphertext implements client.BackupStore.
func (r *RemoteProvider) StoreCiphertext(ctx context.Context, user string, ct []byte) error {
	return r.c.Call(ctx, MsgStoreCiphertext, StoreCiphertextArgs{User: user, CT: ct}, nil)
}

// FetchCiphertext implements client.BackupStore.
func (r *RemoteProvider) FetchCiphertext(ctx context.Context, user string) ([]byte, error) {
	var out BytesReply
	if err := r.c.Call(ctx, MsgFetchCiphertext, UserArg{User: user}, &out); err != nil {
		return nil, err
	}
	return out.B, nil
}

// AttemptCount implements client.LogService.
func (r *RemoteProvider) AttemptCount(ctx context.Context, user string) (int, error) {
	var out IntReply
	if err := r.c.Call(ctx, MsgAttemptCount, UserArg{User: user}, &out); err != nil {
		return 0, err
	}
	return out.N, nil
}

// ReserveAttempt implements client.LogService. A reservation mutates state
// the HSM guess limit charges against, so RPC failures surface instead of
// being mistaken for index 0.
func (r *RemoteProvider) ReserveAttempt(ctx context.Context, user string) (int, error) {
	var out IntReply
	if err := r.c.Call(ctx, MsgReserveAttempt, UserArg{User: user}, &out); err != nil {
		return 0, err
	}
	return out.N, nil
}

// LogRecoveryAttempt implements client.LogService.
func (r *RemoteProvider) LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error {
	return r.c.Call(ctx, MsgLogRecoveryAttempt,
		LogAttemptArgs{User: user, Attempt: attempt, Commitment: commitment}, nil)
}

// RunEpoch forces an epoch over everything pending (administrative path;
// clients use WaitForCommit).
func (r *RemoteProvider) RunEpoch(ctx context.Context) error {
	return r.c.Call(ctx, MsgRunEpoch, Nothing{}, nil)
}

// WaitForCommit implements client.LogService. Cancelling ctx sends a
// cancel frame: the daemon unsubscribes the server-side waiter from its
// epoch round, so an abandoned wait leaks nothing on either end.
func (r *RemoteProvider) WaitForCommit(ctx context.Context) error {
	return r.c.Call(ctx, MsgWaitForCommit, Nothing{}, nil)
}

// FetchInclusionProof implements client.LogService.
func (r *RemoteProvider) FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error) {
	var out TraceMsg
	if err := r.c.Call(ctx, MsgFetchInclusionProof,
		InclusionArgs{User: user, Attempt: attempt, Commitment: commitment}, &out); err != nil {
		return nil, err
	}
	return &out.Trace, nil
}

// RelayRecover implements client.RecoveryService. The context rides the
// wire: cancelling aborts the daemon-side relay and its in-flight HSM
// exchange.
func (r *RemoteProvider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	var out RecoverReplyMsg
	if err := r.c.Call(ctx, MsgRelayRecover, req, &out); err != nil {
		return nil, err
	}
	return &out.Reply, nil
}

// FetchEscrowedReplies implements client.RecoveryService.
func (r *RemoteProvider) FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error) {
	var out EscrowMsg
	if err := r.c.Call(ctx, MsgFetchEscrow, UserArg{User: user}, &out); err != nil {
		return nil, err
	}
	replies := make([]*protocol.RecoveryReply, len(out.Replies))
	for i := range out.Replies {
		replies[i] = &out.Replies[i]
	}
	return replies, nil
}

// ClearEscrow implements client.RecoveryService.
func (r *RemoteProvider) ClearEscrow(ctx context.Context, user string) error {
	return r.c.Call(ctx, MsgClearEscrow, UserArg{User: user}, nil)
}

// LogEntries fetches the public log (external auditor path).
func (r *RemoteProvider) LogEntries(ctx context.Context) ([]logtree.Entry, error) {
	var out EntriesMsg
	err := r.c.Call(ctx, MsgLogEntries, Nothing{}, &out)
	return out.Entries, err
}

// LogDigest fetches the provider's committed digest.
func (r *RemoteProvider) LogDigest(ctx context.Context) (logtree.Digest, error) {
	var out DigestMsg
	err := r.c.Call(ctx, MsgLogDigest, Nothing{}, &out)
	return out.Digest, err
}

// Status fetches fleet registration progress.
func (r *RemoteProvider) Status(ctx context.Context) (FleetStatus, error) {
	var st FleetStatus
	err := r.c.Call(ctx, MsgStatus, Nothing{}, &st)
	return st, err
}

// InstallRosters asks the provider to push the signing roster fleet-wide.
func (r *RemoteProvider) InstallRosters(ctx context.Context) error {
	return r.c.Call(ctx, MsgInstallRosters, Nothing{}, nil)
}

// RegisterHSM announces a provisioned HSM daemon (used by cmd/hsmd).
func (r *RemoteProvider) RegisterHSM(ctx context.Context, args RegisterArgs) error {
	return r.c.Call(ctx, MsgRegister, args, nil)
}

// Close tears down the connection.
func (r *RemoteProvider) Close() error { return r.c.Close() }
