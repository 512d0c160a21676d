package transport

import (
	"errors"
	"io"
	"net"
	"time"

	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
)

// acceptRetryDelay is how long the accept loop backs off after a
// transient Accept failure (EMFILE, ECONNABORTED, …) before trying again.
const acceptRetryDelay = 50 * time.Millisecond

// Serve starts a v2 server for reg on addr and returns the listener
// (close it to stop) plus the bound address. A connection that does not
// open with the SPRC magic and version 2 is closed.
func Serve(reg *Registry, addr string) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go serve(ln, reg)
	return ln, ln.Addr().String(), nil
}

// serve is the accept loop. Only a closed listener ends it: any other
// Accept error is transient, so the loop backs off and keeps accepting
// instead of leaving an open listener that never answers.
func serve(ln net.Listener, reg *Registry) {
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			time.Sleep(acceptRetryDelay)
			continue
		}
		go routeConn(conn, reg)
	}
}

// routeConn runs the v2 handshake on one accepted connection, then hands
// it to the framed protocol. A client that sends anything but the magic
// is dropped without a reply; a client offering another version gets the
// reject byte 0.
func routeConn(conn net.Conn, reg *Registry) {
	var magic [len(wireMagic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || magic != wireMagic {
		conn.Close()
		return
	}
	var version [1]byte
	if _, err := io.ReadFull(conn, version[:]); err != nil {
		conn.Close()
		return
	}
	if version[0] != WireV2 {
		_, _ = conn.Write([]byte{0})
		conn.Close()
		return
	}
	if _, err := conn.Write([]byte{WireV2}); err != nil {
		conn.Close()
		return
	}
	serveWire(conn, reg)
}

// --- shared message types ---

// Nothing is a placeholder for empty args/replies.
type Nothing struct{}

// StoreCiphertextArgs carries a backup upload.
type StoreCiphertextArgs struct {
	User string
	CT   []byte
}

// UserArg names a user for single-argument RPCs.
type UserArg struct {
	User string
}

// IntReply carries a single integer result.
type IntReply struct {
	N int
}

// BytesReply carries a single opaque byte-string result.
type BytesReply struct {
	B []byte
}

// LogAttemptArgs carries a recovery-attempt insertion.
type LogAttemptArgs struct {
	User       string
	Attempt    int
	Commitment []byte
}

// InclusionArgs requests a log-inclusion proof.
type InclusionArgs struct {
	User       string
	Attempt    int
	Commitment []byte
}

// OracleArgs addresses one outsourced block of one HSM.
type OracleArgs struct {
	HSMID int
	Addr  uint64
	Block []byte // Put only
}

// RegisterArgs announces a freshly provisioned HSM daemon.
type RegisterArgs struct {
	ID        int
	Addr      string // where the HSM daemon's HSM service listens
	BFEPub    []byte
	AggSigPub []byte
}

// FleetConfig is the fleet-wide configuration the provider hands to HSM
// daemons at startup so all replicas agree on parameters.
type FleetConfig struct {
	NumHSMs       int
	ClusterSize   int
	Threshold     int
	BFEM          int
	BFEK          int
	LogChunks     int
	AuditsPerHSM  int
	MinSignerFrac float64
	GuessLimit    int
	SchemeName    string // "bls12381-multisig" or "ecdsa-concat"
	Deterministic bool

	// Provider-engine tuning (zero values → provider defaults): how long
	// the epoch scheduler gathers concurrent log insertions, the size
	// trigger that commits early, the audit fan-out pool width, and the
	// standing epoch timer cadence for daemons with no blocked waiters.
	EpochBatchMS    int
	EpochMaxBatch   int
	EpochWorkers    int
	EpochIntervalMS int
}

// FleetStatus reports registration progress.
type FleetStatus struct {
	Expected   int
	Registered []int
	RosterSent bool
}

// FleetMsg wraps the fleet public-key download.
type FleetMsg struct {
	Keys [][]byte
}

// RosterMsg wraps a signing-roster install.
type RosterMsg struct {
	Roster [][]byte
}

// ChunksMsg wraps an HSM's audit-chunk assignment.
type ChunksMsg struct {
	Chunks []int
}

// EpochHeaderMsg wraps an epoch header.
type EpochHeaderMsg struct {
	Hdr dlog.EpochHeader
}

// RecoverReplyMsg wraps a recovery reply.
type RecoverReplyMsg struct {
	Reply protocol.RecoveryReply
}

// EscrowMsg wraps the escrowed-reply download.
type EscrowMsg struct {
	Replies []protocol.RecoveryReply
}

// TraceMsg wraps a log trace.
type TraceMsg struct {
	Trace logtree.Trace
}

// EntriesMsg wraps a committed-log snapshot.
type EntriesMsg struct {
	Entries []logtree.Entry
}

// DigestMsg wraps the provider's committed digest.
type DigestMsg struct {
	Digest logtree.Digest
}

// AuditPackageMsg wraps an epoch audit package.
type AuditPackageMsg struct {
	Pkg dlog.AuditPackage
}

// CommitMsg wraps an epoch commit.
type CommitMsg struct {
	CM dlog.CommitMessage
}
