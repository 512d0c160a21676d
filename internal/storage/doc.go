// Package storage is the provider's durability layer: a pluggable
// write-ahead journal that records every externally visible state change
// the provider makes — attempt reservations, ciphertext stores, log
// insertions, epoch commits, escrow traffic, outsourced-oracle blocks,
// and the HSM roster — so that a crashed provider can rebuild its exact
// in-memory state by replay.
//
// # Why a journal, and why here
//
// Every security argument in SafetyPin (§4–§6 of the paper) leans on the
// provider's state being durable. The sharpest case is the per-user
// guess limit: if a crash resets attempt counters, an attacker earns
// unlimited free PIN guesses simply by power-cycling the provider. The
// journal therefore follows one rule — a state change that has been
// acknowledged to a client must already be recoverable — and splits
// records into two durability classes:
//
//   - synced-before-ack: attempt reservations, ciphertext stores, epoch
//     commits, roster changes. The caller's Append is followed by Sync
//     before the RPC returns.
//   - write-only: log insertions, oracle block writes, and escrow
//     stores/clears. These are appended immediately (so ordering is
//     preserved and any process kill keeps them) but only forced to
//     stable media at the next epoch-commit barrier, keeping the hot
//     path at one fsync per epoch rather than one per relayed share.
//     Escrow tolerates the power-loss sliver before that barrier
//     because the client still holds the just-served reply in hand —
//     escrow guards against the client's crash, not the same instant's
//     double crash.
//
// # Record format
//
// Records use a hand-rolled, versioned binary codec (no reflection, no
// gob) framed for append-only logs:
//
//	frame   := len(u32) ‖ crc32c(u32) ‖ payload
//	payload := kind(u8) ‖ seq(u64) ‖ body
//
// The CRC is Castagnoli over the payload. A reader stops at the first
// frame that is short or fails its CRC: on the write-ahead log this is
// the torn tail of an interrupted append and is truncated away;
// anywhere else it is corruption and surfaces as ErrCorrupt. Decoding is
// strict — every body decoder bounds-checks and rejects trailing bytes —
// so corrupted input can error but never panic (see FuzzDecodeFrame).
//
// # Engines
//
// Two Engine implementations share the codec:
//
//   - MemEngine keeps frames in memory. It is the default for tests and
//     doubles as a crash simulator: the engine outlives the Provider
//     that wrote it, and CrashClone returns a copy holding only the
//     records a power loss would have preserved.
//   - FileEngine is the production WAL + snapshot engine: an append-only
//     wal.log with group-committed fsync, periodically compacted into an
//     atomically renamed snapshot file; replay is snapshot + WAL tail.
//
// FaultEngine wraps either of them for the crash/restart harness, tripping
// injected failures at configurable append/sync counts; TornTail and
// CorruptTail perform byte-level surgery on a FileEngine's WAL to model
// torn and partially flushed writes.
package storage
