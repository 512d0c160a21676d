// Package transport runs SafetyPin's entities as separate OS processes
// connected over TCP, standing in for the paper's USB fabric between the
// host and its SoloKeys (and the data-center network between clients and
// the provider).
//
// The wire protocol (v2, wire.go) is a framed, context-aware RPC layer:
// a 4-byte magic + 1-byte version handshake, then length-prefixed frames
// carrying per-message type tags and gob payloads. Deadlines and
// cancellation propagate: a client that cancels a call sends a cancel
// frame that aborts the matching server-side handler, and a dropped
// connection aborts every in-flight handler on that connection. A
// connection that does not open with the magic and version 2 is closed;
// golden wire tests pin the handshake and the frame bytes.
//
// Three roles:
//
//   - the provider daemon (cmd/providerd) hosts the provider service:
//     client API, per-HSM outsourced block storage, HSM registration, and
//     log epochs;
//   - each HSM daemon (cmd/hsmd) hosts the HSM service and stores its
//     outsourced key array *back at the provider* through RemoteOracle —
//     the HSM process holds only its root key, exactly like the hardware;
//   - the client CLI (cmd/safetypin) talks to the provider through
//     RemoteProvider, which implements the same role-scoped
//     client.Provider interface as the in-process provider.
//
// Trust note: FetchFleet hands clients the HSM public keys through the
// provider. The paper (§2) is explicit that clients must obtain authentic
// HSM keys out of band (hardware attestation or the transparency log); a
// production deployment would pin them. The transport exposes the fleet
// digest so callers can compare against an out-of-band value.
package transport
