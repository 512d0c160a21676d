package transport

// wire_test.go pins the wire protocol: golden bytes for the v2 handshake
// and frame layout (so v2 can't silently drift), the refusal of clients
// that do not speak v2, the frame decoder under arbitrary input
// (FuzzReadFrame), and the cancellation semantics — a client-side
// deadline aborts the matching server-side handler, and a dropped
// connection aborts everything in flight.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"safetypin/internal/protocol"
)

// --- golden framing ---

// TestWireGoldenHandshake pins the 5-byte v2 preamble and the server's
// accept byte.
func TestWireGoldenHandshake(t *testing.T) {
	pre := append(append([]byte(nil), wireMagic[:]...), WireV2)
	if got, want := hex.EncodeToString(pre), "5350524302"; got != want {
		t.Fatalf("v2 preamble drifted: %s want %s", got, want)
	}
	if WireV2 != 2 {
		t.Fatal("protocol version numbering drifted")
	}
}

// goldenFrames builds the representative v2 frames the golden test pins.
// Gob allocates type descriptors process-globally in first-use order, so
// byte-exact output requires a process that has encoded nothing else —
// TestWireGoldenFrames reruns itself in a clean child process for that.
func goldenFrames() []struct{ name, hex string } {
	mustEnc := func(v any) []byte {
		b, err := encodeGob(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	return []struct{ name, hex string }{
		{"store-call", hex.EncodeToString(appendFrame(nil, frameCall, MsgStoreCiphertext, 7,
			mustEnc(StoreCiphertextArgs{User: "alice", CT: []byte{1, 2, 3}})))},
		{"fetch-call", hex.EncodeToString(appendFrame(nil, frameCall, MsgFetchCiphertext, 8,
			mustEnc(UserArg{User: "alice"})))},
		{"reply", hex.EncodeToString(appendFrame(nil, frameReply, MsgFetchCiphertext, 8,
			mustEnc(wireReply{Body: []byte{0xaa}})))},
		{"cancel", hex.EncodeToString(appendFrame(nil, frameCancel, MsgRelayRecover, 9, nil))},
	}
}

// wireGolden is the frozen v2 framing: header layout (kind | msg tag | id
// | length) and the standalone-gob payload encoding. If any of these
// bytes change, the protocol version must be bumped instead.
var wireGolden = map[string]string{
	"store-call": "01170000000700000041307f0301011353746f7265436970686572746578744172677301ff80000102010455736572010c0001024354010a0000000fff800105616c696365010301020300",
	"fetch-call": "0118000000080000002a1eff81030101075573657241726701ff82000101010455736572010c0000000aff820105616c69636500",
	"reply":      "0218000000080000003028ff8303010109776972655265706c7901ff840001020103457272010c000104426f6479010a00000006ff840201aa00",
	"cancel":     "031f0000000900000000",
}

// TestWireGoldenFrames pins the exact frame bytes against wireGolden. The
// byte comparison runs in a freshly forked child (clean gob state); the
// parent additionally checks the frames round-trip through readFrame.
func TestWireGoldenFrames(t *testing.T) {
	if os.Getenv("WIRE_GOLDEN_CHILD") == "1" {
		for _, f := range goldenFrames() {
			fmt.Printf("GOLDEN %s %s\n", f.name, f.hex)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWireGoldenFrames$", "-test.v")
	cmd.Env = append(os.Environ(), "WIRE_GOLDEN_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("golden child failed: %v\n%s", err, out)
	}
	seen := 0
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "GOLDEN" {
			continue
		}
		seen++
		name, got := fields[1], fields[2]
		if want, ok := wireGolden[name]; !ok || got != want {
			t.Errorf("%s frame drifted:\n got %s\nwant %s", name, got, want)
		}
	}
	if seen != len(wireGolden) {
		t.Fatalf("child emitted %d frames, want %d:\n%s", seen, len(wireGolden), out)
	}

	// In this (dirty) process the payload type ids may differ, but every
	// frame must still round-trip through the reader, and the golden
	// payloads must decode with a fresh decoder — self-contained frames.
	var stream bytes.Buffer
	for _, f := range goldenFrames() {
		raw, err := hex.DecodeString(f.hex)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(raw)
	}
	for _, f := range goldenFrames() {
		kind, msg, id, payload, err := readFrame(&stream)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := hex.EncodeToString(appendFrame(nil, kind, msg, id, payload)); got != f.hex {
			t.Fatalf("%s did not round-trip", f.name)
		}
	}
	var store StoreCiphertextArgs
	raw, _ := hex.DecodeString(wireGolden["store-call"])
	if err := decodeGob(raw[wireHeaderLen:], &store); err != nil {
		t.Fatalf("frozen v2 payload no longer parses: %v", err)
	}
	if store.User != "alice" || !bytes.Equal(store.CT, []byte{1, 2, 3}) {
		t.Fatalf("frozen v2 payload decoded wrong: %+v", store)
	}
}

// TestWireMessageTagsFrozen pins the tag assignments: tags are the wire
// contract, append-only.
func TestWireMessageTagsFrozen(t *testing.T) {
	frozen := map[string]byte{
		"ProviderConfig": 0x10, "OracleGet": 0x11, "OraclePut": 0x12,
		"Register": 0x13, "Status": 0x14, "InstallRosters": 0x15,
		"FetchFleet": 0x16, "StoreCiphertext": 0x17, "FetchCiphertext": 0x18,
		"AttemptCount": 0x19, "ReserveAttempt": 0x1a, "LogRecoveryAttempt": 0x1b,
		"RunEpoch": 0x1c, "WaitForCommit": 0x1d, "FetchInclusionProof": 0x1e,
		"RelayRecover": 0x1f, "FetchEscrow": 0x20, "ClearEscrow": 0x21,
		"LogEntries": 0x22, "LogDigest": 0x23,
		"HSMRecover": 0x30, "HSMInstallRoster": 0x31, "HSMChooseChunks": 0x32,
		"HSMHandleAudit": 0x33, "HSMHandleCommit": 0x34,
	}
	got := map[string]byte{
		"ProviderConfig": MsgProviderConfig, "OracleGet": MsgOracleGet, "OraclePut": MsgOraclePut,
		"Register": MsgRegister, "Status": MsgStatus, "InstallRosters": MsgInstallRosters,
		"FetchFleet": MsgFetchFleet, "StoreCiphertext": MsgStoreCiphertext, "FetchCiphertext": MsgFetchCiphertext,
		"AttemptCount": MsgAttemptCount, "ReserveAttempt": MsgReserveAttempt, "LogRecoveryAttempt": MsgLogRecoveryAttempt,
		"RunEpoch": MsgRunEpoch, "WaitForCommit": MsgWaitForCommit, "FetchInclusionProof": MsgFetchInclusionProof,
		"RelayRecover": MsgRelayRecover, "FetchEscrow": MsgFetchEscrow, "ClearEscrow": MsgClearEscrow,
		"LogEntries": MsgLogEntries, "LogDigest": MsgLogDigest,
		"HSMRecover": MsgHSMRecover, "HSMInstallRoster": MsgHSMInstallRoster, "HSMChooseChunks": MsgHSMChooseChunks,
		"HSMHandleAudit": MsgHSMHandleAudit, "HSMHandleCommit": MsgHSMHandleCommit,
	}
	for name, tag := range frozen {
		if got[name] != tag {
			t.Errorf("tag %s renumbered: 0x%02x want 0x%02x", name, got[name], tag)
		}
	}
}

// --- handshake refusal and the accept loop ---

const msgEcho = 0x7d

// echoRegistry serves one handler that returns its argument.
func echoRegistry() *Registry {
	reg := NewRegistry()
	handleWire(reg, msgEcho, func(ctx context.Context, a *BytesReply) (*BytesReply, error) {
		return a, nil
	})
	return reg
}

// checkEcho runs one v2 echo call against addr, bounded so that a server
// that never answers fails the test instead of hanging it.
func checkEcho(t *testing.T, addr string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		c, err := DialWire(addr)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		var out BytesReply
		if err := c.Call(tctx, msgEcho, BytesReply{B: []byte("ok")}, &out); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(out.B, []byte("ok")) {
			done <- fmt.Errorf("echo returned %q", out.B)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("v2 call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v2 call never completed")
	}
}

// gobRequestHeader is the shape of the request header the standard
// library's gob RPC client writes before its arguments.
type gobRequestHeader struct {
	ServiceMethod string
	Seq           uint64
}

// TestWireRejectsUnknownVersion: a client that does not speak v2 is
// refused without a hang. One offering a future version after the magic
// gets the reject byte; one opening with a gob RPC request or with any
// other non-magic bytes has its connection closed and receives nothing.
// A v2 client on the same listener still works afterwards.
func TestWireRejectsUnknownVersion(t *testing.T) {
	ln, addr, err := Serve(echoRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var gobReq bytes.Buffer
	enc := gob.NewEncoder(&gobReq)
	if err := enc.Encode(gobRequestHeader{ServiceMethod: "Provider.FetchCiphertext"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode("alice"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		open  []byte
		reply []byte // nil: the server must close without writing
	}{
		{"future-version", append(append([]byte(nil), wireMagic[:]...), 99), []byte{0}},
		{"gob-rpc", gobReq.Bytes(), nil},
		{"non-magic", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(tc.open); err != nil {
				t.Fatal(err)
			}
			if err := nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(nc)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("server left the connection open")
			}
			// A close with unread input may surface as a reset rather than
			// EOF; either way the client must have read exactly tc.reply.
			if !bytes.Equal(got, tc.reply) {
				t.Fatalf("server answered %x, want %x", got, tc.reply)
			}
		})
	}
	checkEcho(t, addr)
}

// flakyListener fails its first Accept with a transient (non-closed)
// error, then delegates to the wrapped listener.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTransientAcceptError: an Accept failure other than a
// closed listener (here EMFILE) must not end the accept loop; the next
// connection is served, and closing the listener still stops the loop.
func TestServeRetriesTransientAcceptError(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner}
	stopped := make(chan struct{})
	go func() {
		serve(ln, echoRegistry())
		close(stopped)
	}()
	checkEcho(t, inner.Addr().String())
	if !ln.failed.Load() {
		t.Fatal("the transient Accept error was never returned")
	}
	ln.Close()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop outlived its closed listener")
	}
}

// TestReadFrameGrowsLargePayloads: a payload past frameAllocStep is read
// in full, and one whose sender stops short fails as a truncated frame.
func TestReadFrameGrowsLargePayloads(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 3*frameAllocStep+7)
	frame := appendFrame(nil, frameCall, MsgStoreCiphertext, 5, payload)
	_, _, _, got, err := readFrame(bytes.NewReader(frame))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: err %v, %d of %d payload bytes intact", err, len(got), len(payload))
	}
	if _, _, _, _, err := readFrame(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated large frame returned %v", err)
	}
}

// --- frame decoder fuzzing ---

// FuzzReadFrame feeds arbitrary bytes to readFrame, the only decoder that
// reads straight off the network. A frame it accepts must re-encode to
// exactly the bytes it consumed, stay within maxFramePayload, and decode
// into every handler argument type without panicking.
func FuzzReadFrame(f *testing.F) {
	for _, name := range []string{"store-call", "fetch-call", "reply", "cancel"} {
		raw, err := hex.DecodeString(wireGolden[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{frameCall, MsgStoreCiphertext, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, msg, id, payload, err := readFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if got := appendFrame(nil, kind, msg, id, payload); !bytes.Equal(got, consumed) {
			t.Fatalf("frame re-encodes to %x, consumed %x", got, consumed)
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("payload of %d bytes exceeds the frame limit", len(payload))
		}
		for _, v := range []any{
			&StoreCiphertextArgs{}, &UserArg{}, &protocol.RecoveryRequest{},
			&AuditPackageMsg{}, &CommitMsg{}, &RegisterArgs{}, &OracleArgs{},
		} {
			_ = decodeGob(payload, v)
		}
	})
}

// --- cancellation propagation ---

// testHungService builds a registry with one handler that blocks until its
// context fires, reporting the observed cancellation.
func testHungService(t *testing.T) (addr string, entered <-chan struct{}, aborted <-chan error, cleanup func()) {
	t.Helper()
	const msgHang = 0x7f
	enteredCh := make(chan struct{}, 8)
	abortedCh := make(chan error, 8)
	reg := NewRegistry()
	handleWire(reg, msgHang, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		enteredCh <- struct{}{}
		<-ctx.Done()
		abortedCh <- ctx.Err()
		return nil, ctx.Err()
	})
	ln, addr, err := Serve(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, enteredCh, abortedCh, func() { ln.Close() }
}

// TestWireClientDeadlineAbortsServerHandler: the satellite's transport
// acceptance — a client-side deadline on an in-flight call cancels the
// server-side handler via a cancel frame.
func TestWireClientDeadlineAbortsServerHandler(t *testing.T) {
	addr, entered, aborted, cleanup := testHungService(t)
	defer cleanup()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Call(ctx, 0x7f, Nothing{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call returned %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline did not bound the call")
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	select {
	case err := <-aborted:
		if err == nil {
			t.Fatal("handler context not cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server-side handler outlived the client deadline")
	}
	// The connection stays usable for later calls after a cancel: an
	// unknown-tag call gets an error reply rather than a dead stream.
	if err := c.Call(tctx, 0x70, Nothing{}, nil); err == nil {
		t.Fatal("unknown tag silently succeeded")
	}
}

// TestWireDisconnectAbortsServerHandlers: dropping the connection cancels
// every in-flight handler on it.
func TestWireDisconnectAbortsServerHandlers(t *testing.T) {
	addr, entered, aborted, cleanup := testHungService(t)
	defer cleanup()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = c.Call(context.Background(), 0x7f, Nothing{}, nil)
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	c.Close()
	select {
	case err := <-aborted:
		if err == nil {
			t.Fatal("handler context not cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server-side handler survived the disconnect")
	}
}

// TestWireOversizePayloadScopedToCall: a payload over the frame limit
// fails its own call with a descriptive error and leaves the multiplexed
// connection usable for everyone else.
func TestWireOversizePayloadScopedToCall(t *testing.T) {
	ln, addr, err := Serve(echoRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := BytesReply{B: make([]byte, maxFramePayload+1)}
	err = c.Call(tctx, msgEcho, huge, nil)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversize payload returned %v", err)
	}
	// The connection is not poisoned: a normal call still round-trips.
	var out BytesReply
	if err := c.Call(tctx, msgEcho, BytesReply{B: []byte("ok")}, &out); err != nil {
		t.Fatalf("connection dead after oversize call: %v", err)
	}
	if !bytes.Equal(out.B, []byte("ok")) {
		t.Fatal("echo corrupted")
	}
}

// TestWireInFlightCallsSeeErrConnClosed: a Close (or peer drop) must
// surface to blocked callers as the ErrConnClosed sentinel — the same
// error later calls get — so errors.Is-based retry logic works for both.
func TestWireInFlightCallsSeeErrConnClosed(t *testing.T) {
	addr, entered, _, cleanup := testHungService(t)
	defer cleanup()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() { inflight <- c.Call(context.Background(), 0x7f, Nothing{}, nil) }()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	c.Close()
	select {
	case err := <-inflight:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("in-flight call returned %v, not ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call never unblocked after Close")
	}
	if err := c.Call(tctx, 0x7f, Nothing{}, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-Close call returned %v, not ErrConnClosed", err)
	}
}

// TestWireContextErrorsCrossTheWire: a handler that dies with a context
// sentinel surfaces as the same sentinel at the caller (errors.Is works
// across the process boundary).
func TestWireContextErrorsCrossTheWire(t *testing.T) {
	const msgCancelled = 0x7e
	reg := NewRegistry()
	handleWire(reg, msgCancelled, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return nil, context.Canceled
	})
	ln, addr, err := Serve(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call(tctx, msgCancelled, Nothing{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("sentinel lost in transit: %v", err)
	}
}
