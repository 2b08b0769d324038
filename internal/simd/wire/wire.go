// Package wire defines the simd daemon's wire protocol: length-prefixed
// JSON frames carrying a small request/response vocabulary. A frame is a
// 4-byte big-endian payload length followed by one JSON document; the
// encoding is symmetric, so clients and the server share ReadFrame and
// WriteFrame.
//
// Two request families flow over one connection:
//
//   - plan submission (OpPlan): the client sends a serialized scenario
//     list; the server streams one KindResult frame per scenario in
//     completion order — each with completed-of-total progress and
//     per-scenario error isolation, mirroring Session.Run — and closes
//     the exchange with a KindDone frame. OpCancel aborts a named
//     in-flight plan.
//   - store service (OpLookup..OpStats, OpFlush): synchronous key-value
//     round trips against the daemon's shared runner.Store, answered by
//     a single KindReply frame. runner.NetStore is built on these.
//
// Requests and responses are correlated by a client-assigned ID, so one
// connection multiplexes concurrent plans and store calls. Every request
// carries ProtocolVersion; the server rejects mismatches per request
// with a KindError frame instead of dropping the connection, so a stale
// client gets a diagnosable error. Bump ProtocolVersion whenever a
// message field changes meaning, is removed, or a new op alters existing
// exchange semantics (see CONTRIBUTING.md).
package wire

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"resizecache/internal/sim"
)

// ProtocolVersion tags every request; see the package comment for the
// bump policy.
// Version history: 1 = initial op set; 2 = OpPing health check (and the
// reconnecting client that relies on it); 3 = Scenario.SubarrayBytes and
// Scenario.Controller (an older daemon would drop them and simulate the
// 1K-subarray, profiled-controller defaults instead).
const ProtocolVersion = 3

// MaxFrame bounds a single frame's payload. Plans serialize to a few
// bytes per scenario and results to a few KB, so 64 MiB is far above any
// legitimate frame while still rejecting a corrupt length prefix before
// it turns into an allocation.
const MaxFrame = 64 << 20

// Request operations.
const (
	// OpPlan submits a serialized scenario list; answered by a stream of
	// KindResult frames and a final KindDone.
	OpPlan = "plan"
	// OpCancel aborts the in-flight plan whose request ID is Target.
	// Fire-and-forget: it is never answered (the cancelled plan's own
	// stream terminates instead).
	OpCancel = "cancel"
	// OpLookup / OpRecord are runner.Store result operations; Value
	// carries a runner.StoredResult document.
	OpLookup = "lookup"
	OpRecord = "record"
	// OpLookupArtifact / OpRecordArtifact are the artifact analogues;
	// Value carries the opaque artifact payload (valid JSON).
	OpLookupArtifact = "lookup-artifact"
	OpRecordArtifact = "record-artifact"
	// OpFlush persists the daemon's backing store.
	OpFlush = "flush"
	// OpStats returns the daemon's cumulative runner.Stats as JSON.
	OpStats = "stats"
	// OpPing is the health check: answered by an empty KindReply. The
	// reconnecting client uses it to validate a connection before
	// trusting it after failover, and any received frame (ping included)
	// resets the server's idle-timeout clock, so a long-lived idle
	// client pings to keep its connection alive.
	OpPing = "ping"
)

// Response kinds.
const (
	// KindResult is one scenario's outcome within a plan stream.
	KindResult = "result"
	// KindDone terminates a plan stream: every result frame has been
	// sent.
	KindDone = "done"
	// KindReply answers a synchronous store/stats/flush request.
	KindReply = "reply"
	// KindError terminates any exchange with a request-level failure
	// (malformed payload, version mismatch, unknown op).
	KindError = "error"
)

// Request is one client-to-server frame.
type Request struct {
	// V is the client's ProtocolVersion; checked per request.
	V int `json:"v"`
	// ID correlates the responses to this request. The client must not
	// reuse an ID while its exchange is live. ID 0 is reserved for
	// fire-and-forget requests (OpCancel).
	ID uint64 `json:"id,omitempty"`
	// Op selects the operation.
	Op string `json:"op"`
	// Scenarios is the serialized []resizecache.Scenario of an OpPlan.
	Scenarios json.RawMessage `json:"scenarios,omitempty"`
	// Target is the plan request ID an OpCancel aborts.
	Target uint64 `json:"target,omitempty"`
	// Key is the hex sim.Key of a store operation.
	Key string `json:"key,omitempty"`
	// Value is the store operation's payload (StoredResult document or
	// artifact bytes).
	Value json.RawMessage `json:"value,omitempty"`
}

// Response is one server-to-client frame.
type Response struct {
	// ID echoes the request this frame answers.
	ID uint64 `json:"id"`
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Index / Outcome / Err / Completed / Total populate KindResult
	// frames: the scenario's plan-order index, its serialized
	// resizecache.Outcome (or its isolated error), and the stream's
	// completed-of-total progress. Err on a KindError frame carries the
	// request-level failure.
	Index     int             `json:"index,omitempty"`
	Outcome   json.RawMessage `json:"outcome,omitempty"`
	Err       string          `json:"err,omitempty"`
	Completed int             `json:"completed,omitempty"`
	Total     int             `json:"total,omitempty"`
	// Found / Value populate KindReply frames for lookups.
	Found bool            `json:"found,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
}

// WriteFrame marshals v and writes it as one length-prefixed frame.
// Callers serialize concurrent writers themselves (a frame must not
// interleave with another).
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encode frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte bound", len(body), MaxFrame)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame and unmarshals it into v.
func ReadFrame(r io.Reader, v any) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: frame length %d exceeds the %d-byte bound", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: decode frame: %w", err)
	}
	return nil
}

// ParseKey decodes the hex form produced by sim.Key.String — the wire
// spelling of every store key.
func ParseKey(s string) (sim.Key, error) {
	var k sim.Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return sim.Key{}, fmt.Errorf("wire: parse key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return sim.Key{}, fmt.Errorf("wire: parse key %q: %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}
