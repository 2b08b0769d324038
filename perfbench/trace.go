package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"` // the pass or request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Probe  bool   `json:"probe,omitempty"` // recorded by the layer pass, not the workload
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes pay only a nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// scope is the span and request that calls arriving without a
	// context (store and connection calls) are attributed to.
	scopeSpan, scopeReq atomic.Int64
	probe               atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is one open span.
type active struct {
	tr *tracer
	s  span
}

// begin opens a span; parent and req < 0 mean the current scope.
func (t *tracer) begin(name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	if parent < 0 {
		parent = t.scopeSpan.Load()
	}
	if req < 0 {
		req = t.scopeReq.Load()
	}
	return active{tr: t, s: span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)), Probe: t.probe.Load()}}
}

// end closes the span, recording bytes moved (0 when not applicable).
func (a active) end(bytes int64) {
	if a.tr == nil {
		return
	}
	a.s.End = int64(time.Since(a.tr.t0))
	a.s.Bytes = bytes
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
}

// scoped makes a the scope for context-free calls until the returned
// function restores the previous scope.
func (a active) scoped() func() {
	if a.tr == nil {
		return func() {}
	}
	prevSpan, prevReq := a.tr.scopeSpan.Swap(a.s.ID), a.tr.scopeReq.Swap(a.s.Req)
	return func() { a.tr.scopeSpan.Store(prevSpan); a.tr.scopeReq.Store(prevReq) }
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write saves every span as a JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hooks are decorators the benchmark's own tests insert below the timing
// decorators, e.g. to inject a delay that the trace must attribute.
type hooks struct {
	store func(runner.Store) runner.Store
	conn  func(net.Conn) net.Conn
}

// wrapStore returns the store a workload hands to the program: the
// test hook, then the timing decorator when the pass is traced.
func wrapStore(s runner.Store, tr *tracer, h hooks) runner.Store {
	if h.store != nil {
		s = h.store(s)
	}
	if tr != nil {
		s = &timedStore{inner: s, tr: tr}
	}
	return s
}

// wrapListener does for server connections what wrapStore does for the
// store.
func wrapListener(ln net.Listener, tr *tracer, h hooks) net.Listener {
	if h.conn == nil && tr == nil {
		return ln
	}
	return &hookListener{Listener: ln, tr: tr, h: h}
}

// timedStore records a span around every runner.Store call.
type timedStore struct {
	inner runner.Store
	tr    *tracer
}

func (s *timedStore) Lookup(k sim.Key) (runner.StoredResult, bool) {
	a := s.tr.begin("store.lookup", -1, -1)
	v, ok := s.inner.Lookup(k)
	a.end(0)
	return v, ok
}

func (s *timedStore) Record(k sim.Key, v runner.StoredResult) {
	a := s.tr.begin("store.record", -1, -1)
	s.inner.Record(k, v)
	a.end(0)
}

func (s *timedStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	a := s.tr.begin("store.lookup_artifact", -1, -1)
	v, ok := s.inner.LookupArtifact(k)
	a.end(int64(len(v)))
	return v, ok
}

func (s *timedStore) RecordArtifact(k sim.Key, data []byte) {
	a := s.tr.begin("store.record_artifact", -1, -1)
	s.inner.RecordArtifact(k, data)
	a.end(int64(len(data)))
}

func (s *timedStore) Flush() error {
	a := s.tr.begin("store.flush", -1, -1)
	err := s.inner.Flush()
	a.end(0)
	return err
}

// hookListener decorates every accepted server connection.
type hookListener struct {
	net.Listener
	tr *tracer
	h  hooks
}

func (l *hookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.h.conn != nil {
		c = l.h.conn(c)
	}
	if l.tr != nil {
		c = &timedConn{Conn: c, tr: l.tr}
	}
	return c, nil
}

// timedConn records a span per Read and per response frame written. The
// server writes a frame as its 4-byte length prefix followed by the
// body; the frame span runs from the prefix write to the end of the
// body write. Read spans include time spent waiting for the peer.
type timedConn struct {
	net.Conn
	tr      *tracer
	pending active // open frame span after a prefix write (writer goroutine only)
	open    bool
}

func (c *timedConn) Read(p []byte) (int, error) {
	a := c.tr.begin("conn.read", -1, -1)
	n, err := c.Conn.Read(p)
	a.end(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	if !c.open {
		c.pending = c.tr.begin("conn.write_frame", -1, -1)
		c.open = true
	}
	n, err := c.Conn.Write(p)
	if len(p) != 4 || err != nil {
		c.pending.end(int64(n) + 4)
		c.open = false
	}
	return n, err
}
