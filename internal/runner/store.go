package runner

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"resizecache/internal/sim"
)

// Store is the pluggable persistent backend of a Runner: it holds
// per-config simulation outcomes keyed by sim.Config fingerprints and
// sweep-level artifacts (opaque serialized payloads, see Runner.Artifact)
// keyed by artifact fingerprints. The JSON DiskStore is the in-tree
// implementation; a network or sharded store for cross-machine sweeps
// implements the same five methods.
//
// Implementations must be safe for concurrent use. Lookup misses are
// not errors; a backend that cannot distinguish "absent" from "failed"
// should report failures as misses so the runner falls back to
// simulating.
type Store interface {
	// Lookup returns the stored outcome for a config fingerprint.
	Lookup(k sim.Key) (StoredResult, bool)
	// Record persists one completed outcome. The runner never records
	// cancellations — only results and real simulation errors.
	Record(k sim.Key, v StoredResult)
	// LookupArtifact returns the stored payload for an artifact
	// fingerprint. Callers must treat the returned bytes as read-only.
	LookupArtifact(k sim.Key) ([]byte, bool)
	// RecordArtifact persists one artifact payload. Payloads must be
	// valid JSON: backends may embed them verbatim in JSON documents,
	// and may drop payloads that are not.
	RecordArtifact(k sim.Key, data []byte)
	// Flush writes buffered mutations to the backing medium.
	Flush() error
}

// RemoteCounter is implemented by Store backends that talk to a remote
// tier (NetStore); Runner.Stats folds the counts into its
// RemoteHits/RemoteErrors fields so -stats output distinguishes local
// memo hits from network store traffic.
type RemoteCounter interface {
	// RemoteCounts returns the backend's cumulative successful remote
	// hits and failed round trips.
	RemoteCounts() (hits, errors uint64)
}

// BreakerCounter is implemented by Store backends that guard a remote
// tier with a circuit breaker (NetStore); Runner.Stats folds the count
// into its BreakerTrips field so degraded runs are visible in -stats
// output.
type BreakerCounter interface {
	// BreakerTrips returns how many times the backend's breaker opened.
	BreakerTrips() uint64
}

// StoredResult is one persisted simulation outcome: either a successful
// result or the message of the real (non-cancellation) error the
// simulation failed with. Persisting errors keeps a failing config from
// being re-simulated on every resume just to fail again.
type StoredResult struct {
	Result sim.Result `json:"result"`
	// Err, when non-empty, records that the simulation failed; the
	// runner replays it as a StoredError instead of re-running.
	Err string `json:"err,omitempty"`
}

// StoredError is a persisted simulation failure replayed from a Store
// without re-executing the simulation.
type StoredError struct{ Msg string }

func (e *StoredError) Error() string { return "stored failure: " + e.Msg }

// storeVersion tags the on-disk format; a file written by a different
// version (or a different sim.Key encoding, which changes the keys) is
// discarded on load rather than misapplied.
// Version history: 1 = results only; 2 = StoredResult entries (error
// persistence) + artifacts section; 3 = append-only journal, one entry
// per line.
const storeVersion = 3

// journalHeader is the first line of a DiskStore file. Versions 1 and 2
// wrote the whole store as one single-line JSON document with the same
// version field, so an old file reads as a foreign version, not as
// corruption.
type journalHeader struct {
	Version int `json:"version"`
}

// journalLine is one entry line of a DiskStore file: a result or an
// artifact under its hex fingerprint. Exactly one of Result and
// Artifact is set.
type journalLine struct {
	Key      string          `json:"key"`
	Result   *StoredResult   `json:"result,omitempty"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
}

// DiskStore is the file-backed Store implementation: an append-only
// journal of JSON lines mapping hex fingerprints to outcomes and
// artifacts. It lets long multi-process workflows (cmd/figures
// regenerating figure after figure) resume without re-simulating
// configs — or re-deriving sweep winners — completed by earlier runs.
//
// The file is a {"version":3} header line followed by one line per
// recorded entry; on load the last line for a key wins. Flush appends
// the entries recorded since the previous Flush, so its cost follows
// the new work rather than the store size. It rewrites the whole file
// atomically (temp file + rename) instead when the file is new, holds
// another version, ends in a torn line (a crash mid-append), or when
// superseded lines outnumber the live entries.
//
// All methods are safe for concurrent use.
type DiskStore struct {
	path string

	mu        sync.Mutex
	results   map[sim.Key]StoredResult
	artifacts map[sim.Key]json.RawMessage
	// Keys recorded since the last Flush, per namespace.
	newResults   map[sim.Key]struct{}
	newArtifacts map[sim.Key]struct{}
	// lines counts the entry lines in the file, superseded ones included.
	lines int
	// appendable reports that the file is a well-formed journal of this
	// version, so new lines may be appended to it.
	appendable bool
	// repair forces the next Flush to rewrite a torn file even when
	// nothing new was recorded.
	repair bool
}

var _ Store = (*DiskStore)(nil)

// OpenDiskStore loads the store at path, or creates an empty one if the
// file does not exist yet. A file of another version (including the
// single-line documents of versions 1 and 2) is treated as empty and
// rewritten whole on the next Flush that has something to write. A torn
// final line is dropped. Any other line that does not parse is an
// error, so a corrupted store is surfaced rather than silently
// discarded.
func OpenDiskStore(path string) (*DiskStore, error) {
	s := &DiskStore{
		path:         path,
		results:      make(map[sim.Key]StoredResult),
		artifacts:    make(map[sim.Key]json.RawMessage),
		newResults:   make(map[sim.Key]struct{}),
		newArtifacts: make(map[sim.Key]struct{}),
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: open store %s: %w", path, err)
	}
	if err := s.load(data); err != nil {
		return nil, fmt.Errorf("runner: parse store %s: %w", path, err)
	}
	return s, nil
}

// load parses a journal. An empty file is an empty store awaiting its
// first write.
func (s *DiskStore) load(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	head, body, _ := bytes.Cut(data, []byte{'\n'})
	var h journalHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return err
	}
	if h.Version != storeVersion {
		return nil
	}
	lines := decodeLines(body)
	torn := len(body) > 0 && body[len(body)-1] != '\n'
	for i, l := range lines {
		if l.err == nil {
			continue
		}
		if i == len(lines)-1 && torn {
			// A crash mid-append: drop the partial line, keep the rest.
			lines = lines[:i]
			break
		}
		return fmt.Errorf("line %d: %w", i+2, l.err)
	}
	for _, l := range lines {
		if l.Result != nil {
			s.results[l.key] = *l.Result
		} else {
			s.artifacts[l.key] = l.Artifact
		}
	}
	s.lines = len(lines)
	// Appending after a line that lacks its newline would corrupt it.
	s.appendable = !torn
	s.repair = torn
	return nil
}

// decodedLine is one journal line after decoding: its entry and key, or
// why it does not parse.
type decodedLine struct {
	journalLine
	key sim.Key
	err error
}

// decodeLines decodes every line of a journal body; an unterminated
// final segment is a line too. Lines are independent, so the work splits
// across GOMAXPROCS workers over contiguous ranges of an indexed slice,
// which the caller merges in file order — last-write-wins stays
// deterministic.
func decodeLines(body []byte) []decodedLine {
	var raw [][]byte
	for len(body) > 0 {
		var line []byte
		line, body, _ = bytes.Cut(body, []byte{'\n'})
		raw = append(raw, line)
	}
	out := make([]decodedLine, len(raw))
	workers := min(runtime.GOMAXPROCS(0), (len(raw)+63)/64)
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := w*len(raw)/workers, (w+1)*len(raw)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i].err = decodeLine(raw[i], &out[i].journalLine, &out[i].key)
			}
		}()
	}
	wg.Wait()
	return out
}

func decodeLine(line []byte, e *journalLine, k *sim.Key) error {
	if err := json.Unmarshal(line, e); err != nil {
		return err
	}
	if (e.Result == nil) == (e.Artifact == nil) {
		return fmt.Errorf("entry %q holds neither or both of a result and an artifact", e.Key)
	}
	if len(e.Key) != hex.EncodedLen(len(k)) {
		return fmt.Errorf("malformed key %q", e.Key)
	}
	if _, err := hex.Decode(k[:], []byte(e.Key)); err != nil {
		return fmt.Errorf("malformed key %q: %w", e.Key, err)
	}
	return nil
}

// Len returns the number of stored results.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// ArtifactLen returns the number of stored artifacts.
func (s *DiskStore) ArtifactLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.artifacts)
}

// Path returns the backing file path.
func (s *DiskStore) Path() string { return s.path }

// Lookup implements Store.
func (s *DiskStore) Lookup(k sim.Key) (StoredResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[k]
	return res, ok
}

// Record implements Store.
func (s *DiskStore) Record(k sim.Key, v StoredResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[k] = v
	s.newResults[k] = struct{}{}
}

// LookupArtifact implements Store.
func (s *DiskStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.artifacts[k]
	return data, ok
}

// RecordArtifact implements Store. Payloads embed verbatim in the
// journal, so a payload that is not itself valid JSON is dropped here
// (it stays a cache miss) rather than poisoning Flush for the whole
// store.
func (s *DiskStore) RecordArtifact(k sim.Key, data []byte) {
	if !json.Valid(data) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copy: json.RawMessage aliases the caller's buffer otherwise.
	s.artifacts[k] = append(json.RawMessage(nil), data...)
	s.newArtifacts[k] = struct{}{}
}

// Flush persists the entries recorded since the last Flush: appended to
// the journal, or by a whole-file rewrite when the file is new, foreign,
// torn, or more than half superseded lines. A store that was never
// written and has nothing new leaves the disk untouched.
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := len(s.newResults) + len(s.newArtifacts)
	if fresh == 0 && !s.repair {
		return nil
	}
	live := len(s.results) + len(s.artifacts)
	var err error
	if s.appendable && s.lines+fresh-live <= live {
		err = s.appendNew()
	} else {
		err = s.rewrite()
	}
	if err != nil {
		return fmt.Errorf("runner: flush store: %w", err)
	}
	clear(s.newResults)
	clear(s.newArtifacts)
	return nil
}

// appendNew appends the entries recorded since the last Flush, in key
// order. A failed append may leave a partial line behind, so it marks
// the file for a whole rewrite.
func (s *DiskStore) appendNew() error {
	var buf bytes.Buffer
	if err := s.encode(&buf, sortedKeys(s.newResults), sortedKeys(s.newArtifacts)); err != nil {
		return err
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		_, err = f.Write(buf.Bytes())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		// The entries stay pending, so the next Flush rewrites.
		s.appendable = false
		return err
	}
	s.lines += len(s.newResults) + len(s.newArtifacts)
	return nil
}

// rewrite replaces the file with a compact journal of the live entries,
// atomically (temp file + rename).
func (s *DiskStore) rewrite() error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"version\":%d}\n", storeVersion)
	if err := s.encode(&buf, sortedKeys(s.results), sortedKeys(s.artifacts)); err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return werr
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.lines = len(s.results) + len(s.artifacts)
	s.appendable, s.repair = true, false
	return nil
}

// encode writes one journal line per listed result and artifact key.
func (s *DiskStore) encode(buf *bytes.Buffer, results, artifacts []sim.Key) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	for _, k := range results {
		r := s.results[k]
		if err := enc.Encode(journalLine{Key: k.String(), Result: &r}); err != nil {
			return err
		}
	}
	for _, k := range artifacts {
		if err := enc.Encode(journalLine{Key: k.String(), Artifact: s.artifacts[k]}); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys lists a map's keys in byte order, so equal stores write
// equal bytes.
func sortedKeys[V any](m map[sim.Key]V) []sim.Key {
	keys := make([]sim.Key, 0, len(m))
	for k := range m { //simlint:ordered sorted below
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b sim.Key) int { return bytes.Compare(a[:], b[:]) })
	return keys
}

// MemStore is an in-process Store: the smallest backend the interface
// admits. It backs tests, and is the template for network or sharded
// implementations — every method is a straight key-value operation with
// no runner-visible semantics beyond the Store contract.
type MemStore struct {
	mu        sync.Mutex
	results   map[string]StoredResult
	artifacts map[string][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{
		results:   make(map[string]StoredResult),
		artifacts: make(map[string][]byte),
	}
}

// Lookup implements Store.
func (s *MemStore) Lookup(k sim.Key) (StoredResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.results[k.String()]
	return v, ok
}

// Record implements Store.
func (s *MemStore) Record(k sim.Key, v StoredResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[k.String()] = v
}

// LookupArtifact implements Store.
func (s *MemStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.artifacts[k.String()]
	return data, ok
}

// RecordArtifact implements Store. Like DiskStore, non-JSON payloads
// are dropped (they stay cache misses): the reference in-memory backend
// models the strictest contract a backend may apply, so code that works
// against a MemStore works against every store.
func (s *MemStore) RecordArtifact(k sim.Key, data []byte) {
	if !json.Valid(data) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.artifacts[k.String()] = append([]byte(nil), data...)
}

// Flush implements Store; a MemStore has nothing to persist.
func (s *MemStore) Flush() error { return nil }
