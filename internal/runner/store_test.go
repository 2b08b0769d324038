package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resizecache/internal/sim"
)

// openT opens a DiskStore or fails the test.
func openT(t testing.TB, path string) *DiskStore {
	t.Helper()
	s, err := OpenDiskStore(path)
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	return s
}

func flushT(t testing.TB, s *DiskStore) {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func readT(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkJournal asserts the file is a clean v3 journal: the header, then
// only complete entry lines.
func checkJournal(t *testing.T, path string) {
	t.Helper()
	data := readT(t, path)
	if !bytes.HasPrefix(data, []byte(`{"version":3}`+"\n")) {
		t.Fatalf("journal does not start with the v3 header: %.40q", data)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("journal ends in an unterminated line")
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:] {
		if err := decodeLine(line, new(journalLine), new(sim.Key)); err != nil {
			t.Fatalf("line %d: %v", i+2, err)
		}
	}
}

// TestDiskStoreFlushAppends: a Flush writes only what was recorded since
// the previous one, after the bytes already on disk, in key order.
func TestDiskStoreFlushAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := openT(t, path)
	s.Record(cfgN(0).Key(), StoredResult{Result: stubResult(cfgN(0))})
	flushT(t, s)
	first := readT(t, path)

	for i := 3; i >= 1; i-- {
		s.Record(cfgN(i).Key(), StoredResult{Result: stubResult(cfgN(i))})
	}
	s.RecordArtifact(cfgN(9).Key(), []byte(`{"x":1}`))
	flushT(t, s)
	second := readT(t, path)
	if !bytes.HasPrefix(second, first) {
		t.Fatal("second flush rewrote the bytes of the first")
	}
	lines := strings.Split(strings.TrimSuffix(string(second[len(first):]), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("second flush appended %d lines, want 4", len(lines))
	}
	var keys []string
	for _, l := range lines[:3] {
		var e journalLine
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e.Key)
	}
	if !sortedStrings(keys) {
		t.Errorf("appended result keys not in sorted order: %v", keys)
	}
	checkJournal(t, path)
	if re := openT(t, path); re.Len() != 4 || re.ArtifactLen() != 1 {
		t.Errorf("reopened store holds %d results / %d artifacts, want 4 / 1", re.Len(), re.ArtifactLen())
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// TestDiskStoreTornTail: a crash mid-append leaves a partial last line.
// Open keeps every complete line, and the next Flush — even with nothing
// new recorded — rewrites the file cleanly.
func TestDiskStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := openT(t, path)
	for i := range 3 {
		s.Record(cfgN(i).Key(), StoredResult{Result: stubResult(cfgN(i))})
	}
	flushT(t, s)
	line, err := json.Marshal(journalLine{Key: cfgN(3).Key().String(),
		Result: &StoredResult{Result: stubResult(cfgN(3))}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(line[:len(line)/2])
	f.Close()

	torn := openT(t, path)
	if torn.Len() != 3 {
		t.Fatalf("torn store loaded %d results, want the 3 complete ones", torn.Len())
	}
	if _, ok := torn.Lookup(cfgN(3).Key()); ok {
		t.Error("the torn line's entry was loaded")
	}
	flushT(t, torn)
	checkJournal(t, path)

	torn.Record(cfgN(4).Key(), StoredResult{Result: stubResult(cfgN(4))})
	flushT(t, torn)
	checkJournal(t, path)
	if re := openT(t, path); re.Len() != 4 {
		t.Errorf("repaired store holds %d results, want 4", re.Len())
	}
}

// TestDiskStoreCorruptLineIsAnError: only an unterminated last line
// counts as torn; a bad line anywhere else is corruption.
func TestDiskStoreCorruptLineIsAnError(t *testing.T) {
	dir := t.TempDir()
	good, err := json.Marshal(journalLine{Key: cfgN(0).Key().String(), Artifact: json.RawMessage(`1`)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"middle":          "{\"version\":3}\n{\"key\":\n" + string(good) + "\n",
		"terminated last": "{\"version\":3}\n" + string(good) + "\n{\"key\":\n",
		"no value":        "{\"version\":3}\n{\"key\":\"" + cfgN(0).Key().String() + "\"}\n",
		"bad key":         "{\"version\":3}\n{\"key\":\"zz\",\"artifact\":1}\n",
		"blank line":      "{\"version\":3}\n\n" + string(good) + "\n",
		"header split":    "{\"version\":3,\n\"x\":1}\n",
	}
	for name, body := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskStore(path); err == nil {
			t.Errorf("%s: corrupt journal opened", name)
		}
	}
}

// TestDiskStoreLastWriteWins: a key recorded again supersedes its
// earlier line, across appends and in a hand-built journal.
func TestDiskStoreLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	k := cfgN(0).Key()
	s := openT(t, path)
	s.Record(k, StoredResult{Err: "first"})
	s.RecordArtifact(k, []byte(`"a1"`))
	flushT(t, s)
	s.Record(k, StoredResult{Err: "second"})
	s.RecordArtifact(k, []byte(`"a2"`))
	flushT(t, s)

	re := openT(t, path)
	if v, _ := re.Lookup(k); v.Err != "second" {
		t.Errorf("result = %q, want the later write", v.Err)
	}
	if a, _ := re.LookupArtifact(k); string(a) != `"a2"` {
		t.Errorf("artifact = %s, want the later write", a)
	}

	hand := filepath.Join(t.TempDir(), "hand.json")
	body := "{\"version\":3}\n" +
		"{\"key\":\"" + k.String() + "\",\"artifact\":1}\n" +
		"{\"key\":\"" + strings.ToUpper(k.String()) + "\",\"artifact\":2}\n"
	if err := os.WriteFile(hand, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if a, _ := openT(t, hand).LookupArtifact(k); string(a) != "2" {
		t.Errorf("hand-built duplicate resolved to %s, want 2", a)
	}
}

// TestDiskStoreCompaction: re-recording one key on every Flush appends a
// superseded line each time; compaction keeps the file under twice the
// size of a fresh journal of the same live entries.
func TestDiskStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	s := openT(t, path)
	for i := range 4 {
		s.Record(cfgN(i).Key(), StoredResult{Result: stubResult(cfgN(i))})
	}
	k := cfgN(0).Key()
	for round := range 20 {
		res := stubResult(cfgN(0))
		res.CPU.Cycles = uint64(1000 + round) // same encoded width each round
		s.Record(k, StoredResult{Result: res})
		flushT(t, s)

		compact := filepath.Join(dir, "compact.json")
		os.Remove(compact)
		c := openT(t, compact)
		for i := 1; i < 4; i++ {
			c.Record(cfgN(i).Key(), StoredResult{Result: stubResult(cfgN(i))})
		}
		c.Record(k, StoredResult{Result: res})
		flushT(t, c)
		size, live := len(readT(t, path)), len(readT(t, compact))
		if size >= 2*live {
			t.Fatalf("round %d: journal is %d bytes, live entries %d: not compacted", round, size, live)
		}
	}
	if v, _ := openT(t, path).Lookup(k); v.Result.CPU.Cycles != 1019 {
		t.Errorf("compacted journal lost the last write: cycles %d", v.Result.CPU.Cycles)
	}
	checkJournal(t, path)
}

// TestDiskStoreUnwrittenMakesNoFile: opening a missing path and flushing
// without recording anything creates nothing.
func TestDiskStoreUnwrittenMakesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	flushT(t, openT(t, path))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Flush of an unwritten store created %s (stat err %v)", path, err)
	}
}

// TestDiskStoreV2LoadsEmpty: a version 2 document (the single-line
// format before the journal) opens as an empty store that the next
// Flush replaces with a journal. TestDiskStoreCorruptAndVersionMismatch
// covers version 1.
func TestDiskStoreV2LoadsEmpty(t *testing.T) {
	k := cfgN(0).Key().String()
	path := filepath.Join(t.TempDir(), "store.json")
	doc := `{"version":2,"results":{"` + k + `":{"result":{}}},"artifacts":{"` + k + `":1}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, path)
	if s.Len() != 0 || s.ArtifactLen() != 0 {
		t.Fatalf("v2 document loaded %d results / %d artifacts, want none", s.Len(), s.ArtifactLen())
	}
	s.Record(cfgN(1).Key(), StoredResult{})
	flushT(t, s)
	checkJournal(t, path)
	if re := openT(t, path); re.Len() != 1 {
		t.Errorf("rewritten store holds %d results, want 1", re.Len())
	}
}

// TestDiskStoreConcurrentRecordFlush: writers and flushers interleave
// freely (run under -race), and every record reaches the file.
func TestDiskStoreConcurrentRecordFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := openT(t, path)
	const writers, each = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				cfg := cfgN(w*each + i)
				s.Record(cfg.Key(), StoredResult{Result: stubResult(cfg)})
				if i%5 == 0 {
					s.RecordArtifact(cfg.Key(), []byte(`true`))
				}
				if err := s.Flush(); err != nil {
					errs <- err
				}
				s.Lookup(cfg.Key())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	flushT(t, s)
	checkJournal(t, path)
	re := openT(t, path)
	if re.Len() != writers*each || re.ArtifactLen() != writers*each/5 {
		t.Errorf("reopened store holds %d results / %d artifacts, want %d / %d",
			re.Len(), re.ArtifactLen(), writers*each, writers*each/5)
	}
}

// FuzzOpenDiskStore: no file content panics Open, and any store that
// opens survives Flush + reopen with the same contents.
func FuzzOpenDiskStore(f *testing.F) {
	// One directory for every input: a fresh one per exec would make
	// the file system, not the parser, the fuzzer's bottleneck.
	path := filepath.Join(f.TempDir(), "store.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDiskStore(path)
		if err != nil {
			return
		}
		// Force a write even when nothing is pending, so the reopened
		// file is one this package wrote.
		s.appendable = false
		s.repair = true
		flushT(t, s)
		re := openT(t, path)
		if !reflect.DeepEqual(s.results, re.results) {
			t.Fatalf("results changed across Flush + reopen:\nbefore %v\nafter  %v", s.results, re.results)
		}
		if len(s.artifacts) != len(re.artifacts) {
			t.Fatalf("artifact count changed across Flush + reopen: %d -> %d", len(s.artifacts), len(re.artifacts))
		}
		for k, a := range s.artifacts {
			var before, after bytes.Buffer
			json.Compact(&before, a)
			json.Compact(&after, re.artifacts[k])
			if before.String() != after.String() {
				t.Fatalf("artifact %s changed across Flush + reopen: %s -> %s", k, a, re.artifacts[k])
			}
		}
	})
}
