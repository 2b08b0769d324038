package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzReadFrame: no byte stream panics ReadFrame into either message
// type, a length prefix above MaxFrame is rejected before any of the
// body is read, and every frame that decodes survives WriteFrame →
// ReadFrame unchanged. The same bytes, read as a string, exercise
// ParseKey. The seed corpus lives in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[Request](t, data)
		roundTrip[Response](t, data)
		parseKey(t, string(data))
	})
}

func roundTrip[T any](t *testing.T, data []byte) {
	var v T
	r := bytes.NewReader(data)
	if err := ReadFrame(r, &v); err != nil {
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxFrame && r.Len() != len(data)-4 {
			t.Fatalf("oversized length prefix: read %d body bytes before rejecting it", len(data)-4-r.Len())
		}
		return
	}
	var frame bytes.Buffer
	if err := WriteFrame(&frame, v); err != nil {
		t.Fatalf("decoded %T does not encode: %v", v, err)
	}
	var back T
	if err := ReadFrame(&frame, &back); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", v, err)
	}
	// encoding/json compacts raw payloads on the way out, so the two
	// values are compared in their encoded form.
	want, err1 := json.Marshal(v)
	got, err2 := json.Marshal(back)
	if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
		t.Fatalf("%T changed across WriteFrame → ReadFrame:\nbefore %s\nafter  %s (%v, %v)", v, want, got, err1, err2)
	}
}

func parseKey(t *testing.T, s string) {
	k, err := ParseKey(s)
	if err != nil {
		return
	}
	if !strings.EqualFold(k.String(), s) {
		t.Fatalf("ParseKey(%q) = %s", s, k)
	}
	if again, err := ParseKey(k.String()); err != nil || again != k {
		t.Fatalf("key %s does not round-trip: %s (%v)", k, again, err)
	}
}
