package export

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/pointsto"
)

func TestCheckedRoundTrip(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{})
	var buf bytes.Buffer
	if err := WriteSnapshotChecked(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.HasPrefix(buf.String(), checkedMagic+" ") {
		t.Fatalf("container does not open with the header: %q", buf.String()[:40])
	}
	got, err := ReadSnapshotChecked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("round trip changed the snapshot")
	}
}

// TestCheckedLegacyFallback: a plain (headerless) JSON spill from a
// pre-checksum daemon still decodes.
func TestCheckedLegacyFallback(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotChecked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("legacy round trip changed the snapshot")
	}
}

// TestCheckedDetectsCorruption: every adversarial mutation of a valid
// container must come back as a *CorruptError — never a panic, never a
// silently-decoded snapshot.
func TestCheckedDetectsCorruption(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{})
	var buf bytes.Buffer
	if err := WriteSnapshotChecked(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := map[string]func([]byte) []byte{
		"truncated-half": func(b []byte) []byte { return b[:len(b)/2] },
		"truncated-tail": func(b []byte) []byte { return b[:len(b)-1] },
		"zero-length":    func(b []byte) []byte { return nil },
		"bit-flip-payload": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x20
			return c
		},
		"bit-flip-digest": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(checkedMagic)+2] ^= 0x01
			return c
		},
		"trailing-garbage": func(b []byte) []byte { return append(append([]byte(nil), b...), "extra"...) },
		"huge-length": func(b []byte) []byte {
			fields := bytes.Fields(b[:bytes.IndexByte(b, '\n')])
			return append([]byte(string(fields[0])+" "+string(fields[1])+" 2222222222225417\n"), b[bytes.IndexByte(b, '\n')+1:]...)
		},
		"header-only": func(b []byte) []byte {
			i := bytes.IndexByte(b, '\n')
			return b[:i+1]
		},
		"wrong-version": func(b []byte) []byte {
			var w bytes.Buffer
			bad := *snap
			bad.Version = 99
			WriteSnapshotChecked(&w, &bad)
			return w.Bytes()
		},
	}
	for name, f := range mutate {
		_, err := ReadSnapshotChecked(bytes.NewReader(f(valid)))
		if err == nil {
			t.Errorf("%s: corrupt container decoded successfully", name)
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *CorruptError", name, err)
		}
	}
}

// FuzzSnapshotDecode throws arbitrary bytes at both snapshot decoders: they
// must never panic, and anything they do accept must re-encode and decode
// to the same value.
func FuzzSnapshotDecode(f *testing.F) {
	rep, err := pointsto.Analyze([]pointsto.Source{{Name: "snap.c", Text: snapshotProgram}}, pointsto.Config{})
	if err != nil {
		f.Fatal(err)
	}
	snap := NewSnapshot(rep, "")
	var plain, checked bytes.Buffer
	WriteSnapshot(&plain, snap)
	WriteSnapshotChecked(&checked, snap)
	f.Add(plain.Bytes())
	f.Add(checked.Bytes())
	f.Add([]byte(checkedMagic + " 00 0\n"))
	f.Add([]byte(`{"version":1,"vars":{"x":["y"]}}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshotChecked(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshotChecked(&buf, snap); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		again, err := ReadSnapshotChecked(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("re-encode round trip changed the snapshot")
		}
	})
}
