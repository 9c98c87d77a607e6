package export

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// The checked container is the crash-safe on-disk form of a Snapshot: a
// one-line header naming the payload's exact length and SHA-256, followed
// by the plain JSON wire form. A reader verifies both before decoding, so
// a truncated write, a bit flip or a concatenated tail is detected as
// corruption instead of being half-trusted — the contract the store's
// quarantine-and-continue warm restart depends on.
//
//	ptrsnap1 <64 hex sha256> <decimal payload bytes>\n
//	{ ...Snapshot JSON... }
//
// Headerless files are decoded as legacy plain-JSON spills (pre-checksum
// daemons wrote those): structural corruption is still caught by the JSON
// decoder and the version check, but content corruption inside string
// values is not. New writes always carry the header.

// checkedMagic opens every checked-container header line.
const checkedMagic = "ptrsnap1"

// ErrCorrupt tags a checked-container read that failed verification
// (truncation, checksum mismatch, malformed header, undecodable payload or
// wrong wire version). Callers quarantine on it.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "export: corrupt snapshot: " + e.Reason }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// WriteSnapshotChecked writes s in the checked container format: header
// line, then the JSON payload the header vouches for.
func WriteSnapshotChecked(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	if err := WriteSnapshot(&payload, s); err != nil {
		return err
	}
	sum := sha256.Sum256(payload.Bytes())
	if _, err := fmt.Fprintf(w, "%s %s %d\n", checkedMagic, hex.EncodeToString(sum[:]), payload.Len()); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// ReadSnapshotChecked reads one snapshot from the checked container format,
// verifying length and digest before decoding. A headerless stream falls
// back to the legacy plain-JSON decoder. Every verification failure is a
// *CorruptError, so callers can distinguish "corrupt file" (quarantine it)
// from I/O errors (leave it alone and report).
func ReadSnapshotChecked(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	peek, err := br.Peek(len(checkedMagic) + 1)
	if err != nil {
		// Shorter than any header: either a legacy JSON document small
		// enough to fit ("{}"), or garbage. Let the legacy path decide.
		return readLegacy(br)
	}
	if string(peek[:len(checkedMagic)]) != checkedMagic || peek[len(checkedMagic)] != ' ' {
		return readLegacy(br)
	}
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, corruptf("truncated header")
	}
	fields := strings.Fields(strings.TrimSuffix(header, "\n"))
	if len(fields) != 3 {
		return nil, corruptf("malformed header %q", header)
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, corruptf("malformed digest %q", fields[1])
	}
	var length int64
	if _, err := fmt.Sscanf(fields[2], "%d", &length); err != nil || length < 0 {
		return nil, corruptf("malformed length %q", fields[2])
	}
	// Read what is there rather than allocating the declared length: a
	// damaged header may declare more bytes than any file holds.
	payload, err := io.ReadAll(io.LimitReader(br, length))
	if err != nil {
		return nil, corruptf("truncated payload: %v", err)
	}
	if int64(len(payload)) != length {
		return nil, corruptf("truncated payload: %d of %d bytes", len(payload), length)
	}
	// Trailing bytes beyond the declared length mean the file is not what
	// the header vouches for (e.g. two writes interleaved).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corruptf("trailing bytes after declared payload")
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], wantSum) {
		return nil, corruptf("checksum mismatch")
	}
	snap, err := ReadSnapshot(bytes.NewReader(payload))
	if err != nil {
		// The digest matched, so the bytes are exactly what was written —
		// but a wrong version (or a header glued onto a non-snapshot) is
		// still not servable.
		return nil, corruptf("%v", err)
	}
	return snap, nil
}

// readLegacy decodes a headerless (pre-checksum) spill file.
func readLegacy(r io.Reader) (*Snapshot, error) {
	snap, err := ReadSnapshot(r)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return snap, nil
}
