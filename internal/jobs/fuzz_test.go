package jobs

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot asserts the snapshot codec never panics, never
// accepts damaged input, and round-trips everything it emits.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("olapdim-snapshot v1 sha256="))
	f.Add(EncodeSnapshot(nil))
	f.Add(EncodeSnapshot([]byte(`{"id":"j000000","state":"pending"}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode to the identical framing under
		// the header version it was read with: each version admits exactly
		// one encoding per payload. Legacy v1 files differ from the
		// current encoding only in the magic, which has the same length.
		enc := EncodeSnapshot(payload)
		if bytes.HasPrefix(data, []byte(snapshotMagicV1)) {
			enc = append([]byte(snapshotMagicV1), enc[len(snapshotMagic):]...)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical snapshot: %q", data)
		}
	})
}
