package cas

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFile fuzzes the entry frame decoder, which reads files
// another process (or a torn copy) may have left in a shared
// directory. decodeFile must never panic; any frame it accepts under
// key k must be exactly encodeFile(k, payload) for the payload it
// returned, and must be refused under any other key. The fuzzed bytes
// are also framed as a payload, so the accepting path runs on every
// input, not only on the rare mutation that keeps the checksum valid.
func FuzzDecodeFile(f *testing.F) {
	f.Add(byte(1), encodeFile(testKey(1), []byte("payload one")))
	f.Add(byte(2), encodeFile(testKey(2), nil))
	f.Add(byte(3), []byte(fileMagic))
	f.Fuzz(func(t *testing.T, kb byte, data []byte) {
		k, wrong := testKey(kb), testKey(kb+1)
		accepts := func(frame []byte) {
			payload, err := decodeFile(k, frame)
			if err != nil {
				return
			}
			if !bytes.Equal(frame, encodeFile(k, payload)) {
				t.Fatalf("accepted %d-byte frame is not the encoding of its %d-byte payload", len(frame), len(payload))
			}
			if _, err := decodeFile(wrong, frame); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("frame accepted under the wrong key: %v", err)
			}
		}
		accepts(data)

		frame := encodeFile(k, data)
		got, err := decodeFile(k, frame)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("framed payload does not round-trip: %v", err)
		}
		accepts(frame)
	})
}
