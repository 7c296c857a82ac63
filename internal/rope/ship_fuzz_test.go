package rope

import (
	"bytes"
	"fmt"
	"testing"
)

// neverStore is the store func for re-encoding a decoded descriptor:
// a descriptor has no local text runs, so storing would be a bug.
func neverStore(text string) (int32, error) {
	return 0, fmt.Errorf("store called for %q on a pure descriptor", text)
}

// FuzzShipCodec feeds arbitrary bytes to DecodeShip. The decoder is the
// trust boundary for ship payloads arriving from remote fleet workers,
// so it must never panic, and anything it accepts must re-encode to a
// canonical form: encode(decode(data)) re-decodes and re-encodes to the
// same bytes. (data itself need not equal the first re-encoding —
// non-minimal varints decode fine but re-encode minimally.)
func FuzzShipCodec(f *testing.F) {
	codec := CodeCodec{Librarian: true}

	// Seed with real encodings: empty, single run, multiple runs.
	var store []string
	dep := func(s string) (int32, error) {
		store = append(store, s)
		return int32(len(store) - 1), nil
	}
	for _, c := range []Code{
		nil,
		Text("x := 1"),
		CatCode(Text("movl r0,r1\n"), Text("addl2 r1,r2\n")),
		CatCode(HandleDesc(7, 3), Text("ret"), HandleDesc(2, 9)),
	} {
		enc, err := codec.EncodeShip(dep, c)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
	}
	// Hostile seeds: truncation, huge count, trailing garbage,
	// negative and oversized handles.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x01, 0x01})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.DecodeShip(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		d, ok := v.(*Descriptor)
		if !ok {
			t.Fatalf("DecodeShip returned %T, want *Descriptor", v)
		}
		// Everything the decoder accepted must be within bounds.
		WalkCode(d, nil, func(h int32, n int) {
			if h < 0 || n < 0 {
				t.Fatalf("accepted out-of-range handle (%d, %d)", h, n)
			}
		})
		// Round-trip idempotence: the first re-encoding is canonical.
		enc1, err := codec.EncodeShip(neverStore, d)
		if err != nil {
			t.Fatalf("re-encode of accepted input %x: %v", data, err)
		}
		v2, err := codec.DecodeShip(enc1)
		if err != nil {
			t.Fatalf("canonical encoding %x rejected: %v", enc1, err)
		}
		enc2, err := codec.EncodeShip(neverStore, v2.(*Descriptor))
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("round trip not idempotent: %x vs %x (input %x)", enc1, enc2, data)
		}
	})
}

// TestDecodeShipRejects pins the hardening behaviors the fuzzer relies
// on: trailing bytes, unpayable counts, and out-of-range handles and
// lengths are errors, not silent truncations.
func TestDecodeShipRejects(t *testing.T) {
	codec := CodeCodec{}
	for name, data := range map[string][]byte{
		"empty":            {},
		"count no handles": {0x02},
		"huge count":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"trailing bytes":   {0x00, 0x00},
		"negative handle":  {0x01, 0x01, 0x00},                                     // varint 0x01 = -1
		"handle overflow":  {0x01, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00},             // 2^32 > MaxInt32
		"length overflow":  {0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, // 2^43
		"truncated length": {0x01, 0x80, 0x02},                                     // handle, then no length
		"overlong count":   {0x80, 0x00},                                           // 0 in two bytes
		"overlong length":  {0x01, 0x02, 0x83, 0x00},                               // 3 in two bytes
	} {
		if _, err := codec.DecodeShip(data); err == nil {
			t.Errorf("%s (%x): accepted", name, data)
		}
	}
	// And the canonical empty payload still round-trips.
	v, err := codec.DecodeShip([]byte{0x00})
	if err != nil {
		t.Fatalf("empty descriptor: %v", err)
	}
	if v.(*Descriptor).Len() != 0 {
		t.Errorf("empty descriptor has length %d", v.(*Descriptor).Len())
	}
}
