package pascal

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestEnvDecodeBoundsCount feeds the environment codec a payload whose
// entry count far exceeds the bytes behind it. Decoding must fail on
// the count instead of sizing the entry slice from it: a payload of a
// few bytes may not make the decoder allocate in proportion to a count
// it cannot hold.
func TestEnvDecodeBoundsCount(t *testing.T) {
	const count = 1 << 20 // a slice of a million entries, if trusted
	var data []byte
	data = binary.AppendVarint(data, 0) // level
	data = binary.AppendVarint(data, 0) // next free slot
	data = binary.AppendUvarint(data, count)
	data = append(data, 0, 0, 0)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := envCodec{}.Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded %d entries from %d bytes: %v", count, len(data), v)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the payload allocated %d bytes", grew)
	}
}
