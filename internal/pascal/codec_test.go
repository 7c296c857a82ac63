package pascal

import (
	"encoding/binary"
	"runtime"
	"testing"

	"pag/internal/ag"
)

// TestEnvDecodeBoundsCount feeds the codecs that decode counted lists
// a payload whose element count far exceeds the bytes behind it: the
// environment codec (fragment inputs) and the error-list codec (a root
// attribute, so it decodes on-disk recordings too). Decoding must fail
// on the count instead of sizing a slice from it: a payload of a few
// bytes may not make the decoder allocate in proportion to a count it
// cannot hold.
func TestEnvDecodeBoundsCount(t *testing.T) {
	const count = 1 << 20 // a slice of a million entries, if trusted
	var env []byte
	env = binary.AppendVarint(env, 0) // level
	env = binary.AppendVarint(env, 0) // next free slot
	env = binary.AppendUvarint(env, count)
	env = append(env, 0, 0, 0)
	errs := binary.AppendUvarint(nil, count)
	errs = append(errs, 0, 0, 0)

	for _, c := range []struct {
		name  string
		codec ag.Codec
		data  []byte
	}{
		{"env", envCodec{}, env},
		{"errs", errsCodec{}, errs},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			v, err := c.codec.Decode(c.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("decoded %d entries from %d bytes: %v", count, len(c.data), v)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting the payload allocated %d bytes", grew)
			}
		})
	}
}
