package pascal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"pag/internal/ag"
	"pag/internal/symtab"
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

// TestEnvDecodeRejectsEntryOrder: the env codec rebuilds its table with
// symtab.FromEntries, which trusts the key order it is given. Entries
// sent out of order or twice would build a tree whose lookups miss, so
// the decoder must refuse them.
func TestEnvDecodeRejectsEntryOrder(t *testing.T) {
	env := EmptyEnv().Enter()
	for i, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		env = env.Bind(&Entry{Name: name, Kind: VarEntry, Type: IntegerType, Level: 1, Offset: -4 * (i + 1)})
	}
	header := func(n int) []byte {
		b := binary.AppendVarint(nil, int64(env.Level))
		b = binary.AppendVarint(b, int64(env.NextFree))
		return binary.AppendUvarint(b, uint64(n))
	}
	encode := func(entries []*Entry) []byte {
		b := header(len(entries))
		for _, ent := range entries {
			one, err := envCodec{}.Encode(&Env{tab: symtab.New().Add(ent.Name, ent), Level: env.Level, NextFree: env.NextFree})
			if err != nil {
				t.Fatal(err)
			}
			b = append(b, one[len(header(1)):]...)
		}
		return b
	}
	entries := env.Entries()
	good, err := envCodec{}.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(entries), good) {
		t.Fatal("entry-by-entry encoding differs from the codec's")
	}
	back, err := envCodec{}.Decode(good)
	if err != nil {
		t.Fatalf("in-order env: %v", err)
	}
	for _, ent := range entries {
		if _, ok := back.(*Env).Lookup(ent.Name); !ok {
			t.Errorf("in-order env lost %s", ent.Name)
		}
	}

	reversed := slices.Clone(entries)
	slices.Reverse(reversed)
	for name, bad := range map[string][]*Entry{
		"reversed":  reversed,
		"duplicate": {entries[0], entries[1], entries[1], entries[2]},
		"swapped":   {entries[0], entries[2], entries[1]},
	} {
		v, err := envCodec{}.Decode(encode(bad))
		if err == nil {
			missed := 0
			for _, ent := range bad {
				if _, ok := v.(*Env).Lookup(ent.Name); !ok {
					missed++
				}
			}
			t.Errorf("%s env decoded; %d of its %d lookups miss", name, missed, len(bad))
		}
	}
}

// TestCodecsRejectNonCanonical: every Pascal attribute decoder accepts
// exactly what its encoder writes. A trailing byte, an overlong varint,
// a flag other than 0/1 and an unknown type name are errors.
func TestCodecsRejectNonCanonical(t *testing.T) {
	sig := []*DeclSig{{Kind: ProcEntry, Name: "p", Type: ErrorType, Params: []Param{{Name: "x", Type: IntegerType, ByRef: true}}}}
	decl, err := declCodec{}.Encode(sig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (declCodec{}).Decode(decl); err != nil {
		t.Fatalf("valid decl rejected: %v", err)
	}
	// decl = count, kind, name, type (tag, name), value, params
	// (count, name, flag, type): the flag is the byte after "x".
	flag := bytes.LastIndexByte(decl, 'x') + 1
	if decl[flag] != 1 {
		t.Fatalf("decl layout: byte %d is %d, want the by-ref flag", flag, decl[flag])
	}
	badFlag := slices.Clone(decl)
	badFlag[flag] = 2
	badType := bytes.Replace(decl, []byte("integer"), []byte("integex"), 1)
	errs, err := errsCodec{}.Encode([]string{"e"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		codec ag.Codec
		data  []byte
	}{
		{"decl trailing byte", declCodec{}, append(slices.Clone(decl), 0)},
		{"decl flag 2", declCodec{}, badFlag},
		{"decl unknown type", declCodec{}, badType},
		{"errs trailing byte", errsCodec{}, append(slices.Clone(errs), 0)},
		{"errs overlong count", errsCodec{}, append([]byte{0x81, 0x00}, errs[1:]...)},
		{"env trailing byte", envCodec{}, []byte{0, 8, 0, 0}},
		{"env overlong level", envCodec{}, []byte{0x80, 0x00, 8, 0}},
	} {
		if v, err := c.codec.Decode(c.data); err == nil {
			t.Errorf("%s: %x decoded to %v", c.name, c.data, v)
		}
	}
}
