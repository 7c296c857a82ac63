package rope_test

import (
	"strings"
	"testing"
	"testing/quick"

	"pag/internal/rope"
)

func TestLeafAndConcat(t *testing.T) {
	r := rope.Concat(rope.Leaf("hello, "), rope.Leaf("world"))
	if got := r.String(); got != "hello, world" {
		t.Errorf("String() = %q", got)
	}
	if r.Len() != 12 {
		t.Errorf("Len() = %d", r.Len())
	}
	if r.NumLeaves() != 2 {
		t.Errorf("NumLeaves() = %d", r.NumLeaves())
	}
}

func TestNilRope(t *testing.T) {
	var r *rope.Rope
	if r.Len() != 0 || r.String() != "" || r.Depth() != 0 {
		t.Error("nil rope should behave as empty")
	}
	if got := rope.Concat(nil, rope.Leaf("x")).String(); got != "x" {
		t.Errorf("Concat(nil, x) = %q", got)
	}
	if got := rope.Concat(rope.Leaf("x"), nil).String(); got != "x" {
		t.Errorf("Concat(x, nil) = %q", got)
	}
	if rope.Leaf("") != nil {
		t.Error("Leaf(\"\") should be nil (empty)")
	}
}

func TestConcatIsConstantShape(t *testing.T) {
	// Concat never copies text: n concats of one leaf produce a tree
	// with exactly n leaves.
	var r *rope.Rope
	for i := 0; i < 100; i++ {
		r = rope.Concat(r, rope.Leaf("x"))
	}
	if r.NumLeaves() != 100 {
		t.Errorf("NumLeaves = %d, want 100", r.NumLeaves())
	}
	if r.Len() != 100 {
		t.Errorf("Len = %d, want 100", r.Len())
	}
}

func TestWriteTo(t *testing.T) {
	r := rope.ConcatAll(rope.Leaf("a"), rope.Leaf("b"), rope.Leaf("c"))
	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil || n != 3 || sb.String() != "abc" {
		t.Errorf("WriteTo: n=%d err=%v out=%q", n, err, sb.String())
	}
}

func TestConcatEquivalenceProperty(t *testing.T) {
	// Property: rope concatenation equals string concatenation.
	f := func(parts []string) bool {
		var r *rope.Rope
		var want strings.Builder
		for _, p := range parts {
			r = rope.Concat(r, rope.Leaf(p))
			want.WriteString(p)
		}
		return r.String() == want.String() && r.Len() == want.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDescriptor(t *testing.T) {
	store := map[int32]string{1: "alpha ", 2: "beta ", 3: "gamma"}
	d := rope.ConcatDesc(
		rope.ConcatDesc(rope.HandleDesc(1, 6), rope.HandleDesc(2, 5)),
		rope.HandleDesc(3, 5))
	if d.Len() != 16 {
		t.Errorf("Len = %d, want 16", d.Len())
	}
	if d.NumHandles() != 3 {
		t.Errorf("NumHandles = %d", d.NumHandles())
	}
	got := d.Resolve(func(h int32) string { return store[h] })
	if got != "alpha beta gamma" {
		t.Errorf("Resolve = %q", got)
	}
	if d.WireSize() >= d.Len()+5 {
		t.Errorf("descriptor wire size %d not smaller than text %d", d.WireSize(), d.Len())
	}
}

func TestCodeMixing(t *testing.T) {
	// Code values mix local text and librarian handles.
	mixed := rope.CatCode(
		rope.Text("head "),
		rope.HandleDesc(7, 4),
		rope.Text(" tail 42"),
	)
	if mixed.CodeLen() != len("head ")+4+len(" tail 42") {
		t.Errorf("CodeLen = %d", mixed.CodeLen())
	}
	var texts, handles int
	rope.WalkCode(mixed,
		func(string) { texts++ },
		func(int32, int) { handles++ })
	if texts != 2 || handles != 1 {
		t.Errorf("walk saw %d texts, %d handles", texts, handles)
	}
	got := rope.FlattenCode(mixed, func(h int32) string { return "BODY" })
	if got != "head BODY tail 42" {
		t.Errorf("FlattenCode = %q", got)
	}
}

func TestCodeCodecNaive(t *testing.T) {
	c := rope.CodeCodec{}
	data, err := c.Encode(rope.CatCode(rope.Text("abc"), rope.Text("def")))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := rope.FlattenCode(v.(rope.Code), nil); got != "abcdef" {
		t.Errorf("round trip = %q", got)
	}
	// Naive flattening must reject librarian handles.
	if _, err := c.Encode(rope.HandleDesc(1, 3)); err == nil {
		t.Error("naive codec accepted a handle")
	}
}

func TestCodeCodecShip(t *testing.T) {
	c := rope.CodeCodec{Librarian: true}
	store := map[int32]string{}
	next := int32(100)
	save := func(text string) (int32, error) {
		next++
		store[next] = text
		return next, nil
	}
	// Mixed value: local text around a pre-existing handle.
	orig := rope.CatCode(rope.Text("pre "), rope.HandleDesc(5, 3), rope.Text(" post"))
	store[5] = "MID"
	data, err := c.EncodeShip(save, orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= orig.CodeLen() {
		t.Errorf("descriptor (%d bytes) not smaller than text (%d)", len(data), orig.CodeLen())
	}
	v, err := c.DecodeShip(data)
	if err != nil {
		t.Fatal(err)
	}
	got := rope.FlattenCode(v.(rope.Code), func(h int32) string { return store[h] })
	if got != "pre MID post" {
		t.Errorf("ship round trip = %q", got)
	}
}

func TestShipRoundTripProperty(t *testing.T) {
	// Property: EncodeShip/DecodeShip preserves the text for any run
	// structure.
	c := rope.CodeCodec{Librarian: true}
	f := func(parts []string) bool {
		var code rope.Code
		var want strings.Builder
		for _, p := range parts {
			code = rope.CatCode(code, rope.Text(p))
			want.WriteString(p)
		}
		store := map[int32]string{}
		next := int32(0)
		data, err := c.EncodeShip(func(s string) (int32, error) {
			next++
			store[next] = s
			return next, nil
		}, code)
		if err != nil {
			return false
		}
		v, err := c.DecodeShip(data)
		if err != nil {
			return false
		}
		got := rope.FlattenCode(v.(rope.Code), func(h int32) string { return store[h] })
		return got == want.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
