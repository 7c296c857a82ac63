package rope_test

import (
	"testing"

	"pag/internal/rope"
)

// store is a test librarian: a handle->text map filled through the
// allocator of one evaluator's range.
type store map[int32]string

func (s store) rangeOf(id int) func(text string) (int32, error) {
	alloc := rope.HandleAllocator(id)
	return func(text string) (int32, error) {
		h, err := alloc()
		if err == nil {
			s[h] = text
		}
		return h, err
	}
}

func (s store) lookup(h int32) string { return s[h] }

// TestToDescriptorRoundTrip checks that converting a mixed Code value
// (local text + handles from another evaluator) to a descriptor and
// resolving it reproduces exactly the flattened text.
func TestToDescriptorRoundTrip(t *testing.T) {
	lib := store{}

	// A "child fragment" ships some code as a descriptor.
	child := rope.CatCode(rope.Text("child-a;"), rope.Text("child-b;"))
	childDesc, err := rope.ToDescriptor(child, lib.rangeOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if childDesc.NumHandles() != 1 {
		t.Fatalf("adjacent text runs should merge into one handle, got %d", childDesc.NumHandles())
	}

	// The "parent" splices it between local text and re-ships.
	parent := rope.CatCode(rope.Text("head;"), childDesc, rope.Text("tail;"))
	want := "head;child-a;child-b;tail;"
	if got := rope.FlattenCode(parent, lib.lookup); got != want {
		t.Fatalf("FlattenCode = %q, want %q", got, want)
	}
	parentDesc, err := rope.ToDescriptor(parent, lib.rangeOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parentDesc.Len(), len(want); got != want {
		t.Fatalf("descriptor length %d, want %d", got, want)
	}
	if got := parentDesc.Resolve(lib.lookup); got != want {
		t.Fatalf("Resolve = %q, want %q", got, want)
	}
	// The child's run is referenced, not copied: 3 handles (head, child, tail).
	if parentDesc.NumHandles() != 3 {
		t.Fatalf("parent descriptor has %d handles, want 3", parentDesc.NumHandles())
	}
}

// TestToDescriptorEmpty checks nil and empty Code values.
func TestToDescriptorEmpty(t *testing.T) {
	lib := store{}
	d, err := rope.ToDescriptor(nil, lib.rangeOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("nil code described %d bytes", d.Len())
	}
	if len(lib) != 0 {
		t.Fatalf("nil code stored %d strings", len(lib))
	}
}
