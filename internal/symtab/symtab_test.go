package symtab_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pag/internal/symtab"
)

func TestEmptyTable(t *testing.T) {
	e := symtab.New()
	if e.Len() != 0 || e.Depth() != 0 {
		t.Errorf("empty table: len=%d depth=%d", e.Len(), e.Depth())
	}
	if _, ok := e.Lookup("x"); ok {
		t.Error("empty table claims a binding")
	}
	var nilTable *symtab.Table
	if _, ok := nilTable.Lookup("x"); ok {
		t.Error("nil table claims a binding")
	}
	if nilTable.Len() != 0 {
		t.Error("nil table has nonzero length")
	}
}

func TestAddLookup(t *testing.T) {
	tab := symtab.New()
	for i := 0; i < 100; i++ {
		tab = tab.Add(fmt.Sprintf("name%d", i), i)
	}
	if tab.Len() != 100 {
		t.Fatalf("len = %d, want 100", tab.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := tab.Lookup(fmt.Sprintf("name%d", i))
		if !ok || v != i {
			t.Fatalf("Lookup(name%d) = %v, %v", i, v, ok)
		}
	}
	if _, ok := tab.Lookup("missing"); ok {
		t.Error("found a binding that was never added")
	}
}

func TestApplicativeUpdate(t *testing.T) {
	// The paper's requirement: st_add returns a table identical to its
	// input except for the new binding; the old version stays usable.
	v1 := symtab.New().Add("x", 1).Add("y", 2)
	v2 := v1.Add("x", 10) // shadow
	if v, _ := v1.Lookup("x"); v != 1 {
		t.Errorf("old version changed: x = %v", v)
	}
	if v, _ := v2.Lookup("x"); v != 10 {
		t.Errorf("new version wrong: x = %v", v)
	}
	if v1.Len() != 2 || v2.Len() != 2 {
		t.Errorf("shadowing changed sizes: %d, %d", v1.Len(), v2.Len())
	}
}

func TestBalancedDepth(t *testing.T) {
	// Hash-distributed keys keep the tree near log2(n) deep (§4.3).
	tab := symtab.New()
	n := 1024
	for i := 0; i < n; i++ {
		tab = tab.Add(fmt.Sprintf("identifier_%04d", i), i)
	}
	// Random BSTs average ~3·log2(n) deep with visible variance; the
	// point is that hashing avoids the O(n) degeneration of inserting
	// sorted identifiers directly.
	maxDepth := int(8 * math.Log2(float64(n)))
	if d := tab.Depth(); d > maxDepth {
		t.Errorf("depth %d for %d sorted-name inserts, want <= %d (hashing should balance)", d, n, maxDepth)
	}
}

func TestFromEntriesBalanced(t *testing.T) {
	// Rebuilding from sorted entries must NOT degenerate (the network
	// decode path).
	tab := symtab.New()
	n := 512
	for i := 0; i < n; i++ {
		tab = tab.Add(fmt.Sprintf("v%d", i), i)
	}
	rebuilt := symtab.FromEntries(tab.Entries())
	if rebuilt.Len() != n {
		t.Fatalf("rebuilt len = %d, want %d", rebuilt.Len(), n)
	}
	if d := rebuilt.Depth(); d > 2*int(math.Log2(float64(n)))+2 {
		t.Errorf("rebuilt depth %d, want near log2(%d)=%d (median-split build)", d, n, int(math.Log2(float64(n))))
	}
	for i := 0; i < n; i++ {
		v, ok := rebuilt.Lookup(fmt.Sprintf("v%d", i))
		if !ok || v != i {
			t.Fatalf("rebuilt Lookup(v%d) = %v, %v", i, v, ok)
		}
	}
}

func TestEntriesRoundTripProperty(t *testing.T) {
	// Property: for any set of names, Entries/FromEntries preserves all
	// bindings.
	f := func(names []string) bool {
		tab := symtab.New()
		want := map[string]int{}
		for i, n := range names {
			tab = tab.Add(n, i)
			want[n] = i
		}
		rebuilt := symtab.FromEntries(tab.Entries())
		if rebuilt.Len() != len(want) {
			return false
		}
		for n, v := range want {
			got, ok := rebuilt.Lookup(n)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLookupNeverInventsProperty(t *testing.T) {
	// Property: Lookup finds exactly the added names.
	f := func(added []string, probe string) bool {
		tab := symtab.New()
		want := false
		for _, n := range added {
			tab = tab.Add(n, n)
			if n == probe {
				want = true
			}
		}
		_, ok := tab.Lookup(probe)
		return ok == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentReadersAndDerivers checks the property the real
// parallel runtime (internal/parallel) relies on: applicative tables
// are immutable, so any number of goroutines may look up a shared table
// and derive new tables from it concurrently without synchronization.
// Run with -race.
func TestConcurrentReadersAndDerivers(t *testing.T) {
	base := symtab.New()
	for i := 0; i < 64; i++ {
		base = base.Add(fmt.Sprintf("shared%02d", i), i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := base
			for i := 0; i < 64; i++ {
				// Readers see the shared structure...
				if v, ok := base.Lookup(fmt.Sprintf("shared%02d", i)); !ok || v != i {
					t.Errorf("goroutine %d: shared%02d = %v, %v", g, i, v, ok)
					return
				}
				// ...while derivers extend it privately.
				local = local.Add(fmt.Sprintf("g%d-%d", g, i), g*1000+i)
			}
			if local.Len() != base.Len()+64 {
				t.Errorf("goroutine %d: derived table has %d entries, want %d", g, local.Len(), base.Len()+64)
			}
		}(g)
	}
	wg.Wait()
	if base.Len() != 64 {
		t.Errorf("base table mutated: %d entries, want 64", base.Len())
	}
}

// TestIntTableCodec: the int-valued table codec round-trips values past
// int32, rebuilds the table by Add in wire order, and refuses entries
// out of key order or twice, trailing bytes and non-int values.
func TestIntTableCodec(t *testing.T) {
	c := symtab.IntTableCodec{}
	tab := symtab.New()
	for i := 0; i < 16; i++ {
		tab = tab.Add(fmt.Sprintf("v%d", i), i<<28)
	}
	data, err := c.Encode(tab)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	back := v.(*symtab.Table)
	want := symtab.New()
	for _, e := range tab.Entries() {
		got, ok := back.Lookup(e.Name)
		if !ok || got != e.Val {
			t.Errorf("%s: got %v, %v; want %v", e.Name, got, ok, e.Val)
		}
		want = want.Add(e.Name, e.Val)
	}
	if back.Len() != tab.Len() || back.Depth() != want.Depth() {
		t.Errorf("decoded %d entries at depth %d, want %d at depth %d", back.Len(), back.Depth(), tab.Len(), want.Depth())
	}

	entries := tab.Entries()
	encode := func(order []symtab.Entry) []byte {
		b := binary.AppendUvarint(nil, uint64(len(order)))
		for _, e := range order {
			b = binary.AppendUvarint(b, uint64(len(e.Name)))
			b = append(b, e.Name...)
			b = binary.AppendVarint(b, int64(e.Val.(int)))
		}
		return b
	}
	if !bytes.Equal(encode(entries), data) {
		t.Fatal("hand encoding differs from the codec's")
	}
	for name, bad := range map[string][]byte{
		"reversed":      encode([]symtab.Entry{entries[1], entries[0]}),
		"duplicate":     encode([]symtab.Entry{entries[0], entries[0]}),
		"trailing byte": append(encode(entries[:2]), 0),
		"overlong":      append([]byte{0x81, 0x00}, encode(entries[:1])[1:]...),
	} {
		if v, err := c.Decode(bad); err == nil {
			t.Errorf("%s: %x decoded to %v", name, bad, v)
		}
	}
	for _, v := range []any{symtab.New().Add("x", "text"), 3, nil} {
		if _, err := c.Encode(v); err == nil {
			t.Errorf("encoded %v", v)
		}
	}
}
