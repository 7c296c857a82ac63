package arena_test

import (
	"testing"

	"pag/internal/arena"
)

type item struct {
	id   int
	next *item
}

func TestArenaAllocates(t *testing.T) {
	var a arena.Arena[item]
	ptrs := make([]*item, 5000)
	for i := range ptrs {
		p := a.New()
		p.id = i
		ptrs[i] = p
	}
	if a.Allocated() != 5000 {
		t.Errorf("Allocated = %d", a.Allocated())
	}
	// No reuse: every pointer distinct and values intact.
	seen := map[*item]bool{}
	for i, p := range ptrs {
		if p.id != i {
			t.Fatalf("ptrs[%d].id = %d (clobbered)", i, p.id)
		}
		if seen[p] {
			t.Fatalf("pointer reused at %d", i)
		}
		seen[p] = true
	}
}

func TestArenaZeroes(t *testing.T) {
	var a arena.Arena[item]
	p := a.New()
	if p.id != 0 || p.next != nil {
		t.Error("New returned non-zero value")
	}
}

func TestArenaReset(t *testing.T) {
	var a arena.Arena[item]
	for i := 0; i < 100; i++ {
		a.New()
	}
	a.Reset()
	if a.Allocated() != 0 {
		t.Errorf("Allocated after Reset = %d", a.Allocated())
	}
	p := a.New()
	if p == nil || a.Allocated() != 1 {
		t.Error("arena unusable after Reset")
	}
}

func TestSlabMakeExactCapacity(t *testing.T) {
	var s arena.Slab[int]
	a := s.Make(3)
	b := s.Make(4)
	if len(a) != 3 || cap(a) != 3 || len(b) != 4 || cap(b) != 4 {
		t.Fatalf("carves have wrong shape: len/cap %d/%d and %d/%d", len(a), cap(a), len(b), cap(b))
	}
	// Appending to a full-capacity carve must copy, not clobber b.
	a = append(a, 99)
	if b[0] != 0 {
		t.Errorf("append to one carve bled into the next: b[0] = %d", b[0])
	}
	if s.Allocated() != 7 {
		t.Errorf("Allocated = %d, want 7", s.Allocated())
	}
}

func TestSlabLargeAndZeroRequests(t *testing.T) {
	var s arena.Slab[byte]
	if got := s.Make(0); got != nil {
		t.Errorf("Make(0) = %v, want nil", got)
	}
	big := s.Make(5000) // larger than one slab
	if len(big) != 5000 {
		t.Fatalf("len = %d", len(big))
	}
	big[4999] = 1
	next := s.Make(8)
	if len(next) != 8 || next[0] != 0 {
		t.Errorf("allocation after oversized carve broken: len=%d first=%d", len(next), next[0])
	}
}

func TestSlabAllocationCount(t *testing.T) {
	var s arena.Slab[int32]
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 256; i++ {
			s.Make(4) // 1024 elements per slab => 1 heap allocation
		}
	})
	if allocs > 1 {
		t.Errorf("256 carves cost %.0f allocations; want <= 1", allocs)
	}
}

func TestArenaClearReusesZeroedSlabs(t *testing.T) {
	var a arena.Arena[item]
	a.Clear() // from here on every slab is kept
	first := map[*item]bool{}
	for i := 0; i < 3000; i++ {
		p := a.New()
		p.id, p.next = i+1, p
		first[p] = true
	}
	a.Clear()
	if a.Allocated() != 0 || a.Slabs() != 3 {
		t.Fatalf("after Clear: Allocated = %d, Slabs = %d; want 0 and 3", a.Allocated(), a.Slabs())
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 3000; i++ {
			p := a.New()
			if !first[p] || p.id != 0 || p.next != nil {
				t.Fatalf("New %d after Clear: reused=%v id=%d next=%v; want a zeroed kept object", i, first[p], p.id, p.next)
			}
			p.id = i
		}
		a.Clear()
	})
	if allocs != 0 {
		t.Errorf("refilling kept slabs cost %.0f allocations; want 0", allocs)
	}
}

func TestSlabClearReusesZeroedSlabs(t *testing.T) {
	var s arena.Slab[int]
	for i := 0; i < 300; i++ {
		for _, c := range [][]int{s.Make(5), s.Make(2000)} { // one slab-sized, one oversized
			c[0] = 7
		}
	}
	s.Clear() // keeps only the slab in use: earlier ones were dropped
	if s.Slabs() != 1 {
		t.Fatalf("first Clear kept %d slabs, want 1", s.Slabs())
	}
	fill := func() {
		for i := 0; i < 300; i++ {
			c := s.Make(5)
			if c[0] != 0 || c[4] != 0 {
				t.Fatalf("carve %d after Clear not zeroed: %v", i, c)
			}
			c[0], c[4] = 7, 7
		}
	}
	fill()
	s.Clear()
	kept := s.Slabs()
	if kept != 2 { // 300 carves of 5 at 204 per slab
		t.Fatalf("Slabs = %d, want 2", kept)
	}
	if allocs := testing.AllocsPerRun(3, func() { fill(); s.Clear() }); allocs != 0 {
		t.Errorf("refilling kept slabs cost %.0f allocations; want 0", allocs)
	}
	if s.Slabs() != kept || s.Allocated() != 0 {
		t.Errorf("Slabs = %d, Allocated = %d after refills; want %d and 0", s.Slabs(), s.Allocated(), kept)
	}
	s.Reset()
	if s.Slabs() != 0 {
		t.Errorf("Reset kept %d slabs", s.Slabs())
	}
}
