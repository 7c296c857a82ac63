// Package arena provides the paper's storage-allocation discipline
// (§4.3): "storage allocation is extremely fast throughout since we
// make no provision for reusing memory". An Arena hands out values from
// large slabs with a bump pointer and never frees individual objects;
// everything is reclaimed at once when the arena is dropped.
//
// Reuse happens only per whole arena. Clear zeroes every slab the arena
// has filled and hands the same slabs out again, for the next tree a
// fleet worker decodes once the last one's session has closed, much as
// the paper's evaluator process returned its memory when it exited.
// Inside one fragment the §4.3 rule still holds: nothing carved is
// freed or reused until the whole arena is cleared.
package arena

// slabSize is the number of objects allocated per slab.
const slabSize = 1024

// Arena is a bump allocator for values of type T. The zero value is
// ready to use. Arena is not safe for concurrent use; in the parallel
// compiler each evaluator machine owns its own arenas.
type Arena[T any] struct {
	slab  []T
	used  int
	total int
	kept  kept[T]
}

// New returns a pointer to a zeroed T with arena lifetime.
func (a *Arena[T]) New() *T {
	if a.used == len(a.slab) {
		a.slab = a.kept.next()
		a.used = 0
	}
	p := &a.slab[a.used]
	a.used++
	a.total++
	return p
}

// Allocated returns the number of objects handed out.
func (a *Arena[T]) Allocated() int { return a.total }

// Reset drops all slabs, releasing every allocation at once.
func (a *Arena[T]) Reset() {
	*a = Arena[T]{}
}

// Clear zeroes every object handed out and keeps the slabs, so the
// arena hands the same memory out again. From the first Clear on the
// arena keeps every slab it fills (before it, a filled slab is dropped
// as New moves on, and Clear can keep only the last). Every pointer New
// returned before Clear then points at an object that is zero and
// will be handed out again: drop them all first.
func (a *Arena[T]) Clear() {
	a.slab = a.kept.clear(a.slab, a.used)
	a.used, a.total = 0, 0
}

// Slabs reports how many slabs a cleared arena keeps.
func (a *Arena[T]) Slabs() int { return len(a.kept.slabs) }

// Slab is a bump allocator for exact-length slices of T: Make carves
// each requested slice out of large backing slabs, so allocating n
// small slices costs O(n/slabSize) heap allocations instead of n. The
// zero value is ready to use. Like Arena, a Slab never frees individual
// slices and is not safe for concurrent use; each fragment evaluator
// owns its own.
type Slab[T any] struct {
	buf   []T
	used  int
	total int
	kept  kept[T]
}

// Make returns a zeroed slice of length and capacity n with slab
// lifetime. The capacity is exact, so appending to the result copies
// instead of bleeding into a neighbouring carve.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if n >= slabSize {
		// Oversized requests get their own allocation; the current
		// slab's remaining capacity stays available for small carves.
		// Clear does not keep them.
		s.total += n
		return make([]T, n)
	}
	if s.used+n > len(s.buf) {
		s.buf = s.kept.next()
		s.used = 0
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	s.total += n
	return out
}

// Allocated returns the total number of elements handed out.
func (s *Slab[T]) Allocated() int { return s.total }

// Reset drops all slabs, releasing every carve at once.
func (s *Slab[T]) Reset() {
	*s = Slab[T]{}
}

// Clear zeroes every carve and keeps the slabs, like Arena.Clear:
// every slice Make returned before Clear must be dropped first.
func (s *Slab[T]) Clear() {
	s.buf = s.kept.clear(s.buf, s.used)
	s.used, s.total = 0, 0
}

// Slabs reports how many slabs a cleared Slab keeps.
func (s *Slab[T]) Slabs() int { return len(s.kept.slabs) }

// kept is the slab list of an arena that has been cleared: every slab
// it holds, in fill order, so Clear can zero them and the next fills
// take them again. Until the first Clear it holds nothing and next
// allocates, which leaves an arena that is never cleared as it was.
type kept[T any] struct {
	on    bool
	slabs [][]T
	cur   int // index of the slab in use; -1 before the first fill
}

// next returns an empty slab to carve from once the current one is
// full: the next kept slab, or a new one.
func (k *kept[T]) next() []T {
	if !k.on {
		return make([]T, slabSize)
	}
	k.cur++
	if k.cur == len(k.slabs) {
		k.slabs = append(k.slabs, make([]T, slabSize))
	}
	return k.slabs[k.cur]
}

// clear zeroes the slabs filled so far, given the current slab and how
// much of it is used, and returns the first slab to carve from again
// (nil when the arena never filled one).
func (k *kept[T]) clear(cur []T, used int) []T {
	if !k.on {
		k.on, k.cur = true, -1
		if cur != nil {
			k.slabs, k.cur = [][]T{cur}, 0
		}
	}
	if k.cur < 0 {
		return nil
	}
	for _, s := range k.slabs[:k.cur] {
		clear(s)
	}
	clear(cur[:used])
	k.cur = 0
	return k.slabs[0]
}
