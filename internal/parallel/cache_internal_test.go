package parallel

import (
	"slices"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/pascal"
	"pag/internal/rope"
	"pag/internal/tree"
	"pag/internal/workload"
)

func testKey(i int) cacheKey { return cacheKey{src: tree.Digest{byte(i)}, width: 1} }

// testEntry is an entry whose only retained value is a code root
// attribute of textBytes bytes.
func testEntry(textBytes int) *cacheEntry {
	code := rope.Leaf(string(make([]byte, textBytes)))
	return &cacheEntry{rootAttrs: []ag.Value{code}}
}

// TestFragCacheLRU pins the eviction mechanics: the byte budget holds,
// eviction is least-recently-used, and a get refreshes recency.
func TestFragCacheLRU(t *testing.T) {
	// An entry costs entryCost(512) + valueCost(64) + text bytes, 1476
	// here: a 3000-byte budget fits two 900-byte-text entries but not
	// three.
	c := newJobCache(3000)
	a, b, d := testEntry(900), testEntry(900), testEntry(900)
	c.put(testKey(1), a)
	c.put(testKey(2), b)
	if _, ok := c.get(testKey(1)); !ok { // refresh a: 2 becomes LRU
		t.Fatal("entry 1 missing before any eviction")
	}
	c.put(testKey(3), d)
	if _, ok := c.get(testKey(2)); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	if _, ok := c.get(testKey(1)); !ok {
		t.Error("recently used entry 1 was evicted")
	}
	if _, ok := c.get(testKey(3)); !ok {
		t.Error("fresh entry 3 was evicted")
	}
	if got := c.evicted.Load(); got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if c.bytes.Load() > c.max {
		t.Errorf("bytes %d exceed budget %d", c.bytes.Load(), c.max)
	}

	// Replacing a key must not double-count bytes or leak list nodes.
	before := c.bytes.Load()
	c.put(testKey(3), testEntry(900))
	if c.len() != 2 || c.bytes.Load() != before {
		t.Errorf("replacement changed accounting: len=%d bytes=%d (was %d)", c.len(), c.bytes.Load(), before)
	}

	// An entry larger than the whole budget is evicted immediately but
	// never corrupts the books.
	c.put(testKey(4), testEntry(10_000))
	if c.bytes.Load() > c.max {
		t.Errorf("oversized entry left bytes at %d over budget %d", c.bytes.Load(), c.max)
	}
}

// TestFragCacheStatsCounters checks hit/miss accounting.
func TestFragCacheStatsCounters(t *testing.T) {
	c := newJobCache(1 << 20)
	if _, ok := c.get(testKey(9)); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(testKey(9), testEntry(10))
	if _, ok := c.get(testKey(9)); !ok {
		t.Fatal("miss after put")
	}
	if c.hits.Load() != 1 || c.misses.Load() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.hits.Load(), c.misses.Load())
	}
}

// TestRecordingsHoldNoHandles pins the recording invariant: after a
// cold compile, no recorded root attribute references librarian text
// by handle, so the recording encodes. Handed a root
// code attribute that still holds a handle, encodeEntry returns the
// code codec's error instead of panicking (the spill writer goroutine
// has no recover).
func TestRecordingsHoldNoHandles(t *testing.T) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	entry := recordEntry(t, job, Options{Fragments: 4})
	for ai, v := range entry.rootAttrs {
		code, ok := v.(rope.Code)
		if !ok {
			continue
		}
		rope.WalkCode(code, func(string) {}, func(int32, int) {
			t.Errorf("root attribute %d holds a librarian handle", ai)
		})
	}
	if _, err := encodeEntry(entry, job.G); err != nil {
		t.Fatalf("handle-free recording does not encode: %v", err)
	}

	bad := *entry
	bad.rootAttrs = slices.Clone(entry.rootAttrs)
	bad.rootAttrs[cluster.CodeAttr(job.G)] = rope.CatCode(rope.Leaf("x"), rope.HandleDesc(rope.HandleBase(0), 3))
	if _, err := encodeEntry(&bad, job.G); err == nil || !strings.Contains(err.Error(), "cannot flatten librarian handles") {
		t.Errorf("encoding a root handle returned %v, want the code codec's librarian handle error", err)
	}
}
