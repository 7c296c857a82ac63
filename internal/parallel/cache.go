package parallel

// Cache keys must be reproducible across runs — a hit returns a
// recorded result in place of evaluation (paglint/determinism).
//paglint:deterministic

import (
	"container/list"
	"sync"
	"sync/atomic"

	"pag/internal/ag"
	"pag/internal/rope"
	"pag/internal/tree"
)

// The whole-job cache memoizes compilations: a pool serving repeated
// traffic (resubmitted sources, the same edit compiled twice, shared
// workloads) skips attribute evaluation for a tree it has compiled
// before and returns the recorded outcome instead.
//
// Soundness dictates the key. The content address covers everything
// that determines the job's result:
//
//   - the grammar (pointer identity — the rules live on it),
//   - the combined hash of every fragment's post-cut subtree (symbols,
//     tokens, remote-leaf shape, in fragment order). The fragments
//     plus their remote-leaf structure reassemble into exactly one
//     whole tree, so this pins both the decomposition AND the whole
//     job tree — attribute rules being pure, it determines every
//     attribute value in the job (a separate whole-tree hash would be
//     redundant work on every lookup),
//   - every option that shapes the decomposition (effective fragment
//     width and granularity). The evaluator configuration is not an
//     input: every job runs the combined evaluator with
//     unique-identifier presets. Admission options (priority, client)
//     are not inputs either: they decide when a job runs, not what it
//     computes.
//
// One entry records one whole job: its root attributes and message
// count. A hit evaluates nothing and runs no fragment: it returns them
// as the job's result. Every clean cold run records, whatever its
// tree, so an edited tree misses once and hits from its second compile
// on.
type cacheKey struct {
	g         *ag.Grammar
	fragsHash tree.Digest // every post-cut fragment subtree, in order
	frags     int         // decomposition width the digests describe
	width     int         // effective fragment cap (decomposition input)
	gran      int         // effective granularity (decomposition input)
}

// cacheEntry is one job's recorded result, what a hit returns: the
// synthesized root attributes (the code attribute flattened to one
// leaf) and the cold run's cross-fragment message count. The disk tier
// stores exactly these fields (see disk.go).
type cacheEntry struct {
	key       cacheKey
	rootAttrs []ag.Value
	messages  int
	bytes     int64
}

// memSized is implemented by attribute value types that can estimate
// their own retained memory (symtab.Table above all), so an entry
// retaining one is charged for it and CacheBytes stays a real memory
// bound.
type memSized interface{ MemBytes() int }

// size estimates the entry's memory footprint for the byte budget: a
// fixed overhead plus each retained root attribute (the spliced
// program text above all).
func (e *cacheEntry) size() int64 {
	const entryCost, valueCost = 512, 64
	s := int64(entryCost)
	for _, v := range e.rootAttrs {
		s += valueCost
		switch x := v.(type) {
		case memSized:
			s += int64(x.MemBytes())
		case rope.Code:
			s += int64(x.CodeLen())
		}
	}
	return s
}

// jobCache is the pool's bounded, content-addressed whole-job cache:
// a mutex-guarded LRU over job results with a byte budget. Lookups
// happen once per job (nowhere near the per-message hot path), so a
// single mutex is deliberate.
type jobCache struct {
	max int64

	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List // front = oldest, back = most recently used

	bytes   atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

func newJobCache(maxBytes int64) *jobCache {
	return &jobCache{
		max:     maxBytes,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// get returns the entry for k, refreshing its recency. Entries are
// immutable after put, so the caller may use the result without the
// cache lock (an eviction racing a hit just unlinks the entry; the job
// keeps its reference).
func (c *jobCache) get(k cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToBack(el)
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// put publishes an entry for k (replacing any previous one — two
// concurrent identical jobs record interchangeable outcomes, so last
// write wins harmlessly) and evicts least-recently-used entries until
// the byte budget holds again.
func (c *jobCache) put(k cacheKey, e *cacheEntry) {
	e.key = k
	e.bytes = e.size()
	c.mu.Lock()
	if old, ok := c.entries[k]; ok {
		c.dropLocked(old)
	}
	c.entries[k] = c.lru.PushBack(e)
	c.bytes.Add(e.bytes)
	for c.bytes.Load() > c.max {
		front := c.lru.Front()
		if front == nil {
			break
		}
		c.dropLocked(front)
		c.evicted.Add(1)
	}
	c.mu.Unlock()
}

// dropLocked unlinks one entry. Caller holds c.mu.
func (c *jobCache) dropLocked(el *list.Element) {
	victim := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, victim.key)
	c.bytes.Add(-victim.bytes)
}

// len returns the current entry count.
func (c *jobCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
