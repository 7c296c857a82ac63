package parallel

// Cache keys and canonical recordings must be reproducible across
// runs — replay correctness depends on it (paglint/determinism).
//paglint:deterministic

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/rope"
	"pag/internal/tree"
)

// The fragment cache makes fragments the unit of memoization the
// paper's decomposition makes natural: a compilation splits into
// subtrees evaluated independently, so a pool serving heavy repeated
// traffic (resubmitted sources, shared workloads) can skip attribute
// evaluation entirely and reuse a recorded outcome instead.
//
// Soundness dictates the key. A fragment's outputs are NOT a function
// of its own subtree alone: its inherited inputs (the global symbol
// table above all) depend on the entire program, and its remote leaves
// stand for children whose synthesized outputs depend on THEIR
// content. The content address therefore covers everything that
// determines every cross-fragment value in the job:
//
//   - the grammar (pointer identity — the rules live on it),
//   - the combined hash of every fragment's post-cut subtree (symbols,
//     tokens, remote-leaf shape, in fragment order). The fragments
//     plus their remote-leaf structure reassemble into exactly one
//     whole tree, so this pins both the decomposition AND the whole
//     job tree — attribute rules being pure, it determines every
//     attribute value in the job (a separate whole-tree hash would be
//     redundant work on every lookup),
//   - every option that shapes the decomposition or the values
//     (effective fragment width and granularity, mode, librarian, UID
//     preset, priority).
//
// One entry records one whole job. A whole-tree hit evaluates nothing
// and runs no fragment: it returns the recorded root attributes and
// job counters as the job's result. Recordings hold no librarian
// handles — a handle is a descriptor valid only inside the run that
// deposited its text (§4.3), so every handle-bearing code value is
// resolved to its text before the recording is published, and the
// recorded root attributes are already spliced.
//
// The INCREMENTAL layer reuses recordings for edited trees, whose
// whole-tree key misses, without giving up the soundness argument.
// Each recorded fragment also carries its
// inbound message set in a canonical order-independent form
// (fingerprints of the values it actually received). On a job whose
// whole-tree key misses, every fragment whose per-fragment content
// address (fragKey) has a recording becomes a REPLAY CANDIDATE: it
// waits in a tentative state, validating arriving inbound values
// against the recording, while edited/unknown fragments evaluate live
// through the normal scheduler. A candidate whose complete inbound set
// matches has, by rule purity, outputs equal to the recording — it
// commits, replaying its recorded outbound messages (code values
// recorded as resolved text are re-deposited under the new job's own
// handle ranges). Any mismatch — a value that
// differs, an instance the recording never received — demotes the
// candidate to ordinary live evaluation, which is what preserves
// inherited-attribute soundness: a fragment whose inherited inputs
// changed (the global symbol table above all) never replays. A
// candidate that can make no progress because it is waiting on other
// speculation is demoted at job quiescence, topmost first, so chains
// settle toward the maximal consistent replay set.
type cacheKey struct {
	g                    *ag.Grammar
	fragsHash            tree.Digest // every post-cut fragment subtree, in order
	frags                int         // decomposition width the digests describe
	width                int         // effective fragment cap (decomposition input)
	gran                 int         // effective granularity (decomposition input)
	mode                 cluster.Mode
	librarian, uidPreset bool
}

// cachedMsg is one recorded outbound attribute message of a fragment:
// to the root of child fragment target (toRoot) or to the remote leaf
// standing for this fragment in its parent. The value is shared as-is
// across jobs — attribute values are immutable by the purity
// requirement on semantic rules — and holds no librarian handle: a
// code value that crossed the boundary as a descriptor is recorded as
// one Leaf of its resolved text (resolved at publish time, while the
// recording job's librarian is still alive), and code is set. Replay
// re-deposits that text under the replaying fragment's own handle
// range and ships a fresh descriptor, exactly as the live fragment
// would have.
//
// wave is the number of inbound messages the fragment had received
// when it sent this one. "Sent after receiving only those inputs"
// proves, by rule purity, that the value is a function of the subtree
// plus that received prefix alone — so during incremental replay the
// message may be shipped as soon as the recording's first `wave`
// inbound instances (fragRecord.inOrder) have arrived with matching
// values, without waiting for the fragment's full inbound set. This is
// what keeps the paper's bottom-up first phase (declaration
// signatures) flowing out of tentative fragments: a wave-0 message
// depends on nothing external and replays immediately. The prefix is
// an over-approximation of the true dependencies (whatever happened to
// arrive earlier is included), which costs reuse in unlucky recordings
// but never soundness.
type cachedMsg struct {
	target int
	toRoot bool
	attr   int
	wave   int
	val    ag.Value
	code   bool // val is resolved text to re-deposit on replay
}

// inKey names one inbound attribute instance of a fragment in
// job-independent coordinates: an inherited attribute of the fragment
// root (leaf == rootSlot) or a synthesized attribute arriving at the
// remote leaf standing for child fragment `leaf`. The (leaf, attr)
// pairs a fragment consumes are determined by its post-cut subtree and
// the grammar, so the key set is identical across jobs that share the
// fragment's content address.
type inKey struct {
	leaf int // child fragment id, or rootSlot for the fragment root
	attr int
}

// rootSlot is the inKey.leaf value for messages addressed to the
// fragment root (inherited attributes from the parent).
const rootSlot = -1

// valFP is the canonical fingerprint of one attribute value: SHA-256
// over a canonical byte form (codec encoding, or resolved text for
// code values — see fingerprintValue). Fingerprints are what make the
// inbound set order-independent AND run-independent: two values
// fingerprint equal iff they are indistinguishable to the simulated
// cluster's network codecs, which is exactly the equivalence the
// byte-identity oracle is built on.
type valFP [sha256.Size]byte

// fingerprintValue computes the canonical fingerprint of attribute
// attr of sym holding v. Code values (which may carry librarian
// handles whose numbering is run-private) are resolved to their text
// via lookup; every other value goes through the attribute's network
// codec, the same canonical byte form the simulated cluster ships. A
// value with no canonical form (no codec) cannot be fingerprinted; the
// caller treats that as "never matches".
func fingerprintValue(sym *ag.Symbol, attr int, v ag.Value, lookup func(int32) string) (valFP, error) {
	h := sha256.New()
	switch x := v.(type) {
	case nil:
		h.Write([]byte{'N'})
	case rope.Code:
		h.Write([]byte{'C'})
		h.Write([]byte(rope.FlattenCode(x, lookup)))
	default:
		codec := sym.Attrs[attr].Codec
		if codec == nil {
			return valFP{}, fmt.Errorf("parallel: %s.%s has no codec to fingerprint", sym.Name, sym.Attrs[attr].Name)
		}
		data, err := codec.Encode(v)
		if err != nil {
			return valFP{}, err
		}
		h.Write([]byte{'E'})
		h.Write(data)
	}
	var fp valFP
	h.Sum(fp[:0])
	return fp, nil
}

// holdsHandle reports whether code references librarian text by
// handle — a descriptor valid only inside the run that deposited it.
func holdsHandle(code rope.Code) bool {
	found := false
	rope.WalkCode(code, func(string) {}, func(int32, int) { found = true })
	return found
}

// inObs is one observed inbound message in canonical coordinates, the
// input to canonInbound.
type inObs struct {
	key inKey
	fp  valFP
}

// canonInbound folds observed inbound messages into the canonical
// order-independent form stored in a fragment recording: a map from
// instance key to value fingerprint. Each attribute instance is sent
// exactly once per run, so observation order carries no information;
// any permutation of obs yields the same map. A duplicate key with a
// conflicting fingerprint would mean the run violated the
// one-value-per-instance invariant — canonInbound reports it rather
// than let an ill-formed recording match anything.
func canonInbound(obs []inObs) (map[inKey]valFP, error) {
	m := make(map[inKey]valFP, len(obs))
	for _, o := range obs {
		if prev, ok := m[o.key]; ok && prev != o.fp {
			return nil, fmt.Errorf("parallel: inbound instance (leaf %d, attr %d) observed with two values", o.key.leaf, o.key.attr)
		}
		m[o.key] = o.fp
	}
	return m, nil
}

// fragRecord is one fragment's recorded outcome: its outbound
// messages (in send order, handle-free), its inbound message set in
// canonical order-independent form (what gates incremental replay: the
// recording may be reused under a DIFFERENT whole tree only if the
// fragment actually receives these exact values), and — for the root
// fragment — the job's post-splice root attributes. inbound == nil
// marks a recording that cannot be validated (a value had no
// canonical form); it is never offered as an incremental candidate,
// though its entry still serves whole-tree hits.
type fragRecord struct {
	msgs []cachedMsg
	// inOrder lists the fragment's inbound instance keys in the order
	// the recording received them; cachedMsg.wave values index into
	// this sequence (a message of wave w may replay once the keys
	// inOrder[:w] have all matched).
	inOrder   []inKey
	inbound   map[inKey]valFP
	rootAttrs []ag.Value
}

// fragKey is the per-fragment content address of the incremental
// cache index. It covers everything that determines a fragment's
// outputs GIVEN its inbound values: the grammar, the canonical hash of
// its post-cut subtree (symbols, tokens, remote-leaf shape including
// the child fragment ids), its own id and parent id (the id fixes the
// §4.3 unique-identifier base and the librarian handle range; id 0 is
// the root fragment, which routes synthesized results to the caller
// instead of a parent), and every option that shapes evaluation inside
// a fragment. Decomposition inputs (width, granularity) are
// deliberately absent: two decompositions that happen to produce the
// same fragment shape at the same id may share recordings.
type fragKey struct {
	g                    *ag.Grammar
	hash                 tree.Digest
	id, parent           int
	mode                 cluster.Mode
	librarian, uidPreset bool
}

// cacheEntry is one job's complete recording: every fragment's record,
// and what a whole-tree hit returns as its result — the synthesized
// root attributes (librarian-free: the code attribute has been spliced
// to text) and the cold run's cross-fragment message count and
// librarian activity. fragKeys mirrors frags (entry i's per-fragment
// index key), kept so eviction can unregister the entry's fragments
// from the incremental index.
type cacheEntry struct {
	key           cacheKey
	frags         []fragRecord
	fragKeys      []fragKey
	rootAttrs     []ag.Value
	messages      int
	storedStrings int
	storedBytes   int
	bytes         int64
}

// memSized is implemented by attribute value types that can estimate
// their own retained memory (symtab.Table above all — the global
// symbol table is the dominant cross-fragment value, and an entry
// retaining one per message must be charged for it or CacheBytes
// stops being a real memory bound).
type memSized interface{ MemBytes() int }

// valSize estimates the retained footprint of one shared attribute
// value. The same value reaches many messages (the global symbol
// table is sent to every fragment), so measured values are memoized in
// seen by identity — one walk per distinct value, and a value's weight
// is charged once per entry rather than once per message. Structure
// shared between *distinct* values (persistent symbol-table versions,
// rope subtrees) is still charged to each, erring on the side of
// overcounting — a cache that evicts early beats one that quietly
// outgrows its budget. Only the measured branches touch seen: their
// values are pointer-shaped and safe as map keys, while an arbitrary
// default-branch value need not be comparable.
func valSize(v ag.Value, seen map[ag.Value]bool) int64 {
	const valueCost = 64
	switch x := v.(type) {
	case memSized:
		if seen[v] {
			return valueCost
		}
		seen[v] = true
		return valueCost + int64(x.MemBytes())
	case rope.Code:
		if seen[v] {
			return valueCost
		}
		seen[v] = true
		return valueCost + int64(x.CodeLen())
	default:
		return valueCost
	}
}

// size estimates the entry's memory footprint for the byte budget:
// retained attribute values (recorded code text above all) and
// per-message overhead dominate.
func (e *cacheEntry) size() int64 {
	const entryCost, msgCost, fpCost = 512, 64, 48
	seen := make(map[ag.Value]bool)
	s := int64(entryCost)
	for i := range e.frags {
		f := &e.frags[i]
		s += entryCost
		for j := range f.msgs {
			s += msgCost + valSize(f.msgs[j].val, seen)
		}
		s += fpCost * int64(len(f.inbound)+len(f.inOrder))
	}
	for _, v := range e.rootAttrs {
		s += valSize(v, seen)
	}
	return s
}

// fragCache is the pool's bounded, content-addressed fragment cache: a
// mutex-guarded LRU over whole-job recordings with a byte budget, plus
// an incremental index (frags) mapping each recorded fragment's
// content address to its record inside the latest entry that recorded
// it. Lookups happen per job and per fragment at job setup (nowhere
// near the per-message hot path), so a single mutex is deliberate.
type fragCache struct {
	max int64

	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List // front = oldest, back = most recently used
	frags   map[fragKey]fragRef

	bytes   atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64

	// Incremental-path counters: fragments completed by per-fragment
	// replay, jobs that committed at least one such replay, and
	// replay candidates demoted to live evaluation (an inbound value
	// mismatched the recording, or the candidate deadlocked waiting on
	// speculation and was forced live at quiescence).
	partialHits atomic.Int64
	partialJobs atomic.Int64
	demoted     atomic.Int64
}

// fragRef locates one fragment's record inside a cache entry.
type fragRef struct {
	entry *cacheEntry
	idx   int
}

func newFragCache(maxBytes int64) *fragCache {
	return &fragCache{
		max:     maxBytes,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
		frags:   make(map[fragKey]fragRef),
	}
}

// get returns the entry for k, refreshing its recency. Entries are
// immutable after put, so the caller may use the result without the
// cache lock (an eviction racing a replay just unlinks the entry; the
// job keeps its reference).
func (c *fragCache) get(k cacheKey) (*cacheEntry, bool) {
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

// lookupFrag returns the incremental-replay candidate for fragment key
// k, if any: a pointer into the (immutable after put) record of the
// latest entry that recorded an identically addressed fragment, and
// the entry's post-splice root attributes for the root fragment.
// Records whose inbound set could not be canonicalized are never
// offered. Like get, the caller may keep using the result after an
// eviction unlinks the entry.
func (c *fragCache) lookupFrag(k fragKey) (*fragRecord, bool) {
	c.mu.Lock()
	ref, ok := c.frags[k]
	if ok {
		c.lru.MoveToBack(c.entries[ref.entry.key])
	}
	c.mu.Unlock()
	if !ok || ref.entry.frags[ref.idx].inbound == nil {
		return nil, false
	}
	return &ref.entry.frags[ref.idx], true
}

// put publishes an entry for k (replacing any previous one — two
// concurrent identical jobs record interchangeable outcomes, so last
// write wins harmlessly), registers its fragments in the incremental
// index, and evicts least-recently-used entries until the byte budget
// holds again.
func (c *fragCache) put(k cacheKey, e *cacheEntry) {
	e.key = k
	e.bytes = e.size()
	c.mu.Lock()
	if old, ok := c.entries[k]; ok {
		c.dropLocked(old)
	}
	c.entries[k] = c.lru.PushBack(e)
	for i, fk := range e.fragKeys {
		c.frags[fk] = fragRef{entry: e, idx: i}
	}
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

// dropLocked unlinks one entry and its incremental-index registrations
// (only those still pointing at it — a later recording of the same
// fragment key keeps its newer record). Caller holds c.mu.
func (c *fragCache) dropLocked(el *list.Element) {
	victim := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, victim.key)
	for _, fk := range victim.fragKeys {
		if ref, ok := c.frags[fk]; ok && ref.entry == victim {
			delete(c.frags, fk)
		}
	}
	c.bytes.Add(-victim.bytes)
}

// len returns the current entry count.
func (c *fragCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
