package rope

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Handle-range layout of the string librarian (§4.3), shared by the
// runtimes whose fragments talk over a wire (the simulated cluster and
// the worker fleet): evaluator (fragment or machine) id maps to a
// private range of 2^HandleRangeBits handles, so concurrent evaluators
// never contend on a shared counter and handle values stay
// deterministic per fragment. A range runs out only after a
// million-odd discrete stores by one evaluator, which the maximal-run
// aggregation of ToDescriptor makes unreachable in practice.
const (
	// HandleRangeBits is the width of one evaluator's handle range.
	HandleRangeBits = 20
	// MaxHandleRanges is how many disjoint ranges fit in a positive
	// int32; runtimes must not use more evaluators than this with a
	// librarian (ranges would wrap and collide silently).
	MaxHandleRanges = 1 << (31 - HandleRangeBits)
	// RangeCap is how many handles one range may hand out before its
	// allocator fails; every store path shares this one cap.
	RangeCap = 1<<HandleRangeBits - 1
)

// ErrRangeExhausted reports that one evaluator's private handle range
// ran out of handles. Store paths return it (wrapped) instead of
// walking into the neighbouring range and corrupting its strings
// silently; runtimes turn it into a per-job failure.
var ErrRangeExhausted = errors.New("rope: handle range exhausted")

// rangeCap is RangeCap as a variable, only so tests can lower it (the
// real value is unreachable in practice, see above). Atomic so a test
// restoring the cap never races a worker goroutine reading it.
var rangeCap atomic.Int32

func init() { rangeCap.Store(RangeCap) }

// SetRangeCapForTesting lowers the shared per-range handle cap and
// returns a restore function. It exists only so exhaustion tests don't
// need a million stores; production code must never call it.
func SetRangeCapForTesting(n int32) (restore func()) {
	old := rangeCap.Swap(n)
	return func() { rangeCap.Store(old) }
}

// HandleAllocator hands out handles from evaluator id's private range:
// base+1, base+2, ... The returned function must be used from a single
// goroutine; it fails with a wrapped ErrRangeExhausted once the range
// is spent. Every store path (simulated cluster machines, fleet worker
// sessions) allocates through this one cap check.
func HandleAllocator(id int) func() (int32, error) {
	base := HandleBase(id)
	next := base
	return func() (int32, error) {
		if next-base >= rangeCap.Load() {
			return 0, fmt.Errorf("%w: range starting at %d is out of handles", ErrRangeExhausted, base)
		}
		next++
		return next, nil
	}
}

// HandleBase returns the first handle of evaluator id's private range.
// id must be in [0, MaxHandleRanges).
func HandleBase(id int) int32 {
	if id < 0 || id >= MaxHandleRanges {
		panic(fmt.Sprintf("rope: handle range %d out of bounds [0, %d)", id, MaxHandleRanges))
	}
	return int32(id) << HandleRangeBits
}

// ToDescriptor converts a Code value into a pure Descriptor: maximal
// runs of local text are deposited via store and replaced by their
// handles, and handles already present (descriptors received from other
// evaluators) are kept as-is. It is the run aggregation behind
// CodeCodec.EncodeShip — the value crossing the fragment boundary has
// size proportional to the number of referenced runs, not the text
// length. A nil Code yields a nil (empty) Descriptor. A store failure
// (handle-range exhaustion) aborts the walk and is returned.
func ToDescriptor(c Code, store func(text string) (int32, error)) (*Descriptor, error) {
	var d *Descriptor
	var err error
	var run strings.Builder
	flush := func() {
		if run.Len() == 0 || err != nil {
			return
		}
		s := run.String()
		run.Reset()
		h, storeErr := store(s)
		if storeErr != nil {
			err = storeErr
			return
		}
		d = ConcatDesc(d, HandleDesc(h, len(s)))
	}
	WalkCode(c,
		func(s string) {
			if err == nil {
				run.WriteString(s)
			}
		},
		func(h int32, n int) {
			flush()
			if err == nil {
				d = ConcatDesc(d, HandleDesc(h, n))
			}
		})
	flush()
	if err != nil {
		return nil, err
	}
	return d, nil
}
