package rope

import (
	"errors"
	"testing"
)

// TestRangeExhaustionErrors checks that running out of a private
// handle range while shipping code fails with ErrRangeExhausted
// instead of colliding with the next range (or, as it once did,
// panicking the whole process), and that the failed store deposits
// nothing. The capacity is lowered for the test; reaching the real
// 2^20 bound would need a million stores.
func TestRangeExhaustionErrors(t *testing.T) {
	defer SetRangeCapForTesting(3)()

	alloc := HandleAllocator(0)
	stored := map[int32]string{}
	store := func(text string) (int32, error) {
		h, err := alloc()
		if err == nil {
			stored[h] = text
		}
		return h, err
	}
	codec := CodeCodec{Librarian: true}
	for i := 0; i < 3; i++ {
		if _, err := codec.EncodeShip(store, Text("x")); err != nil {
			t.Fatalf("ship %d: %v", i, err)
		}
	}
	if _, err := codec.EncodeShip(store, Text("overflow")); !errors.Is(err, ErrRangeExhausted) {
		t.Fatalf("ship past the cap returned %v, want ErrRangeExhausted", err)
	}
	if len(stored) != 3 {
		t.Fatalf("%d runs stored, want 3", len(stored))
	}
	// The failed store must not have touched the neighbouring range.
	if _, leaked := stored[4]; leaked {
		t.Fatal("failed store leaked text into handle 4")
	}
}

// TestHandleAllocatorSharesCap checks the cluster-side allocator
// enforces the same cap.
func TestHandleAllocatorSharesCap(t *testing.T) {
	defer SetRangeCapForTesting(2)()

	alloc := HandleAllocator(1)
	base := HandleBase(1)
	for i := int32(1); i <= 2; i++ {
		h, err := alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if h != base+i {
			t.Fatalf("alloc %d: handle %d, want %d", i, h, base+i)
		}
	}
	if _, err := alloc(); !errors.Is(err, ErrRangeExhausted) {
		t.Fatalf("alloc past the cap returned %v, want ErrRangeExhausted", err)
	}
}
