package ag_test

import (
	"testing"

	"pag/internal/ag"
)

func TestIntValueRoundTrip(t *testing.T) {
	for _, i := range []int{-300, -256, -1, 0, 1, 255, 256, 4096, 8191, 8192, 1 << 30} {
		v := ag.IntValue(i)
		if got, ok := v.(int); !ok || got != i {
			t.Errorf("IntValue(%d) = %v", i, v)
		}
	}
}

func TestIntValueInternsSmallRange(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		for i := -256; i < 8192; i += 64 {
			_ = ag.IntValue(i)
		}
	})
	if allocs > 0 {
		t.Errorf("IntValue allocates %.1f times over the interned range; want 0", allocs)
	}
}

func TestBoolValue(t *testing.T) {
	if ag.BoolValue(true) != true || ag.BoolValue(false) != false {
		t.Error("BoolValue does not round-trip")
	}
}

// TestIntCodec: the int attribute codec keeps the whole int range,
// accepts only what it writes and refuses a non-int value.
func TestIntCodec(t *testing.T) {
	c := ag.IntCodec{}
	for _, v := range []int{0, -1, 300, 1 << 31, -(1 << 40), 100000 * 100000} {
		data, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := c.Decode(data); err != nil || back != v {
			t.Errorf("%d: decoded %v, %v", v, back, err)
		}
	}
	for _, bad := range [][]byte{{}, {0x02, 0x99}, {0x82, 0x00}, {0x80}} {
		if v, err := c.Decode(bad); err == nil {
			t.Errorf("%x decoded to %v", bad, v)
		}
	}
	if _, err := c.Encode("7"); err == nil {
		t.Error("a string encoded as an int attribute")
	}
}
