package frame_test

import (
	"math"
	"testing"

	"pag/internal/frame"
)

// TestDecRejectsNonCanonical: an accepted input is exactly what Enc
// writes, so overlong varints, flags other than 0/1, trailing bytes and
// out-of-range values are errors.
func TestDecRejectsNonCanonical(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		read func(*frame.Dec)
	}{
		"overlong uint":    {[]byte{0x82, 0x00}, func(d *frame.Dec) { d.Uint() }},
		"overlong zero":    {[]byte{0x80, 0x00}, func(d *frame.Dec) { d.Uint() }},
		"overlong int":     {[]byte{0x82, 0x00}, func(d *frame.Dec) { d.Int() }},
		"overlong full":    {[]byte{0x82, 0x80, 0x00}, func(d *frame.Dec) { d.FullInt() }},
		"overlong flag":    {[]byte{0x81, 0x00}, func(d *frame.Dec) { d.Flag() }},
		"flag 2":           {[]byte{2}, func(d *frame.Dec) { d.Flag() }},
		"trailing byte":    {[]byte{0x02, 0x99}, func(d *frame.Dec) { d.Int() }},
		"int past int32":   {enc(func(e *frame.Enc) { e.Int(math.MaxInt32 + 1) }), func(d *frame.Dec) { d.Int() }},
		"count past input": {[]byte{3, 'a', 'b'}, func(d *frame.Dec) { d.Count() }},
		"truncated":        {[]byte{0x80}, func(d *frame.Dec) { d.Uint() }},
	} {
		d := frame.NewDec(c.data, name)
		c.read(d)
		if d.End() == nil {
			t.Errorf("%s: %x accepted", name, c.data)
		}
	}
}

// TestFullIntRoundTrip: attribute integers keep the whole int range,
// past the int32 bound of Int.
func TestFullIntRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, 63, -64, 64, math.MaxInt32, math.MaxInt32 + 1, math.MinInt32 - 1, 1e10, math.MaxInt, math.MinInt} {
		data := enc(func(e *frame.Enc) { e.Int(v) })
		d := frame.NewDec(data, "full")
		if got := d.FullInt(); d.End() != nil || got != v {
			t.Errorf("%d: decoded %d, %v", v, got, d.Err)
		}
	}
}

func enc(write func(*frame.Enc)) []byte {
	e := &frame.Enc{}
	write(e)
	return e.Buf
}
