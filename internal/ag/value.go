package ag

import (
	"fmt"

	"pag/internal/frame"
)

// Interned boxes for the small scalar values that dominate attribute
// traffic (sizes, offsets, label counters, error counts). Storing an
// int in an ag.Value (an interface) normally heap-allocates the box;
// the Go runtime only interns values below 256. Semantic rules that
// return ints should go through IntValue so the steady-state evaluator
// loop stays allocation-free on the dominant int/bool attributes.
const (
	internMin = -256
	internMax = 8192
)

var smallInts [internMax - internMin]Value

func init() {
	for i := range smallInts {
		smallInts[i] = i + internMin
	}
}

// IntValue boxes an int without allocating for the common small range
// [-256, 8192). Values outside the range box normally.
func IntValue(i int) Value {
	if i >= internMin && i < internMax {
		return smallInts[i-internMin]
	}
	return i
}

// IntCodec is the conversion function pair (paper §2.5) for an int
// attribute: one signed varint over the whole range of int.
type IntCodec struct{}

// Encode implements Codec.
func (IntCodec) Encode(v Value) ([]byte, error) {
	n, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("ag: int attribute holds %T", v)
	}
	e := frame.Enc{}
	e.Int(n)
	return e.Buf, nil
}

// Decode implements Codec.
func (IntCodec) Decode(data []byte) (Value, error) {
	d := frame.NewDec(data, "ag: int")
	n := d.FullInt()
	if err := d.End(); err != nil {
		return nil, err
	}
	return IntValue(n), nil
}
