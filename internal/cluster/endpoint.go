package cluster

import (
	"errors"
	"fmt"
	"time"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/rope"
	"pag/internal/tree"
)

// RootLeaf is the Endpoint.Supply address of the fragment's own root:
// an inherited value arriving from the parent fragment. Every other
// address is the fragment id a remote leaf stands for.
const RootLeaf = eval.Root

// Inbound values an Endpoint refuses, distinguishable with errors.Is.
var (
	// ErrWrongDirection reports a value addressed against its
	// attribute's flow: only inherited values arrive at a fragment's
	// root, and only synthesized values at a remote leaf.
	ErrWrongDirection = errors.New("attribute value against its flow (inherited values arrive at the root, synthesized ones at remote leaves)")
	// ErrDuplicateValue reports a second value for an attribute
	// instance that already has one: instances are single-assignment.
	ErrDuplicateValue = errors.New("attribute instance already has a value")
)

// Wire is the transport side of an Endpoint: the sinks its encoded
// output leaves through.
type Wire struct {
	// Librarian ships code values as librarian descriptors (§4.3): their
	// text runs go to Store under handles from the fragment's private
	// range, which FragmentSpec.ID must then name. Off, code values
	// cross as flattened text and Store is never called.
	Librarian bool
	Store     func(handle int32, text string)
	// Down, Up and Result carry FragmentSpec's values as wire bytes.
	Down   func(leaf *tree.Node, attr int, data []byte)
	Up     func(attr int, data []byte)
	Result func(attr int, data []byte, ship bool)
}

// Endpoint is one fragment evaluator at the wire level: it decodes the
// fragment's linearized subtree, builds the evaluator through
// NewFragmentEvaluator, encodes every outbound value and decodes every
// inbound one under the librarian ship-codec policy. The simulated
// cluster's evaluator machines and the fleet's worker sessions are each
// an Endpoint behind their own transport, so the bytes a fragment sends
// and accepts cannot differ between the byte-identity oracle and the
// real network runtime.
//
// Under FragmentSpec.Charge an endpoint also charges the codec work:
// decoding the subtree and encoding each outbound value.
type Endpoint struct {
	id     int
	ev     eval.FragmentEvaluator
	root   *tree.Node
	leaves []*tree.Node // remote leaves, in preorder
	leafOf map[int]int  // fragment id -> its remote leaf's index in leaves
	useLib bool
	err    error
}

// NewEndpoint decodes data, fragment s.ID's linearized subtree, into
// s.Builder (new storage when nil) and builds its evaluator. s supplies
// the fragment's id, switches and Charge/Ready hooks; the endpoint
// fills in Root, Leaves and the value sinks, which encode into w.
func NewEndpoint(job Job, data []byte, s FragmentSpec, w Wire) (*Endpoint, error) {
	b := s.Builder
	if b == nil {
		b = new(tree.Builder)
	}
	root, err := b.Decode(job.G, data, job.Lex)
	if err != nil {
		return nil, fmt.Errorf("cluster: fragment %d: decoding subtree: %w", s.ID, err)
	}
	charge := s.Charge
	if charge == nil {
		charge = func(time.Duration) {}
	} else {
		// Only the simulator charges, and only the charge needs the
		// node count: a real runtime skips the walk.
		charge(time.Duration(root.Count())*costPerNodeDecode + time.Duration(len(data))*costPerByteCodec)
	}

	e := &Endpoint{id: s.ID, root: root, leaves: tree.RemoteLeaves(root), leafOf: map[int]int{}, useLib: w.Librarian}
	for k, leaf := range e.leaves {
		e.leafOf[leaf.RemoteID] = k
	}
	var store func(text string) (int32, error)
	if w.Librarian {
		alloc := rope.HandleAllocator(s.ID)
		store = func(text string) (int32, error) {
			h, err := alloc()
			if err == nil {
				w.Store(h, text)
			}
			return h, err
		}
	}
	// encode converts one outbound value; after the first failure (a
	// spent handle range, above all) nothing more is sent and Run
	// reports the error.
	encode := func(sym *ag.Symbol, attr int, v ag.Value) (data []byte, ship, ok bool) {
		if e.err != nil {
			return nil, false, false
		}
		var err error
		codec := sym.Attrs[attr].Codec
		if sc, isShip := codec.(rope.ShipCodec); isShip && e.useLib {
			data, err = sc.EncodeShip(store, v)
			ship = true
		} else {
			data, err = codec.Encode(v)
		}
		if err != nil {
			e.err = fmt.Errorf("cluster: fragment %d: encoding %s.%s: %w", s.ID, sym.Name, sym.Attrs[attr].Name, err)
			return nil, false, false
		}
		charge(time.Duration(len(data)) * costPerByteCodec)
		return data, ship, true
	}
	s.Root, s.Leaves = root, e.leaves
	s.Down = func(k, attr int, v ag.Value, _ bool) {
		leaf := e.leaves[k]
		if data, _, ok := encode(leaf.Sym, attr, v); ok {
			w.Down(leaf, attr, data)
		}
	}
	s.Up = func(attr int, v ag.Value, _ bool) {
		if data, _, ok := encode(root.Sym, attr, v); ok {
			w.Up(attr, data)
		}
	}
	s.Result = func(attr int, v ag.Value) {
		if data, ship, ok := encode(root.Sym, attr, v); ok {
			w.Result(attr, data, ship)
		}
	}
	if e.ev, err = NewFragmentEvaluator(job, s); err != nil {
		return nil, fmt.Errorf("cluster: fragment %d: %w", s.ID, err)
	}
	return e, nil
}

// Run evaluates everything ready. It reports the first outbound value
// that could not be encoded; the endpoint is unusable after that.
func (e *Endpoint) Run() error {
	e.ev.Run()
	return e.err
}

// Done reports whether every local attribute instance is evaluated.
func (e *Endpoint) Done() bool { return e.ev.Done() }

// Yielded reports whether the last Run stopped after a priority value
// with work left (FragmentSpec.Yield).
func (e *Endpoint) Yielded() bool { return e.ev.Yielded() }

// Stats returns the evaluator's statistics.
func (e *Endpoint) Stats() eval.Stats { return e.ev.Stats() }

// Supply decodes one inbound value of attribute attr, addressed to the
// fragment root (RootLeaf) or to the remote leaf of fragment leaf, and
// hands it to the evaluator; call Run to evaluate what it enables. An
// unknown address, an attribute out of range, a value against the
// attribute's flow (ErrWrongDirection), a second value for one
// instance (ErrDuplicateValue) and undecodable bytes are errors, and
// the evaluator is left as it was.
func (e *Endpoint) Supply(leaf, attr int, data []byte) error {
	sym, k, kind := e.root.Sym, eval.Root, ag.Inherited
	if leaf != RootLeaf {
		var ok bool
		if k, ok = e.leafOf[leaf]; !ok {
			return fmt.Errorf("cluster: fragment %d has no remote leaf for fragment %d", e.id, leaf)
		}
		sym, kind = e.leaves[k].Sym, ag.Synthesized
	}
	if attr < 0 || attr >= len(sym.Attrs) {
		return fmt.Errorf("cluster: fragment %d: attribute %d out of range for %s", e.id, attr, sym.Name)
	}
	a := sym.Attrs[attr]
	switch {
	case a.Kind != kind:
		return fmt.Errorf("cluster: fragment %d: %s.%s: %w", e.id, sym.Name, a.Name, ErrWrongDirection)
	case e.ev.Has(k, attr):
		return fmt.Errorf("cluster: fragment %d: %s.%s: %w", e.id, sym.Name, a.Name, ErrDuplicateValue)
	case a.Codec == nil:
		return fmt.Errorf("cluster: fragment %d: %s.%s has no codec", e.id, sym.Name, a.Name)
	}
	var v ag.Value
	var err error
	if sc, ok := a.Codec.(rope.ShipCodec); ok && e.useLib {
		v, err = sc.DecodeShip(data)
	} else {
		v, err = a.Codec.Decode(data)
	}
	if err != nil {
		return fmt.Errorf("cluster: fragment %d: decoding %s.%s: %w", e.id, sym.Name, a.Name, err)
	}
	e.ev.Supply(k, attr, v)
	return nil
}

// DecodeResult decodes root attribute attr of g as the root fragment's
// endpoint sent it through Wire.Result. A shipped value is a librarian
// descriptor: lookup supplies the text of its handles, and the value
// is the spliced text as a handle-free rope.Leaf.
func DecodeResult(g *ag.Grammar, attr int, data []byte, ship bool, lookup func(int32) string) (ag.Value, error) {
	a := g.Start.Attrs[attr]
	sc, isShip := a.Codec.(rope.ShipCodec)
	if !ship {
		v, err := a.Codec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("cluster: decoding root attribute %s: %w", a.Name, err)
		}
		return v, nil
	}
	if !isShip {
		return nil, fmt.Errorf("cluster: root attribute %s cannot be shipped", a.Name)
	}
	v, err := sc.DecodeShip(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding root descriptor %s: %w", a.Name, err)
	}
	d, ok := v.(*rope.Descriptor)
	if !ok {
		return nil, fmt.Errorf("cluster: root attribute %s shipped as %T, not a descriptor", a.Name, v)
	}
	return rope.Leaf(d.Resolve(lookup)), nil
}
