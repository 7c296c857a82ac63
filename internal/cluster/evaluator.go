package cluster

import (
	"fmt"
	"time"

	"pag/internal/ag"
	"pag/internal/netsim"
	"pag/internal/rope"
	"pag/internal/tree"
)

// evaluator is the body of evaluator machine idx: it receives its
// fragment, reconstructs the subtree, evaluates attributes (statically
// off the spine in combined mode), exchanges attribute values with the
// evaluators of neighbouring fragments, and reports its results.
func (c *run) evaluator(p *netsim.Proc, idx int) {
	m, ok := p.Recv()
	if !ok {
		return
	}
	sub, okType := m.Payload.(subtreeMsg)
	if !okType {
		c.fail(fmt.Errorf("cluster: evaluator %d expected subtree, got %T", idx, m.Payload))
		return
	}
	p.Compute(costMsgHandle)

	// Reconstruct the subtree from its linearized form (§2.4).
	root, err := tree.Decode(c.job.G, sub.data, c.job.Lex)
	if err != nil {
		c.fail(fmt.Errorf("cluster: evaluator %d decoding subtree: %w", idx, err))
		return
	}
	p.Compute(time.Duration(root.Count())*costPerNodeDecode +
		time.Duration(len(sub.data))*costPerByteCodec)

	// Map remote leaves back to fragment ids for message routing; the
	// slice preserves tree order for deterministic scheduling.
	leafList := tree.RemoteLeaves(root)
	leaves := map[int]*tree.Node{}
	for _, leaf := range leafList {
		leaves[leaf.RemoteID] = leaf
	}

	// The allocator bounds-checks the machine's private handle range
	// (shared cap with rope.Librarian.Range); only take it when the
	// librarian is actually in play (Run has validated the width then).
	var alloc func() (int32, error)
	if c.useLib {
		alloc = rope.HandleAllocator(idx)
	}
	store := func(text string) (int32, error) {
		h, err := alloc()
		if err != nil {
			// Out of private handles: fail the job rather than walk into
			// the neighbouring machine's handle range silently.
			return 0, fmt.Errorf("cluster: evaluator %d: %w", idx, err)
		}
		c.send(p, c.librarian, "store", storeMsg{handle: h, text: text}, len(text)+attrMsgHeader)
		return h, nil
	}

	// encodeAttr converts an outgoing attribute value through the shared
	// wire policy (codec.go), depositing code text at the librarian when
	// the codec supports it.
	encodeAttr := func(sym *ag.Symbol, attr int, v ag.Value) ([]byte, bool) {
		data, ship, err := EncodeAttr(sym, attr, v, c.useLib, store)
		if err != nil {
			c.fail(fmt.Errorf("cluster: encoding %s.%s: %w", sym.Name, sym.Attrs[attr].Name, err))
			return nil, false
		}
		return data, ship
	}
	decodeAttr := func(sym *ag.Symbol, attr int, data []byte) (ag.Value, error) {
		return DecodeAttr(sym, attr, data, c.useLib)
	}

	ev, err := NewFragmentEvaluator(c.job, FragmentSpec{
		ID:         idx,
		Root:       root,
		Leaves:     leafList,
		UIDBase:    sub.uidBase,
		Mode:       c.opts.Mode,
		UIDPreset:  c.opts.UIDPreset,
		NoPriority: c.opts.NoPriority,
		Charge:     p.Compute,
		Ready:      func() { p.Mark("ready") },
		Down: func(leaf *tree.Node, attr int, v ag.Value, _ bool) {
			data, _ := encodeAttr(leaf.Sym, attr, v)
			p.Compute(time.Duration(len(data)) * costPerByteCodec)
			c.send(p, c.evals[leaf.RemoteID], "attr",
				attrMsg{frag: leaf.RemoteID, attr: attr, data: data},
				len(data)+attrMsgHeader)
			if leaf.Sym.Attrs[attr].Priority {
				p.Mark("sent " + leaf.Sym.Attrs[attr].Name)
			}
		},
		Up: func(attr int, v ag.Value, _ bool) {
			data, _ := encodeAttr(root.Sym, attr, v)
			p.Compute(time.Duration(len(data)) * costPerByteCodec)
			c.send(p, c.evals[c.decomp.Frags[idx].Parent], "attr",
				attrMsg{frag: idx, up: true, attr: attr, data: data},
				len(data)+attrMsgHeader)
		},
		Result: func(attr int, v ag.Value) {
			// Root fragment: results go back to the parser.
			data, ship := encodeAttr(root.Sym, attr, v)
			p.Compute(time.Duration(len(data)) * costPerByteCodec)
			c.send(p, c.parser, "rootattr",
				rootAttrMsg{attr: attr, data: data, ship: ship}, len(data)+attrMsgHeader)
		},
	})
	if err != nil {
		c.fail(fmt.Errorf("cluster: evaluator %d: %w", idx, err))
		return
	}

	ev.Run()
	for !ev.Done() {
		m, ok := p.Recv()
		if !ok {
			return
		}
		am, okType := m.Payload.(attrMsg)
		if !okType {
			c.fail(fmt.Errorf("cluster: evaluator %d expected attr, got %T", idx, m.Payload))
			return
		}
		p.Compute(costMsgHandle + time.Duration(len(am.data))*costPerByteCodec)
		var target *tree.Node
		if am.up {
			target = leaves[am.frag]
			if target == nil {
				c.fail(fmt.Errorf("cluster: evaluator %d has no remote leaf for fragment %d", idx, am.frag))
				return
			}
		} else {
			target = root
		}
		v, err := decodeAttr(target.Sym, am.attr, am.data)
		if err != nil {
			c.fail(fmt.Errorf("cluster: evaluator %d decoding attr: %w", idx, err))
			return
		}
		if target == root && target.Sym.Attrs[am.attr].Priority {
			p.Mark("got " + target.Sym.Attrs[am.attr].Name)
		}
		ev.Supply(target, am.attr, v)
		ev.Run()
	}
	p.Mark("done")
	c.send(p, c.parser, "done", evaluatorDone{frag: idx, stats: ev.Stats()}, 32)
}
