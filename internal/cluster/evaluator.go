package cluster

import (
	"fmt"
	"time"

	"pag/internal/netsim"
	"pag/internal/tree"
)

// evaluator is the body of evaluator machine idx: it receives its
// fragment, reconstructs the subtree, evaluates attributes (statically
// off the spine in combined mode), exchanges attribute values with the
// evaluators of neighbouring fragments, and reports its results. The
// fragment endpoint does the decoding, evaluation and encoding; this
// machine is its netsim transport.
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

	// Reconstruct the subtree from its linearized form (§2.4). Code text
	// is deposited at the librarian machine before the descriptor that
	// names it leaves (Run has validated the width against the handle
	// ranges).
	ep, err := NewEndpoint(c.job, sub.data, FragmentSpec{
		ID:         idx,
		UIDBase:    sub.uidBase,
		Mode:       c.opts.Mode,
		UIDPreset:  c.opts.UIDPreset,
		NoPriority: c.opts.NoPriority,
		Charge:     p.Compute,
		Ready:      func() { p.Mark("ready") },
	}, Wire{
		Librarian: c.useLib,
		Store: func(h int32, text string) {
			c.send(p, c.librarian, "store", storeMsg{handle: h, text: text}, len(text)+attrMsgHeader)
		},
		Down: func(leaf *tree.Node, attr int, data []byte) {
			c.send(p, c.evals[leaf.RemoteID], "attr",
				attrMsg{frag: leaf.RemoteID, attr: attr, data: data},
				len(data)+attrMsgHeader)
			if leaf.Sym.Attrs[attr].Priority {
				p.Mark("sent " + leaf.Sym.Attrs[attr].Name)
			}
		},
		Up: func(attr int, data []byte) {
			c.send(p, c.evals[c.decomp.Frags[idx].Parent], "attr",
				attrMsg{frag: idx, up: true, attr: attr, data: data},
				len(data)+attrMsgHeader)
		},
		Result: func(attr int, data []byte, ship bool) {
			// Root fragment: results go back to the parser.
			c.send(p, c.parser, "rootattr",
				rootAttrMsg{attr: attr, data: data, ship: ship}, len(data)+attrMsgHeader)
		},
	})
	if err != nil {
		c.fail(err)
		return
	}

	for err = ep.Run(); err == nil && !ep.Done(); err = ep.Run() {
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
		leaf := RootLeaf
		if am.up {
			leaf = am.frag
		} else if a := c.decomp.Frags[idx].Root.Sym.Attrs[am.attr]; a.Priority {
			p.Mark("got " + a.Name)
		}
		if err := ep.Supply(leaf, am.attr, am.data); err != nil {
			c.fail(err)
			return
		}
	}
	if err != nil {
		c.fail(err)
		return
	}
	p.Mark("done")
	c.send(p, c.parser, "done", evaluatorDone{frag: idx, stats: ep.Stats()}, 32)
}
