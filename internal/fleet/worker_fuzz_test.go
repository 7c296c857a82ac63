package fleet

import (
	"bytes"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// FuzzWorkerRPC feeds a worker an open and then a supply, each sealed
// so that the payload decoders run, and requires that no input reaches
// the panic recovery of ServeRPC: a hostile or malformed session must
// be refused by validation or by the fragment endpoint, with an error
// that names what is wrong. The seeds are valid sessions of every
// fragment of an expression program at width 4: each fragment opened
// and fed its first input, and each opened and sent a continue (an
// empty supply batch).
func FuzzWorkerRPC(f *testing.F) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		f.Fatal(err)
	}
	root, err := l.Parse(exprlang.Generate(8, 6))
	if err != nil {
		f.Fatal(err)
	}
	d, enc := tree.SplitEncode(root, tree.GranularityFor(root, 4), 4)
	sym := d.Frags[1].Root.Sym
	stabData := []byte{0} // an empty symbol table
	valueData, err := sym.Attrs[exprlang.AttrValue].Codec.Encode(42)
	if err != nil {
		f.Fatal(err)
	}
	mustJSON := func(v any) []byte {
		body, err := sealJSON(v)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := unseal(body)
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	for _, fr := range d.Frags {
		open := mustJSON(openReq{Session: "s", Grammar: l.G.Name, Frag: fr.ID, UIDBase: cluster.UIDBaseFor(fr.ID), Tree: enc[fr.ID]})
		// A child fragment's first input is its root's symbol table;
		// the root fragment's is a child's synthesized value.
		msg := wireMsg{Leaf: cluster.RootLeaf, Attr: exprlang.AttrStab, Data: stabData}
		if fr.ID == 0 {
			msg = wireMsg{Leaf: d.Children(0)[0], Attr: exprlang.AttrValue, Data: valueData}
		}
		f.Add(open, mustJSON(supplyReq{Session: "s", Seq: 1, Msgs: []wireMsg{msg}}))
		f.Add(open, mustJSON(supplyReq{Session: "s", Seq: 1}))
	}
	f.Fuzz(func(t *testing.T, open, supply []byte) {
		w := NewWorker()
		w.Register(l.G, a, l.TerminalAttrs)
		for _, rpc := range []struct {
			path string
			body []byte
		}{{pathOpen, open}, {pathSupply, supply}} {
			code, resp := w.ServeRPC(rpc.path, seal(append([]byte(nil), rpc.body...)))
			if bytes.Contains(resp, []byte("fleet: worker panic")) {
				t.Fatalf("%s answered %d from the panic recovery: %s", rpc.path, code, resp)
			}
		}
	})
}
