package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/parallel"
	"pag/internal/tree"
)

// frameHead starts a hand-built frame payload of kind k.
func frameHead(k byte, rest ...byte) []byte {
	return append([]byte{wireVersion, k}, rest...)
}

// huge is a length or count prefix far beyond any test input: decoding
// it must fail before allocating anything sized by it.
var huge = binary.AppendUvarint(nil, 1<<20)

// TestFrameRejects: a frame of an unknown version or kind, one with
// trailing bytes, and one whose length or count prefix is larger than
// the rest of the input are refused as corrupt on both sides of the
// wire — the worker answers 400, the coordinator's response decode
// errCorrupt — and the oversized prefixes allocate nothing sized by
// the prefix.
func TestFrameRejects(t *testing.T) {
	w, _, _ := testWorker(t)
	supply, _ := unseal(sealFrame(&supplyReq{Session: "sess-0", Seq: 1, Msgs: []wireMsg{{Leaf: -1, Attr: 1, Data: []byte{0}}}}))
	resp, _ := unseal(sealFrame(&evalResp{Done: true, Msgs: []outMsg{{Frag: 1, Data: []byte{7}}}, Stores: []storeOut{{Handle: 3, Text: "movl r0,r1\n"}}}))
	with := func(p []byte, edit func([]byte) []byte) []byte {
		return edit(append([]byte(nil), p...))
	}
	for _, c := range []struct {
		name         string
		supply, resp []byte
	}{
		{"unknown version",
			with(supply, func(p []byte) []byte { p[0] = wireVersion + 1; return p }),
			with(resp, func(p []byte) []byte { p[0] = 0; return p })},
		{"unknown kind",
			with(supply, func(p []byte) []byte { p[1] = 0x7f; return p }),
			with(resp, func(p []byte) []byte { p[1] = 0x7f; return p })},
		{"kind of another message",
			with(supply, func(p []byte) []byte { p[1] = kindClose; return p }),
			with(resp, func(p []byte) []byte { p[1] = kindOpen; return p })},
		{"trailing bytes",
			append(append([]byte(nil), supply...), 0),
			append(append([]byte(nil), resp...), 0)},
		{"length prefix beyond the input",
			append(frameHead(kindSupply, huge...), 's'),
			append(frameHead(kindResp, 0, 0, 1, 0, 2, 2), append(huge, 1, 2, 3)...)},
		{"count prefix beyond the input",
			append(frameHead(kindSupply, 1, 's', 2), append(huge, 1, 0)...),
			append(frameHead(kindResp, 0, 0), append(huge, 0, 0)...)},
	} {
		if code, body := w.ServeRPC(pathSupply, seal(c.supply)); code != http.StatusBadRequest {
			t.Errorf("%s: worker answered %d %s, want 400", c.name, code, body)
		}
		sealed := seal(c.resp)
		var r evalResp
		if err := unsealFrame(sealed, &r); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: coordinator decode gave %v, want errCorrupt", c.name, err)
		}
		if perDecode := allocatedBytes(func() { unsealFrame(sealed, &evalResp{}) }); perDecode > 4<<10 {
			t.Errorf("%s: a refused decode allocated %d bytes", c.name, perDecode)
		}
	}
}

// allocatedBytes reports the bytes fn allocates, averaged over runs.
func allocatedBytes(fn func()) uint64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// FuzzFleetFrames fuzzes the coordinator's side of the wire: arbitrary
// sealed bytes go through the response decode the coordinator runs on
// every worker answer and, when accepted, through fjob.handle (routing,
// dedup, completion) and the decode of the root results. Nothing may
// panic. Every frame kind that accepts the bytes must re-encode to a
// frame that decodes to the same value. The seeds are the responses of
// real sessions: each fragment of an expression program at width 4
// opened and continued until it blocks.
func FuzzFleetFrames(f *testing.F) {
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
	w := NewWorker()
	w.Register(l.G, a, l.TerminalAttrs)
	for _, fr := range d.Frags {
		session := string(rune('a' + fr.ID))
		path, body := pathOpen, sealFrame(&openReq{Session: session, Grammar: l.G.Name, Frag: fr.ID, UIDBase: cluster.UIDBaseFor(fr.ID), Tree: enc[fr.ID]})
		for seq := 1; ; seq++ {
			code, raw := w.ServeRPC(path, body)
			if code != http.StatusOK {
				f.Fatalf("fragment %d: %d %s", fr.ID, code, raw)
			}
			p, _ := unseal(raw)
			f.Add(p, uint8(fr.ID))
			var r evalResp
			if err := unsealFrame(raw, &r); err != nil || !r.More {
				break
			}
			path, body = pathSupply, sealFrame(&supplyReq{Session: session, Seq: seq})
		}
	}
	f.Add(frameHead(kindResp), uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, at uint8) {
		sealed := seal(append([]byte(nil), payload...))
		for _, fresh := range []func() wireFrame{
			func() wireFrame { return &openReq{} },
			func() wireFrame { return &supplyReq{} },
			func() wireFrame { return &closeReq{} },
			func() wireFrame { return &evalResp{} },
		} {
			m := fresh()
			if unsealFrame(sealed, m) != nil {
				continue
			}
			again := fresh()
			if err := unsealFrame(sealFrame(m), again); err != nil {
				t.Fatalf("%T re-encoded frame refused: %v", m, err)
			}
			if !reflect.DeepEqual(m, again) {
				t.Fatalf("%T round trip: %+v became %+v", m, m, again)
			}
		}

		var resp evalResp
		if err := unsealFrame(sealed, &resp); err != nil {
			return
		}
		rt := parallel.NewRuntime[wireMsg](context.Background())
		j := NewCoordinator(CoordinatorOptions{}).newJob(rt, cluster.Job{G: l.G}, nil, d, enc)
		fr := j.frags[int(at)%len(j.frags)]
		for range 2 { // the second pass is a journal replay: all dedup
			if err := j.handle(fr, &resp); err != nil {
				return
			}
		}
		for _, ai := range l.G.Start.Syn() {
			if rt, ok := j.roots[ai]; ok {
				cluster.DecodeResult(l.G, ai, rt.Data, rt.Ship, func(h int32) string { return j.store[h] }) //nolint:errcheck // only panics matter
			}
		}
	})
}
