// Package cluster implements the paper's parallel compiler runtime
// (§2.1): a sequential parser process that decomposes the parse tree
// and ships linearized subtrees to attribute evaluator processes on
// separate machines, the evaluators exchanging attribute values over
// the network, and the string librarian process of §4.3 collecting
// code strings so that result propagation transmits only descriptors.
//
// The runtime runs on the netsim discrete-event simulator, so results
// are deterministic and timed in 1987 terms.
package cluster

import (
	"fmt"
	"time"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/netsim"
	"pag/internal/rope"
	"pag/internal/trace"
	"pag/internal/tree"
)

// Mode selects the evaluation strategy.
type Mode int

// Evaluator modes.
const (
	Combined Mode = iota + 1 // the paper's combined static/dynamic evaluator
	Dynamic                  // the purely dynamic evaluator
)

func (m Mode) String() string {
	switch m {
	case Combined:
		return "combined"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeByName parses a mode name — the vocabulary shared by every
// frontend (pagc flags, pagd requests), so they cannot diverge. The
// empty string is Combined, the default everywhere.
func ModeByName(name string) (Mode, error) {
	switch name {
	case "", "combined":
		return Combined, nil
	case "dynamic":
		return Dynamic, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (combined, dynamic)", name)
	}
}

// UIDPair names a unique-identifier attribute pair on a split symbol:
// Base is the inherited counter base threading down the tree, Count the
// synthesized number of identifiers consumed, threading back up. With
// Options.UIDPreset the cluster breaks this chain at every fragment
// boundary: the child derives identifiers from a per-fragment base
// supplied by the parser, and the parent treats the child's count as
// zero instead of waiting for it (paper §4.3).
type UIDPair struct {
	Sym   *ag.Symbol
	Base  int
	Count int
}

// CodeAttr returns the index of the start symbol's code attribute —
// the synthesized attribute whose codec supports librarian shipping —
// or -1 if the grammar has none. Both runtimes use this to decide
// which root attribute becomes Result.Program.
func CodeAttr(g *ag.Grammar) int {
	codeAttr := -1
	for ai, a := range g.Start.Attrs {
		if _, ok := a.Codec.(rope.ShipCodec); ok && a.Kind == ag.Synthesized {
			codeAttr = ai
		}
	}
	return codeAttr
}

// UIDBaseFor returns the per-fragment unique-identifier base the
// parser hands to fragment id under Options.UIDPreset (§4.3). The
// spacing leaves a million identifiers per fragment. The real runtime
// (internal/parallel) uses the same bases, which is part of why its
// output is byte-identical to the simulator's.
func UIDBaseFor(id int) int { return 1 + id*1_000_000 }

// Job describes one compilation.
type Job struct {
	G *ag.Grammar
	A *ag.Analysis // required for Combined mode
	// Root is the parsed tree. No runtime writes to it — the pool
	// evaluates a private clone, the simulator and the fleet coordinator
	// encode fragments straight from it — so a Job can be reused, and
	// compiled by several callers at once.
	Root *tree.Node
	// Lex recomputes terminal attributes after network transfer.
	Lex tree.TerminalAttrs
	// ParseCost is the simulated parsing time, charged to the parser
	// machine before evaluation starts (reported separately; the
	// paper's Figure 5 running times exclude parsing).
	ParseCost time.Duration
	// UIDs lists unique-identifier attribute pairs (label bases and
	// counts). With Options.UIDPreset, each evaluator derives them from
	// a per-fragment base value supplied by the parser instead of
	// waiting for the propagated chain (§4.3).
	UIDs []UIDPair
}

// Options configures the run.
type Options struct {
	// Machines is the number of evaluator machines (paper Figure 5's
	// x-axis). The parser and the librarian run on their own machines.
	Machines int
	Mode     Mode
	Hardware netsim.Config
	// Librarian enables the string-librarian result propagation
	// optimization (on in the paper's measurements; off reproduces the
	// naive implementation of §4.3).
	Librarian bool
	// Granularity is the minimum linearized subtree size for a split;
	// 0 derives it from the tree size and machine count (the parser's
	// runtime scaling argument of §2.5).
	Granularity int
	// UIDPreset enables per-evaluator unique-identifier bases (§4.3);
	// off makes unique identifiers a sequentially propagated chain.
	UIDPreset bool
	// NoPriority disables priority attributes (ablation, §4.3).
	NoPriority bool
}

// Result is the outcome of a parallel compilation.
type Result struct {
	// RootAttrs holds the decoded synthesized attributes of the tree
	// root, indexed by attribute index.
	RootAttrs []ag.Value
	// Program is the final code text (resolved via the librarian when
	// enabled), if the grammar has a code attribute.
	Program string
	// EvalTime is the paper's running-time metric: from the moment the
	// parser initiates evaluation until it has received the root
	// attributes (and the assembled program) back.
	EvalTime time.Duration
	// ParseTime is the simulated parsing time.
	ParseTime time.Duration
	// Stats aggregates evaluator statistics across machines.
	Stats eval.Stats
	// PerFrag holds per-fragment evaluator statistics.
	PerFrag []eval.Stats
	// Frags is the number of fragments the tree was split into.
	Frags int
	// Decomp describes the process tree. It is a planned decomposition
	// (tree.SplitEncode): its fragment roots are nodes of the job's
	// uncut tree, so read the fragments through its methods (Sizes,
	// Balance, Children, Describe, Digests), not by walking Frags[i].Root.
	Decomp *tree.Decomposition
	// Trace is the machine activity trace (paper Figure 6).
	Trace *trace.Trace
	// Bytes is the total number of payload bytes sent over the network.
	Bytes int
	// Messages is the total number of network messages.
	Messages int
}

// Simulated CPU costs of the runtime itself.
const (
	costMsgHandle     = 30 * time.Microsecond // per message send/receive path
	costPerByteCodec  = 500 * time.Nanosecond // attribute encode/decode per byte
	costPerNodeDecode = 20 * time.Microsecond // tree reconstruction per node
	costPerNodeSplit  = 5 * time.Microsecond  // parser-side decomposition walk
	costStoreBase     = 25 * time.Microsecond // librarian per stored string
	costStorePerByte  = 150 * time.Nanosecond // librarian copy cost
	costSplicePerByte = 200 * time.Nanosecond // librarian final splice
	attrMsgHeader     = 12                    // wire overhead per attribute message
)

// message payloads
type subtreeMsg struct {
	frag    int
	parent  int
	data    []byte
	uidBase int
}

type attrMsg struct {
	frag int // down: target fragment; up: source fragment
	up   bool
	attr int
	data []byte
}

type storeMsg struct {
	handle int32
	text   string
}

type resolveMsg struct{ data []byte }

type programMsg struct{ text string }

type rootAttrMsg struct {
	attr int
	data []byte
	ship bool
}

type evaluatorDone struct {
	frag  int
	stats eval.Stats
}

// Run executes one parallel compilation on the simulator.
func Run(job Job, opts Options) (*Result, error) {
	if opts.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 machine, got %d", opts.Machines)
	}
	// Validate the requested machine count against the librarian's
	// handle-range layout before simulating anything: each evaluator
	// machine claims a private handle range, and a wider librarian run
	// would panic mid-simulation claiming an out-of-range handle base.
	if opts.Librarian && opts.Machines > rope.MaxHandleRanges {
		return nil, fmt.Errorf("cluster: %d machines exceed the librarian's %d handle ranges",
			opts.Machines, rope.MaxHandleRanges)
	}
	if opts.Mode == 0 {
		opts.Mode = Combined
	}
	if opts.Mode != Combined && opts.Mode != Dynamic {
		return nil, fmt.Errorf("cluster: unknown mode %s", opts.Mode)
	}
	if opts.Mode == Combined && job.A == nil {
		return nil, fmt.Errorf("cluster: combined mode requires an OAG analysis")
	}
	if (opts.Hardware == netsim.Config{}) {
		opts.Hardware = netsim.DefaultHardware()
	}
	// A partially filled Hardware (say, CPUScale set but bandwidth
	// zero) would otherwise fail deep inside the simulation; reject it
	// here with the cluster's name on the error.
	if err := opts.Hardware.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: invalid hardware: %w", err)
	}

	// The parser only ships fragments, so it splits and encodes them
	// straight from the job's tree, without a private copy.
	root := job.Root
	gran := opts.Granularity
	if gran == 0 {
		gran = tree.GranularityFor(root, opts.Machines)
	}

	sim := netsim.New(opts.Hardware)
	res := &Result{Trace: sim.Trace()}

	// The parser decomposes the tree up front so we know how many
	// evaluator machines participate; the CPU cost of the decomposition
	// is charged to the parser process below.
	nodesBefore := root.Count()
	decomp, encoded := tree.SplitEncode(root, gran, opts.Machines)
	res.Decomp = decomp
	res.Frags = decomp.NumFragments()

	// The start symbol's synthesized attributes travel back to the
	// parser, so they need conversion functions like any split symbol.
	for _, ai := range job.G.Start.Syn() {
		if job.G.Start.Attrs[ai].Codec == nil {
			return nil, fmt.Errorf("cluster: start symbol %s attribute %s needs a Codec (results return over the network)",
				job.G.Start.Name, job.G.Start.Attrs[ai].Name)
		}
	}
	// Identify the code attribute of the start symbol (ship codec).
	// The decomposition is never wider than the validated machine
	// count, so librarian handle ranges cannot run out here.
	codeAttr := CodeAttr(job.G)
	useLib := opts.Librarian && codeAttr >= 0

	c := &run{
		job:      job,
		opts:     opts,
		sim:      sim,
		decomp:   decomp,
		encoded:  encoded,
		res:      res,
		codeAttr: codeAttr,
		useLib:   useLib,
		perFrag:  make([]eval.Stats, decomp.NumFragments()),
		gotRoot:  make(map[int]bool),
	}

	c.evals = make([]*netsim.Proc, decomp.NumFragments())
	for i := range c.evals {
		i := i
		c.evals[i] = sim.Spawn(fmt.Sprintf("eval-%c", 'a'+i), func(p *netsim.Proc) { c.evaluator(p, i) })
	}
	if useLib {
		c.librarian = sim.Spawn("librarian", func(p *netsim.Proc) { c.runLibrarian(p) })
	}
	c.parser = sim.Spawn("parser", func(p *netsim.Proc) { c.runParser(p, nodesBefore) })

	if _, err := sim.Run(); err != nil {
		return nil, fmt.Errorf("cluster: %s on %d machine(s): %w", opts.Mode, opts.Machines, err)
	}
	if c.err != nil {
		return nil, c.err
	}
	res.PerFrag = c.perFrag
	for _, s := range c.perFrag {
		res.Stats.Add(s)
	}
	return res, nil
}

// run carries the shared state of one simulation. The simulator runs
// process bodies one at a time, so unsynchronized shared state is safe.
type run struct {
	job      Job
	opts     Options
	sim      *netsim.Sim
	decomp   *tree.Decomposition
	encoded  [][]byte // the linearized fragments, by fragment ID
	res      *Result
	codeAttr int
	useLib   bool

	parser    *netsim.Proc
	evals     []*netsim.Proc
	librarian *netsim.Proc

	perFrag []eval.Stats
	gotRoot map[int]bool
	err     error
}

func (c *run) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *run) send(p *netsim.Proc, to *netsim.Proc, kind string, payload any, size int) {
	p.Compute(costMsgHandle)
	p.Send(to, kind, payload, size)
	c.res.Bytes += size
	c.res.Messages++
}

// runParser is the parser process: it charges the parse and
// decomposition costs, ships the fragments, and collects the results.
func (c *run) runParser(p *netsim.Proc, nodes int) {
	p.Compute(c.job.ParseCost)
	c.res.ParseTime = p.Now()
	p.Mark("parse done")
	p.Compute(time.Duration(nodes) * costPerNodeSplit)

	// Encode and ship every fragment; evaluation starts now.
	t0 := p.Now()
	p.Mark("evaluation starts")
	for _, f := range c.decomp.Frags {
		data := c.encoded[f.ID]
		p.Compute(time.Duration(len(data)) * costPerByteCodec)
		c.send(p, c.evals[f.ID], "subtree",
			subtreeMsg{frag: f.ID, parent: f.Parent, data: data, uidBase: UIDBaseFor(f.ID)},
			len(data))
	}

	// Collect root attributes (and the assembled program). The paper's
	// running-time metric stops when the parser has the root attributes
	// back; evaluator completion reports may trail in afterwards.
	wantRoot := len(c.job.G.Start.Syn())
	done := 0
	needProgram := false
	maybeFinish := func() {
		if c.res.EvalTime == 0 && len(c.gotRoot) >= wantRoot && !needProgram {
			p.Mark("results complete")
			c.res.EvalTime = p.Now() - t0
		}
	}
	for done < len(c.decomp.Frags) || len(c.gotRoot) < wantRoot || needProgram {
		m, ok := p.Recv()
		if !ok {
			return
		}
		p.Compute(costMsgHandle)
		switch pl := m.Payload.(type) {
		case rootAttrMsg:
			c.gotRoot[pl.attr] = true
			attr := c.job.G.Start.Attrs[pl.attr]
			p.Compute(time.Duration(len(pl.data)) * costPerByteCodec)
			if pl.ship {
				// Code descriptor: ask the librarian to splice the
				// final program.
				needProgram = true
				c.send(p, c.librarian, "resolve", resolveMsg{data: pl.data}, len(pl.data)+attrMsgHeader)
				continue
			}
			v, err := attr.Codec.Decode(pl.data)
			if err != nil {
				c.fail(fmt.Errorf("cluster: decoding root attribute %s: %w", attr.Name, err))
				return
			}
			if c.res.RootAttrs == nil {
				c.res.RootAttrs = make([]ag.Value, len(c.job.G.Start.Attrs))
			}
			c.res.RootAttrs[pl.attr] = v
			if pl.attr == c.codeAttr {
				c.res.Program = rope.FlattenCode(v.(rope.Code), nil)
			}
			maybeFinish()
		case programMsg:
			needProgram = false
			c.res.Program = pl.text
			c.gotRoot[c.codeAttr] = true
			maybeFinish()
		case evaluatorDone:
			c.perFrag[pl.frag] = pl.stats
			done++
		default:
			c.fail(fmt.Errorf("cluster: parser got unexpected %T", m.Payload))
			return
		}
	}
	maybeFinish()
	if c.useLib {
		c.send(p, c.librarian, "bye", nil, 1)
	}
}

// runLibrarian is the string librarian process of paper §4.3.
func (c *run) runLibrarian(p *netsim.Proc) {
	store := map[int32]string{}
	for {
		m, ok := p.Recv()
		if !ok {
			return
		}
		switch pl := m.Payload.(type) {
		case storeMsg:
			p.Compute(costStoreBase + time.Duration(len(pl.text))*costStorePerByte)
			store[pl.handle] = pl.text
		case resolveMsg:
			p.Compute(costMsgHandle)
			v, err := rope.CodeCodec{Librarian: true}.DecodeShip(pl.data)
			if err != nil {
				c.fail(fmt.Errorf("cluster: librarian decoding descriptor: %w", err))
				return
			}
			desc := v.(*rope.Descriptor)
			text := desc.Resolve(func(h int32) string { return store[h] })
			p.Compute(time.Duration(len(text)) * costSplicePerByte)
			c.send(p, c.parser, "program", programMsg{text: text}, len(text)+attrMsgHeader)
		case nil:
			return // bye
		default:
			c.fail(fmt.Errorf("cluster: librarian got unexpected %T", m.Payload))
			return
		}
	}
}
